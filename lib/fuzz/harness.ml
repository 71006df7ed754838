open Specrepair_sat
module Alloy = Specrepair_alloy
module Ast = Alloy.Ast
module Analyzer = Specrepair_solver.Analyzer
module Bounds = Specrepair_solver.Bounds
module Oracle = Specrepair_solver.Oracle
module Counters = Specrepair_json.Counters
module Translate = Specrepair_solver.Translate
module Mutate = Specrepair_mutation.Mutate

(* What one check found.  [`Skip] is an iteration the reference cannot
   decide (an instance space beyond the enumeration cap); [`Fail] is a
   discrepancy. *)
type outcome = [ `Ok | `Skip | `Fail of string ]

(* Every check is wrapped: an exception is itself a discrepancy (the two
   sides are total on well-typed inputs). *)
let guard f : outcome =
  match f () with
  | r -> r
  | exception e -> `Fail (Printf.sprintf "exception: %s" (Printexc.to_string e))

(* Sequencing of checks: the first failure stops the chain. *)
let ( let* ) (r : outcome) f = match r with `Fail _ -> r | `Ok | `Skip -> f ()

(* {2 Targets} *)

(* Where a failing iteration's shrunk input is persisted. *)
type entry = { dir : string; seed : int; name : string }

let save_cnf e ~assumptions cnf =
  Corpus.save_cnf ~dir:e.dir ~name:e.name ~seed:e.seed ~assumptions cnf

let save_spec e spec = Corpus.save_spec ~dir:e.dir ~name:e.name ~seed:e.seed spec

(* Shrink [spec] over candidates that still type-check and on which
   [fails] still holds. *)
let shrink_spec fails spec =
  Shrink.run Shrink.spec_candidates
    (fun spec' ->
      match Alloy.Typecheck.check_result spec' with
      | Ok env -> fails env
      | Error _ -> false)
    spec

(* One iteration: its guarded outcome, what it adds to the summary
   counters, and the shrink-and-persist step a failure runs. *)
type iteration = {
  outcome : outcome;
  tallies : int list;
  persist : unit -> string;
}

type target = {
  name : string;
  counters : string list;  (** the summary counters, in print order *)
  iterate : entry -> Rng.t -> iteration;
}

let target_name t = t.name

(* A target from its generator, its check and its shrink-and-persist
   step.  Both the check and [persist]'s [fails] (does a shrunk case still
   fail?) run on the iteration's stream.  [counts] reads the summary
   counters off a case after its check, whatever the check did: the
   counter set, and for each printed name the key it is read from. *)
let target ?counts name ~gen ~check ~persist =
  let counters, tally =
    match counts with
    | None -> ([], fun _ -> [])
    | Some (stats, keys) ->
        ( List.map fst keys,
          fun case ->
            let set = stats case in
            List.map (fun (_, key) -> Counters.find set key) keys )
  in
  let iterate entry rng =
    let case = gen rng in
    let outcome = guard (fun () -> check rng case) in
    let tallies = tally case in
    let fails case' = guard (fun () -> check rng case') <> `Ok in
    { outcome; tallies; persist = (fun () -> persist entry ~fails case) }
  in
  { name; counters; iterate }

(* {2 SAT target} *)

type sat_case = {
  cnf : Dimacs.cnf;
  assumptions : Lit.t list;
  budget : int option;
  split : int option;  (** solve after this many clauses, then add the rest *)
}

let gen_sat_case rng =
  let cnf = Gen.cnf rng in
  let assumptions =
    if Rng.bool rng then Gen.assumptions rng ~num_vars:cnf.Dimacs.num_vars
    else []
  in
  let budget = if Rng.int rng 4 = 0 then Some (Rng.range rng 1 20) else None in
  let split =
    if Rng.int rng 3 = 0 && List.length cnf.Dimacs.clauses >= 2 then
      Some (Rng.int rng (List.length cnf.Dimacs.clauses))
    else None
  in
  { cnf; assumptions; budget; split }

let take n xs = List.filteri (fun i _ -> i < n) xs
let drop n xs = List.filteri (fun i _ -> i >= n) xs

(* One solve verified against the reference: result tags must agree, models
   must satisfy clauses and assumptions, unsat cores must stay within the
   assumption set. *)
let verify_solve s cnf assumptions result ~budgeted =
  match ((result : Solver.result), Ref_sat.solve ~assumptions cnf) with
  | Solver.Unknown, _ ->
      if budgeted then `Ok
      else `Fail "solver returned unknown without a conflict budget"
  | Solver.Sat, Ref_sat.Unsat -> `Fail "solver sat where reference says unsat"
  | Solver.Unsat, Ref_sat.Sat _ -> `Fail "solver unsat where reference says sat"
  | Solver.Sat, Ref_sat.Sat _ ->
      let holds l = Solver.lit_value s l in
      if
        not
          (List.for_all (fun cl -> List.exists holds cl) cnf.Dimacs.clauses)
      then `Fail "solver model falsifies a clause"
      else if not (List.for_all holds assumptions) then
        `Fail "solver model violates an assumption"
      else `Ok
  | Solver.Unsat, Ref_sat.Unsat ->
      let core = Solver.unsat_assumptions s in
      if List.for_all (fun l -> List.exists (Lit.equal l) assumptions) core
      then `Ok
      else `Fail "unsat core mentions a non-assumption literal"

let check_sat_case (c : sat_case) =
  let s = Solver.create () in
  ignore (Solver.new_vars s c.cnf.Dimacs.num_vars);
  let clauses = c.cnf.Dimacs.clauses in
  let prefix, rest =
    match c.split with
    | None -> (clauses, [])
    | Some k ->
        let k = min k (List.length clauses) in
        (take k clauses, drop k clauses)
  in
  List.iter (Solver.add_clause s) prefix;
  let* () =
    match c.split with
    | None -> `Ok
    | Some _ ->
        let sub = { c.cnf with Dimacs.clauses = prefix } in
        verify_solve s sub c.assumptions
          (Solver.solve ~assumptions:c.assumptions s)
          ~budgeted:false
  in
  List.iter (Solver.add_clause s) rest;
  let result = Solver.solve ?max_conflicts:c.budget ~assumptions:c.assumptions s in
  let* () = verify_solve s c.cnf c.assumptions result ~budgeted:(c.budget <> None) in
  (* incremental contract: an Unsat caused by assumptions must not poison
     the solver when the clause set alone is satisfiable *)
  match (result, c.assumptions) with
  | Solver.Unsat, _ :: _ -> (
      match Ref_sat.solve c.cnf with
      | Ref_sat.Sat _ ->
          if not (Solver.ok s) then `Fail "assumption-unsat flipped ok to false"
          else if Solver.solve s <> Solver.Sat then
            `Fail "solver no longer sat after an assumption-unsat call"
          else `Ok
      | Ref_sat.Unsat -> `Ok)
  | _ -> `Ok

let sat =
  target "sat" ~gen:gen_sat_case ~check:(Fun.const check_sat_case)
    ~persist:(fun e ~fails case ->
      save_cnf e ~assumptions:case.assumptions
        (Shrink.run Shrink.cnf_candidates
           (fun cnf -> fails { case with cnf })
           case.cnf))

(* {2 Proof target} *)

type proof_case = {
  p_cnf : Dimacs.cnf;
  p_assumptions : Lit.t list;
  p_format : Proof.format;
}

let gen_proof_case rng =
  let p_cnf = Gen.cnf rng in
  let p_assumptions =
    if Rng.bool rng then Gen.assumptions rng ~num_vars:p_cnf.Dimacs.num_vars
    else []
  in
  let p_format = if Rng.bool rng then Proof.Text else Proof.Binary in
  { p_cnf; p_assumptions; p_format }

(* Under the drop-clause chaos hook the checker is fed every premise but
   the last — the same corruption {!Ref_sat} applies to its clause set.
   Derivations that depended on the missing clause are no longer RUP, so a
   correct checker rejects, which the harness counts as a discrepancy: the
   hook trips the proof target the same way it trips the sat target's
   corrupted reference. *)
let chaos_premises premises =
  match Sys.getenv_opt "SPECREPAIR_FUZZ_CHAOS" with
  | Some "drop-clause" -> (
      match List.rev premises with [] -> [] | _ :: rest -> List.rev rest)
  | _ -> premises

(* One proof-logged solve: the recorded steps must survive a round-trip
   through the on-disk format, and the checker must accept — a conflict
   derivation for Unsat results, plain RUP-ness of every logged step
   otherwise. *)
let check_proof_case { p_cnf = cnf; p_assumptions = assumptions; p_format } =
  let r = Proof.recorder () in
  let s = Solver.create () in
  Solver.set_proof s (Some (Proof.recorder_sink r));
  ignore (Solver.new_vars s cnf.Dimacs.num_vars);
  List.iter (Solver.add_clause s) cnf.Dimacs.clauses;
  let result = Solver.solve ~assumptions s in
  let steps = Proof.steps r in
  let ext = match p_format with Proof.Text -> ".drup" | Proof.Binary -> ".drat" in
  let path = Filename.temp_file "specrepair_fuzz_proof" ext in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      List.iter (Proof.write_step p_format oc) steps;
      close_out oc;
      let ic = open_in_bin path in
      let back =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> List.of_seq (Proof.read_steps p_format ic))
      in
      if
        not
          (List.length back = List.length steps
          && List.for_all2 Proof.step_equal back steps)
      then `Fail "proof steps changed across a file round-trip"
      else
        let premises = chaos_premises (Proof.inputs r) in
        match result with
        | Solver.Unsat -> (
            match Drat.check ~assumptions ~premises (List.to_seq steps) with
            | Ok () -> `Ok
            | Error m ->
                `Fail
                  (Printf.sprintf "checker rejected an UNSAT certificate: %s" m))
        | Solver.Sat | Solver.Unknown -> (
            (* nothing to refute, but every logged derivation must still
               be RUP over what precedes it *)
            match
              Drat.check ~require_conflict:false ~premises (List.to_seq steps)
            with
            | Ok () -> `Ok
            | Error m ->
                `Fail (Printf.sprintf "a logged derivation is not RUP: %s" m)))

let proof =
  target "proof" ~gen:gen_proof_case ~check:(Fun.const check_proof_case)
    ~persist:(fun e ~fails case ->
      save_cnf e ~assumptions:case.p_assumptions
        (Shrink.run Shrink.cnf_candidates
           (fun p_cnf -> fails { case with p_cnf })
           case.p_cnf))

(* {2 Parse target} *)

let gen_parse_case rng = (Gen.spec ~with_commands:true rng).Alloy.Typecheck.spec

(* Byte offset of a 1-based (line, col) position in [src]. *)
let byte_offset src line col =
  let rec bol off l =
    if l >= line then off
    else
      match String.index_from_opt src off '\n' with
      | Some j -> bol (j + 1) (l + 1)
      | None -> String.length src
  in
  min (String.length src) (bol 0 1 + col - 1)

(* Replace one randomly chosen token of [src] with ['%'] (a character no
   Alloy token contains), recording the corrupted span: the frontend must
   reject the result with a diagnostic pointing exactly there. *)
let corrupt_one_token rng src =
  let tokens = Alloy.Lexer.tokenize src in
  let n = Array.length tokens - 1 (* keep Teof intact *) in
  if n <= 0 then None
  else
    let _, (span : Alloy.Loc.span) = tokens.(Rng.int rng n) in
    let start = byte_offset src span.Alloy.Loc.start_line span.Alloy.Loc.start_col in
    let stop = byte_offset src span.Alloy.Loc.end_line span.Alloy.Loc.end_col in
    Some
      ( String.sub src 0 start ^ "%"
        ^ String.sub src stop (String.length src - stop),
        span )

(* One printer/parser round trip: the printed source must parse, parse ∘
   print must be a fixpoint from the first parse on, and the parsed spec
   must still type-check.  Under [SPECREPAIR_FUZZ_CHAOS=corrupt-token]
   one token of the printed source is additionally replaced with garbage,
   and the frontend must reject it with a positioned diagnostic at the
   corrupted token — unlike the other chaos hooks, a correct frontend
   makes the chaos campaign {e pass}, because rejection is the desired
   behaviour. *)
let check_parse_case rng spec0 =
  let printed = Alloy.Pretty.source spec0 in
  match Alloy.Parser.parse printed with
  | exception Alloy.Diagnostic.Error d ->
      `Fail
        (Printf.sprintf "printer emitted source the parser rejects: %s"
           (Alloy.Diagnostic.render ~source:printed d))
  | a1 -> (
      let printed1 = Alloy.Pretty.source a1 in
      match Alloy.Parser.parse printed1 with
      | exception Alloy.Diagnostic.Error d ->
          `Fail
            (Printf.sprintf "reprint of a parsed spec no longer parses: %s"
               (Alloy.Diagnostic.render ~source:printed1 d))
      | a2 -> (
          if not (Ast.equal_spec a1 a2) then
            `Fail "parse-print-parse is not a fixpoint"
          else
            match Alloy.Typecheck.check_result a1 with
            | Error m -> `Fail ("parsed spec no longer type-checks: " ^ m)
            | Ok _ -> (
                match Sys.getenv_opt "SPECREPAIR_FUZZ_CHAOS" with
                | Some "corrupt-token" -> (
                    match corrupt_one_token rng printed with
                    | None -> `Skip
                    | Some (bad, span) -> (
                        match Alloy.Parser.parse bad with
                        | _ -> `Fail "corrupted source parsed cleanly"
                        | exception Alloy.Diagnostic.Error d ->
                            let ds = d.Alloy.Diagnostic.span in
                            if Alloy.Loc.is_none ds then
                              `Fail "corrupted source rejected without a position"
                            else if
                              ds.Alloy.Loc.start_line = span.Alloy.Loc.start_line
                              && ds.Alloy.Loc.start_col = span.Alloy.Loc.start_col
                            then `Ok
                            else
                              `Fail
                                "rejection does not point at the corrupted token"))
                | _ -> `Ok)))

let parse =
  target "parse" ~gen:gen_parse_case ~check:check_parse_case
    ~persist:(fun e ~fails spec ->
      (* only shrinks that still type-check, so the persisted entry
         reproduces the round-trip failure and not a typing one *)
      save_spec e (shrink_spec (fun env -> fails env.Alloy.Typecheck.spec) spec))

(* {2 Model-finder target} *)

type solver_case = {
  s_env : Alloy.Typecheck.env;
  s_scope : Bounds.scope;
  s_goal : Ast.fmla;
}

let gen_solver_case rng =
  let s_env = Gen.spec rng in
  let s_scope = Gen.scope rng s_env in
  let s_goal = Gen.fmla rng s_env ~vars:[] ~depth:(Rng.range rng 1 3) in
  { s_env; s_scope; s_goal }

let check_solver_case { s_env = env; s_scope = scope; s_goal = goal } =
  match Ref_models.find env scope goal with
  | Ref_models.Too_big -> `Skip
  | reference -> (
      match (Analyzer.solve_fmla env scope goal, reference) with
      | Analyzer.Unknown, _ -> `Fail "analyzer unknown without a budget"
      | Analyzer.Sat inst, _ -> (
          let space = Space.create env scope in
          if not (Space.caps_hold space inst) then
            `Fail "analyzer instance violates the scope caps"
          else if not (Alloy.Eval.facts_hold env inst) then
            `Fail "analyzer instance violates facts per direct evaluation"
          else if not (Alloy.Eval.fmla env inst [] goal) then
            `Fail "analyzer instance falsifies the goal per direct evaluation"
          else
            match reference with
            | Ref_models.Found _ -> `Ok
            | Ref_models.No_instance ->
                `Fail "analyzer sat but exhaustive enumeration finds no instance"
            | Ref_models.Too_big -> assert false)
      | Analyzer.Unsat, Ref_models.Found _ ->
          `Fail "analyzer unsat but exhaustive enumeration found an instance"
      | Analyzer.Unsat, Ref_models.No_instance -> `Ok
      | Analyzer.Unsat, Ref_models.Too_big -> assert false)

(* [env]'s spec with [goal] as its one command: how a failing goal is
   persisted. *)
let spec_with_goal env (scope : Bounds.scope) goal =
  {
    env.Alloy.Typecheck.spec with
    Ast.commands =
      [
        {
          Ast.cmd_kind = Ast.Run_fmla goal;
          cmd_scope = scope.Bounds.default;
          cmd_scopes = scope.Bounds.overrides;
        };
      ];
  }

let solver =
  target "solver" ~gen:gen_solver_case ~check:(Fun.const check_solver_case)
    ~persist:(fun e ~fails case ->
      let fails_with s_env s_goal = fails { case with s_env; s_goal } in
      let goal =
        Shrink.run Shrink.fmla_candidates (fails_with case.s_env) case.s_goal
      in
      let env =
        shrink_spec (fun env -> fails_with env goal) case.s_env.spec
        |> Alloy.Typecheck.check_result
        |> Result.value ~default:case.s_env
      in
      save_spec e (spec_with_goal env case.s_scope goal))

(* {2 Oracle target} *)

type oracle_case = {
  o_base : Alloy.Typecheck.env;
  o_candidates : Alloy.Typecheck.env list;
}

let gen_oracle_case rng =
  let o_base = Gen.spec ~with_commands:true rng in
  let mutants = Mutate.all_mutations o_base o_base.spec () in
  let typed =
    List.filter_map (fun m ->
        match Mutate.apply o_base.spec m with
        | spec' -> (
            match Alloy.Typecheck.check_result spec' with
            | Ok env' -> Some env'
            | Error _ -> None)
        | exception _ -> None)
  in
  let o_candidates = typed (Rng.sample rng 5 mutants) in
  (* one case in four continues into a long stream, so the oracle outgrows
     some of its contexts and must retire them mid-stream *)
  let o_candidates =
    if Rng.int rng 4 = 0 then o_candidates @ typed (Rng.sample rng 40 mutants)
    else o_candidates
  in
  { o_base; o_candidates }

let check_oracle_stream oracle { o_base; o_candidates } =
  let rec over_envs first = function
    | [] -> `Ok
    | (env' : Alloy.Typecheck.env) :: rest ->
        let rec over_cmds = function
          | [] -> over_envs false rest
          | (c : Ast.command) :: cmds -> (
              let fresh = Analyzer.run_command env' c in
              let incremental = Oracle.command_verdict oracle env' c in
              if incremental <> Analyzer.outcome_verdict fresh then
                `Fail "oracle verdict differs from a fresh analyzer solve"
              else if Oracle.command_verdict oracle env' c <> incremental then
                `Fail "oracle verdict changed on a repeat query"
              else if first then
                (* instance-producing path: memoized fresh solves must be
                   bit-identical to the plain analyzer *)
                match (Oracle.run_command oracle env' c, fresh) with
                | Analyzer.Sat a, Analyzer.Sat b ->
                    if Alloy.Instance.equal a b then over_cmds cmds
                    else `Fail "oracle instance differs from the analyzer's"
                | Analyzer.Unsat, Analyzer.Unsat
                | Analyzer.Unknown, Analyzer.Unknown ->
                    over_cmds cmds
                | _ -> `Fail "oracle run_command tag differs from the analyzer's"
              else over_cmds cmds)
        in
        over_cmds env'.spec.commands
  in
  over_envs true (o_base :: o_candidates)

let check_oracle_case case =
  check_oracle_stream (Oracle.create case.o_base) case

(* The campaign's stream opens on a printed and re-parsed copy of the base:
   the same bytes from nodes no key memo has seen.  The copy is keyed cold
   and checked against fresh solves like any candidate; when it prints as
   the base does, the base's own verdict queries must then all be cache
   hits, whatever the memo holds. *)
let check_reparsed_then_stream oracle case =
  let printed = Alloy.Pretty.spec_to_string case.o_base.spec in
  match Alloy.Typecheck.check_result (Alloy.Parser.parse printed) with
  | exception Alloy.Diagnostic.Error _ | Error _ ->
      `Fail "the base does not survive printing and re-parsing"
  | Ok copy -> (
      match check_oracle_stream oracle { o_base = copy; o_candidates = [] } with
      | `Ok ->
          let solved () =
            let s = Oracle.stats oracle in
            Counters.(find s "verdict_misses" + find s "fallback_queries")
          in
          let before = solved () in
          List.iter
            (fun c -> ignore (Oracle.command_verdict oracle case.o_base c))
            case.o_base.spec.commands;
          if Alloy.Pretty.spec_to_string copy.spec = printed && solved () > before
          then `Fail "a re-parsed copy of the base keyed apart from the base"
          else check_oracle_stream oracle case
      | failed -> failed)

(* A single base/candidate pair, used by the shrinker and by corpus replay
   (where the candidate is its own base). *)
let check_oracle_pair base cand =
  check_oracle_case { o_base = base; o_candidates = [ cand ] }

(* Every verdict the oracle gives, those its stored witnesses and cores
   answer included, is compared with a fresh analyzer solve; the summary
   counts the answers each store gave.  Two chaos hooks in {!Oracle} make
   those answers wrong on purpose, and the campaign must report
   discrepancies under each: [SPECREPAIR_FUZZ_CHAOS=corrupt-witness]
   answers from a witness without checking the goal, and [drop-core-key]
   stores each core less one key. *)
let oracle =
  target "oracle"
    ~gen:(fun rng ->
      let case = gen_oracle_case rng in
      (case, Oracle.create case.o_base))
    ~check:(fun _ (case, oracle) -> check_reparsed_then_stream oracle case)
    ~counts:
      ( (fun (_, oracle) -> Oracle.stats oracle),
        [
          ("contexts_retired", "contexts_retired");
          ("keys_reused", "keys_reused");
          ("witness_hits", "witness_hits");
          ("core_hits", "core_hits");
        ] )
    ~persist:(fun e ~fails:_ (case, _) ->
      (* find a single failing base/candidate pair, then shrink the
         candidate while the pair keeps failing *)
      let pair_fails cand =
        guard (fun () -> check_oracle_pair case.o_base cand) <> `Ok
      in
      save_spec e
        (match List.find_opt pair_fails (case.o_base :: case.o_candidates) with
        | None ->
            (* only reproducible with the full interleaving; persist the
               base unshrunk *)
            case.o_base.spec
        | Some cand -> shrink_spec pair_fails cand.spec))

(* {2 Eval target} *)

type eval_case = {
  e_env : Alloy.Typecheck.env;
  e_scope : Bounds.scope;
  e_inst : Alloy.Instance.t;
  e_goal : Ast.fmla;
}

let gen_eval_case rng =
  let e_env = Gen.spec rng in
  (* no child caps: facts_hold knows nothing about scope caps, and the
     facts-conjunction comparison below must match it exactly *)
  let e_scope = Gen.scope ~child_caps:false rng e_env in
  let solver = Solver.create () in
  let bounds = Bounds.create solver e_env e_scope in
  let e_inst = Gen.instance rng bounds in
  let e_goal = Gen.fmla rng e_env ~vars:[] ~depth:(Rng.range rng 1 3) in
  { e_env; e_scope; e_inst; e_goal }

(* Satisfiability of [fmla_of bounds] with every primary variable pinned to
   the instance's membership: decides the translation's truth value on one
   concrete model. *)
let pinned_sat env scope (inst : Alloy.Instance.t) fmla_of =
  let s = Solver.create () in
  let bounds = Bounds.create s env scope in
  List.iter
    (fun (sg : Ast.sig_decl) ->
      let atoms = List.assoc sg.Ast.sig_name inst.Alloy.Instance.sigs in
      List.iter
        (fun ((t : Alloy.Instance.Tuple.t), v) ->
          Solver.add_clause s [ Lit.make v (List.mem t.(0) atoms) ])
        (Hashtbl.find bounds.Bounds.rel_vars sg.Ast.sig_name))
    env.Alloy.Typecheck.spec.sigs;
  List.iter
    (fun (sg : Ast.sig_decl) ->
      List.iter
        (fun (f : Ast.field) ->
          let tuples = List.assoc f.Ast.fld_name inst.Alloy.Instance.fields in
          List.iter
            (fun (t, v) ->
              Solver.add_clause s
                [ Lit.make v (Alloy.Instance.Tuple_set.mem t tuples) ])
            (Hashtbl.find bounds.Bounds.rel_vars f.Ast.fld_name))
        sg.Ast.sig_fields)
    env.Alloy.Typecheck.spec.sigs;
  let ts = Tseitin.create s in
  Tseitin.assert_formula ts (fmla_of bounds);
  match Solver.solve s with
  | Solver.Sat -> true
  | Solver.Unsat -> false
  | Solver.Unknown -> false

(* Up to [eval_mutants] well-typed single-site mutants of [env], spread
   evenly over its mutation space. *)
let eval_mutants = 8

let single_site_mutants (env : Alloy.Typecheck.env) =
  let ms = Array.of_list (Mutate.all_mutations env env.spec ()) in
  let step = max 1 (Array.length ms / eval_mutants) in
  List.init (min eval_mutants (Array.length ms)) (fun i -> ms.(i * step))
  |> List.filter_map (fun m ->
         match Alloy.Typecheck.check_result (Mutate.apply env.spec m) with
         | Ok env' -> Some env'
         | Error _ | (exception _) -> None)

(* The base, its mutants and the base again, all on one memo of [inst]:
   every answer must be the direct [facts_hold] one, errors included. *)
let check_memo env inst =
  let outcome f =
    match f () with v -> Ok v | exception Alloy.Eval.Eval_error msg -> Error msg
  in
  let memo = Alloy.Eval.memo inst in
  let envs = (env :: single_site_mutants env) @ [ env ] in
  if
    List.for_all
      (fun env' ->
        outcome (fun () -> Alloy.Eval.facts_hold_memo env' memo)
        = outcome (fun () -> Alloy.Eval.facts_hold env' inst))
      envs
  then `Ok
  else `Fail "memoized facts_hold disagrees with direct evaluation on a mutant"

let check_eval_case { e_env = env; e_scope = scope; e_inst = inst; e_goal = goal } =
  let eval_goal = Alloy.Eval.fmla env inst [] goal in
  let sat_goal =
    pinned_sat env scope inst (fun bounds -> Translate.fmla bounds [] goal)
  in
  if eval_goal <> sat_goal then
    `Fail "pinned translation disagrees with direct evaluation on the goal"
  else
    let eval_facts = Alloy.Eval.facts_hold env inst in
    let sat_facts = pinned_sat env scope inst Translate.spec_fmla in
    if eval_facts <> sat_facts then
      `Fail "pinned translation disagrees with facts_hold on facts+implicit"
    else check_memo env inst

let eval =
  target "eval" ~gen:gen_eval_case ~check:(Fun.const check_eval_case)
    ~persist:(fun e ~fails case ->
      let goal =
        Shrink.run Shrink.fmla_candidates
          (fun e_goal -> fails { case with e_goal })
          case.e_goal
      in
      save_spec e (spec_with_goal case.e_env case.e_scope goal))

(* {2 Stream target} *)

module Corpus_stream = Specrepair_eval.Corpus_stream

(* The streaming corpus producer's contract: the rows of a seed range are
   a pure function of (source, seed, index), so any split of the range
   into sub-ranges must reproduce exactly the unsplit rows — this is what
   makes checkpoint/resume sound (a resumed run's chunk boundaries never
   match the crashed run's). *)
type stream_case = {
  w_source : Corpus_stream.source;
  w_seed : int;
  w_lo : int;
  w_hi : int;
  w_splits : int list;  (** interior cut points, strictly inside (lo, hi) *)
}

let gen_stream_case rng =
  (* mostly the generator-priced fuzzed source; one in eight exercises
     the real injected corpus (epoch wrap included) on a tiny range *)
  let w_source, w_lo, len =
    if Rng.int rng 8 = 0 then
      let natural = Corpus_stream.natural_total () in
      (* a range that may straddle the epoch boundary *)
      (Corpus_stream.Injected, Rng.int rng (natural + 2), Rng.range rng 1 3)
    else (Stream_source.fuzzed, Rng.int rng 10_000, Rng.range rng 4 24)
  in
  let w_hi = w_lo + len in
  let splits =
    if len < 2 then []
    else
      List.sort_uniq compare
        (List.init (Rng.int rng 4) (fun _ -> Rng.range rng (w_lo + 1) (w_hi - 1)))
  in
  { w_source; w_seed = Rng.int rng 1_000_000; w_lo; w_hi; w_splits = splits }

(* A row's identity: index, variant id, and a digest of the faulty spec
   (the payload a study would evaluate). *)
let stream_rows ~source ~seed lo hi =
  List.init (hi - lo) (fun k ->
      let i = lo + k in
      let v = Corpus_stream.variant ~source ~seed i in
      Printf.sprintf "%d|%s|%s" i v.Specrepair_benchmarks.Generate.id
        (Digest.to_hex
           (Digest.string
              (Alloy.Pretty.spec_to_string
                 v.Specrepair_benchmarks.Generate.injected
                   .Specrepair_benchmarks.Fault.faulty))))

let check_stream_case c =
  let whole = stream_rows ~source:c.w_source ~seed:c.w_seed c.w_lo c.w_hi in
  let bounds = (c.w_lo :: c.w_splits) @ [ c.w_hi ] in
  let rec segments = function
    | a :: (b :: _ as rest) ->
        stream_rows ~source:c.w_source ~seed:c.w_seed a b @ segments rest
    | _ -> []
  in
  let parts = segments bounds in
  if parts <> whole then
    `Fail
      (Printf.sprintf "split at [%s] yields different rows than the unsplit range"
         (String.concat ";" (List.map string_of_int c.w_splits)))
  else if stream_rows ~source:c.w_source ~seed:c.w_seed c.w_lo c.w_hi <> whole
  then `Fail "the same range streamed twice differs (nondeterministic producer)"
  else `Ok

let stream =
  target "stream" ~gen:gen_stream_case ~check:(Fun.const check_stream_case)
    ~persist:(fun e ~fails:_ case ->
      (* range splits have no shrink lattice; persist the first row's
         faulty spec so the producer bug is replayable *)
      let v =
        Corpus_stream.variant ~source:case.w_source ~seed:case.w_seed case.w_lo
      in
      save_spec e
        v.Specrepair_benchmarks.Generate.injected
          .Specrepair_benchmarks.Fault.faulty)

(* {2 Panel target} *)

module Llm = Specrepair_llm
module Learned = Specrepair_eval.Learned

(* [Space] is this library's reference instance space *)
module Mutation_space = Specrepair_mutation.Space

(* Fuzzed tasks through every profile of the model panel: each sampled
   proposal must be well-typed, must differ from the faulty spec, and must
   respect the guidance blocklist (grown with each accepted proposal so
   the blocklist property is exercised, not vacuous).  Each profile's
   rounds run twice: with a fresh mutation-space store per proposal (as
   [propose] does), and through one store shared by every profile of the
   case, about the fuzzed spec and a re-parsed copy of it in turn, each
   time after the store has taken in the profile's first fresh proposal.
   The two runs must propose the same specs and leave the generator in
   the same state. *)
let read_all path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_all path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Under [SPECREPAIR_FUZZ_CHAOS=corrupt-stats] the target feeds the
   learned portfolio a tampered statistics file: a pristine save must
   round-trip, and any of three corruptions (an appended row, flipped
   digits, truncation) must be rejected loudly with [Corrupt_stats] — a
   damaged stats file silently reordering the portfolio would be the real
   bug, so failure to reject counts as a discrepancy. *)
let check_corrupt_stats rng =
  let stats = Learned.empty () in
  Learned.observe stats ~defect_class:"binop-swap" ~technique:"ATR"
    ~repaired:true ~time_ms:12.5;
  Learned.observe stats ~defect_class:"compound"
    ~technique:"Multi-Round_Auto" ~repaired:false ~time_ms:41.25;
  let path = Filename.temp_file "specrepair_fuzz_stats" ".stats" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Learned.save stats path;
      match Learned.load path with
      | exception Learned.Corrupt_stats m ->
          `Fail ("pristine statistics file rejected: " ^ m)
      | loaded ->
          if Learned.cells loaded <> Learned.cells stats then
            `Fail "statistics changed across a save/load round-trip"
          else begin
            let src = read_all path in
            let tampered =
              match Rng.int rng 3 with
              | 0 -> src ^ "graphs|BeAFix|3|1|9.0\n"
              | 1 -> String.map (function '1' -> '2' | c -> c) src
              | _ -> String.sub src 0 (String.length src - 3)
            in
            write_all path tampered;
            match Learned.load path with
            | exception Learned.Corrupt_stats _ -> `Ok
            | _ -> `Fail "tampered statistics file loaded cleanly"
          end)

let check_panel_case ~spaces rng (env : Alloy.Typecheck.env) =
  match Sys.getenv_opt "SPECREPAIR_FUZZ_CHAOS" with
  | Some "corrupt-stats" -> check_corrupt_stats rng
  | _ ->
      let task_of faulty =
        Llm.Task.make ~spec_id:"fuzz-panel" ~domain:"fuzz" ~faulty ()
      in
      let spec = env.Alloy.Typecheck.spec in
      let task = task_of spec in
      (* an LLM-written base reaches the store as re-parsed response text;
         a spec the printer does not round-trip stands in for itself *)
      let copy =
        match Alloy.Parser.parse (Alloy.Pretty.spec_to_string spec) with
        | s when Ast.equal_spec s spec -> task_of s
        | _ | (exception _) -> task
      in
      (* the verdict and the accepted proposals, in order *)
      let rec rounds name draw blocked k =
        let stop verdict = (verdict, List.rev blocked) in
        if k = 0 then stop (Ok ())
        else
          let guidance = { Llm.Model.no_guidance with Llm.Model.blocked } in
          match draw guidance with
          | None -> stop (Ok ()) (* giving up is allowed *)
          | Some prop ->
              if Ast.equal_spec prop spec then
                stop (Error (name ^ ": proposal equals the faulty spec"))
              else if List.exists (Ast.equal_spec prop) blocked then
                stop (Error (name ^ ": proposal violates the blocklist"))
              else (
                match Alloy.Typecheck.check_result prop with
                | Error m -> stop (Error (name ^ ": ill-typed proposal: " ^ m))
                | Ok _ -> rounds name draw (prop :: blocked) (k - 1))
      in
      let check_profile i (p : Llm.Model.profile) =
        let name = p.Llm.Model.name in
        (* the fuzz harness and the model each have their own splitmix
           stream type; bridge with a seed drawn from the campaign rng *)
        let seed = Rng.int rng 1_000_000 in
        let fresh_rng = Llm.Rng.of_context ~seed [ "panel"; name ]
        and shared_rng = Llm.Rng.of_context ~seed [ "panel"; name ] in
        let verdict, fresh =
          rounds name
            (fun guidance ->
              Llm.Model.propose p ~rng:fresh_rng ~hints:[] guidance task)
            [] 3
        in
        (* a decoy entry, newer than the spec's: the store must compare
           specs rather than answer with whatever it built last *)
        Option.iter
          (fun decoy -> ignore (Mutation_space.find spaces decoy))
          (List.nth_opt fresh 0);
        let task' = if i mod 2 = 0 then task else copy in
        let _, shared =
          rounds name
            (fun guidance ->
              Llm.Model.proposer ~spaces p ~hints:[] guidance task' shared_rng)
            [] 3
        in
        match verdict with
        | Error _ -> verdict
        | Ok () ->
            if not (List.equal Ast.equal_spec fresh shared) then
              Error (name ^ ": a shared space store changed the proposals")
            else if
              Llm.Rng.next_int64 fresh_rng <> Llm.Rng.next_int64 shared_rng
            then Error (name ^ ": a shared space store moved the generator")
            else Ok ()
      in
      let rec over i = function
        | [] -> `Ok
        | p :: rest -> (
            match check_profile i p with
            | Ok () -> over (i + 1) rest
            | Error m -> `Fail m)
      in
      over 0 Llm.Model.panel

let panel =
  target "panel"
    ~gen:(fun rng ->
      let env = Gen.spec ~with_commands:true rng in
      (env, Mutation_space.create_store ()))
    ~check:(fun rng (env, spaces) -> check_panel_case ~spaces rng env)
    ~counts:
      ( (fun (_, spaces) -> Mutation_space.stats spaces),
        [ ("spaces_reused", "reused") ] )
    ~persist:(fun e ~fails:_ ((env : Alloy.Typecheck.env), _) ->
      let fails env' =
        guard (fun () ->
            check_panel_case
              ~spaces:(Mutation_space.create_store ())
              (Rng.of_context ~seed:e.seed [ "panel-shrink"; e.name ])
              env')
        <> `Ok
      in
      save_spec e (shrink_spec fails env.spec))

(* {2 Replies target} *)

module Handler = Specrepair_serve.Handler
module Replies = Specrepair_serve.Replies

(* The daemon's reply memo vs. recomputation: one request sequence goes
   through a memo and a handler composed in the daemon's order
   ([Replies.local]), which answers repeats from the memo, and through a
   composition whose memo stores nothing, and every reply must be
   byte-identical.  Registries of one or two entries over two or three
   specs make evictions (and with them memo drops) happen mid-sequence.
   No request carries a deadline: the clock decides [timed_out]. *)
type replies_case = {
  r_variants : Ast.spec list;
  r_max_sessions : int;
  r_requests : (int * string * int * string) list;
      (** variant index, tool, seed, file *)
  r_reused : Counters.t;  (** memo hits, read by the summary *)
}

let replies_schema = Counters.schema "replies"
let replies_reused = Counters.counter replies_schema "reused"

let gen_replies_case rng =
  let seed = Rng.int rng 1_000_000 in
  let n = Rng.range rng 2 3 in
  let r_variants =
    List.init n (fun i ->
        (Corpus_stream.variant ~source:Stream_source.fuzzed ~seed i)
          .Specrepair_benchmarks.Generate.injected
          .Specrepair_benchmarks.Fault.faulty)
  in
  let tools = List.map fst Specrepair_eval.Portfolio.tools in
  (* half the requests repeat an earlier one, so the memo gets hits *)
  let rec draw acc k =
    if k = 0 then List.rev acc
    else
      let r =
        if acc <> [] && Rng.bool rng then Rng.choose rng acc
        else
          ( Rng.int rng n,
            Rng.choose rng tools,
            Rng.range rng 1 2,
            Rng.choose rng [ "a.als"; "b.als" ] )
      in
      draw (r :: acc) (k - 1)
  in
  let r_requests = draw [] (Rng.range rng 4 12) in
  {
    r_variants;
    r_max_sessions = Rng.range rng 1 2;
    r_requests;
    r_reused = Counters.create replies_schema;
  }

let repair_line ~id (source, tool, seed, file) =
  Specrepair_json.(
    to_string
      (Obj
         [
           ("id", Str id);
           ("method", Str "repair");
           ( "params",
             Obj
               [
                 ("source", Str source);
                 ("tool", Str tool);
                 ("seed", int seed);
                 ("file", Str file);
               ] );
         ]))

let check_replies_case c =
  let front no_cache =
    Replies.local
      (Replies.create ~no_cache ~slots:1)
      (Handler.create ~max_sessions:c.r_max_sessions ())
  in
  let memo = front false and bypass = front true in
  let sources = List.map Alloy.Pretty.source c.r_variants in
  let rec go k = function
    | [] -> `Ok
    | (v, tool, seed, file) :: rest ->
        let line =
          repair_line ~id:(Printf.sprintf "r%d" k)
            (List.nth sources v, tool, seed, file)
        in
        let reply, answer = memo line in
        if answer = Replies.Memo then Counters.incr c.r_reused replies_reused;
        let recomputed, _ = bypass line in
        if reply <> recomputed then
          `Fail
            (Printf.sprintf
               "request %d (%s, seed %d, %s) on variant %d: the memo replied %s, \
                recomputing gave %s"
               k tool seed file v reply recomputed)
        else go (k + 1) rest
  in
  go 0 c.r_requests

let replies =
  target "replies" ~gen:gen_replies_case ~check:(Fun.const check_replies_case)
    ~counts:((fun c -> c.r_reused), [ ("replies_reused", "reused") ])
    ~persist:(fun e ~fails case ->
      (* keep the shortest prefix of the sequence that still diverges, and
         persist the spec its last request repaired *)
      let prefix k = { case with r_requests = take k case.r_requests } in
      let rec shortest k =
        if k >= List.length case.r_requests || fails (prefix k) then k
        else shortest (k + 1)
      in
      let k = shortest 1 in
      let v, _, _, _ = List.nth case.r_requests (k - 1) in
      save_spec e (List.nth case.r_variants v))

(* {2 Campaign driver} *)

let all_targets =
  [ sat; solver; oracle; eval; proof; parse; stream; panel; replies ]

type report = {
  target : string;
  seed : int;
  iters : int;
  checks : int;
  skipped : int;
  discrepancies : int;
  corpus : string list;
  counts : (string * int) list;
}

let run ?(corpus_dir = "artifacts/fuzz") t ~seed ~iters () =
  let checks = ref 0 and skipped = ref 0 and corpus = ref [] in
  let counts = Array.make (List.length t.counters) 0 in
  for i = 0 to iters - 1 do
    let rng = Rng.of_context ~seed [ t.name; "iter"; string_of_int i ] in
    let name = Printf.sprintf "%s-s%d-i%04d" t.name seed i in
    let it = t.iterate { dir = corpus_dir; seed; name } rng in
    List.iteri (fun k n -> counts.(k) <- counts.(k) + n) it.tallies;
    match it.outcome with
    | `Skip -> incr skipped
    | `Ok -> incr checks
    | `Fail _ ->
        incr checks;
        corpus := it.persist () :: !corpus
  done;
  {
    target = t.name;
    seed;
    iters;
    checks = !checks;
    skipped = !skipped;
    discrepancies = List.length !corpus;
    corpus = List.rev !corpus;
    counts = List.combine t.counters (Array.to_list counts);
  }

(* {2 JSON summaries} *)

module Json = Specrepair_json

let report_value r =
  Json.Obj
    ([
       ("target", Json.Str r.target);
       ("seed", Json.int r.seed);
       ("iters", Json.int r.iters);
       ("checks", Json.int r.checks);
       ("skipped", Json.int r.skipped);
       ("discrepancies", Json.int r.discrepancies);
     ]
    @ List.map (fun (name, n) -> (name, Json.int n)) r.counts
    @ [ ("corpus", Json.List (List.map (fun p -> Json.Str p) r.corpus)) ])

let report_json r = Json.to_string (report_value r)

let summary_json ~corpus_dir ~seed reports =
  let total = List.fold_left (fun n r -> n + r.discrepancies) 0 reports in
  Json.to_string
    (Json.Obj
       [
         ( "fuzz",
           Json.Obj
             [
               ("seed", Json.int seed);
               ("corpus_dir", Json.Str corpus_dir);
               ("targets", Json.List (List.map report_value reports));
               ("total_discrepancies", Json.int total);
             ] );
       ])

(* {2 Corpus replay} *)

let replay path =
  if Filename.check_suffix path ".cnf" then
    match Corpus.load_cnf path with
    | exception e -> `Fail (Printexc.to_string e)
    | cnf, assumptions ->
        let* () =
          guard (fun () ->
              check_sat_case { cnf; assumptions; budget = None; split = None })
        in
        guard (fun () ->
            check_proof_case
              {
                p_cnf = cnf;
                p_assumptions = assumptions;
                p_format = Proof.Text;
              })
  else if Filename.check_suffix path ".als" then
    match Corpus.load_spec path with
    | exception e -> `Fail (Printexc.to_string e)
    | env ->
        (* every spec entry also round-trips through the frontend *)
        let* () =
          guard (fun () ->
              check_parse_case
                (Rng.of_context ~seed:0 [ "replay"; path ])
                env.Alloy.Typecheck.spec)
        in
        List.fold_left
          (fun acc (c : Ast.command) ->
            let* () = acc in
            let* () = guard (fun () -> check_oracle_pair env env) in
            match c.Ast.cmd_kind with
            | Ast.Run_fmla f ->
                let s_scope = Bounds.scope_of_command c in
                guard (fun () ->
                    check_solver_case { s_env = env; s_scope; s_goal = f })
            | Ast.Run_pred _ | Ast.Check _ -> `Ok)
          `Ok env.Alloy.Typecheck.spec.commands
  else `Fail (Printf.sprintf "unknown corpus entry kind: %s" path)

let replay_dir dir =
  List.map
    (fun path ->
      (path, match replay path with `Fail m -> Error m | `Ok | `Skip -> Ok ()))
    (Corpus.files dir)
