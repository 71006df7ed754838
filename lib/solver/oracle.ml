open Specrepair_sat
module Alloy = Specrepair_alloy
module Ast = Alloy.Ast

type verdict = Analyzer.verdict

module Counters = Specrepair_json.Counters

(* {2 Counters}

   The oracle's own work, printed as a telemetry line's [oracle] object. *)
let schema = Counters.schema "oracle"
let counter = Counters.counter schema

(* verdicts served from the structural cache, and incremental assumption
   solves performed *)
let verdict_hits = counter "verdict_hits"
let verdict_misses = counter "verdict_misses"

(* instance lists served from the cache, and fresh enumeration solves *)
let instance_hits = counter "instance_hits"
let instance_misses = counter "instance_misses"

(* sig-incompatible candidates, fresh-solved *)
let fallback_queries = counter "fallback_queries"

(* guarded translations performed, and activation literals served from
   their memo *)
let formulas_translated = counter "formulas_translated"
let formulas_reused = counter "formulas_reused"

(* live solving contexts, at most one per distinct scope *)
let contexts = Counters.gauge schema "contexts"

(* contexts dropped for outgrowing their queries *)
let contexts_retired = counter "contexts_retired"

(* UNSAT verdicts the proof checker accepted, and those it could not
   certify *)
let certified = counter "certified"
let certificate_failures = counter "certificate_failures"

(* compound circuit nodes clausified in verdict contexts, live or retired
   ({!Tseitin.definitions}), and of those the nodes served by a
   structurally equal definition the context already held *)
let definitions = counter "definitions"
let definitions_shared = counter "definitions_shared"

(* declaration digests computed for cache keys (printed and hashed), and
   those served from the key memo by physical identity *)
let keys_digested = counter "keys_digested"
let keys_reused = counter "keys_reused"

(* The SAT work under the oracle, printed as the [sat] object: the search
   counters of its verdict contexts' solvers. *)
let sat_schema = Counters.schema "sat"
let sat_counter = Counters.counter sat_schema
let conflicts = sat_counter "conflicts"
let decisions = sat_counter "decisions"
let propagations = sat_counter "propagations"
let restarts = sat_counter "restarts"
let reductions = sat_counter "reductions"

(* The certification state of one long-lived context: an independent DRUP
   checker mirroring the solver's clause stream step by step.  A failed
   step is latched — once the stream has a gap, no later UNSAT from this
   context can be trusted. *)
type cert = { checker : Drat.t; mutable cert_error : string option }

(* One shared solver per command scope: base bounds, Tseitin state, and the
   activation-literal memo for every formula guarded in it since it was
   built.  Each memo entry carries the variables its translation added, and
   [base_vars] counts those of the bounds and implicit constraints, so a
   query can tell how much of the context it actually uses. *)
type context = {
  solver : Solver.t;
  bounds : Bounds.t;
  ts : Tseitin.t;
  acts : (string, Lit.t * int) Hashtbl.t;
  base_vars : int;
  cert : cert option;
}

(* A declaration whose digest the key memo holds, matched by physical
   identity.  [Fmla] is a formula printed on its own (a fact body or a
   [run {...}] goal); [Pred_goal] and [Assert_goal] stand for the goal a
   run or check command builds from the declaration. *)
type node =
  | Sigs of Ast.sig_decl list
  | Fact of Ast.fact_decl
  | Fun of Ast.fun_decl
  | Pred of Ast.pred_decl
  | Assert of Ast.assert_decl
  | Command of Ast.command
  | Fmla of Ast.fmla
  | Pred_goal of Ast.pred_decl
  | Assert_goal of Ast.assert_decl

(* Nodes are immutable, so a physically equal node prints the same bytes.
   The structural hash only picks the bucket. *)
module Memo = Hashtbl.Make (struct
  type t = node

  let equal a b =
    match (a, b) with
    | Sigs x, Sigs y -> x == y
    | Fact x, Fact y -> x == y
    | Fun x, Fun y -> x == y
    | Pred x, Pred y -> x == y
    | Assert x, Assert y -> x == y
    | Command x, Command y -> x == y
    | Fmla x, Fmla y -> x == y
    | Pred_goal x, Pred_goal y -> x == y
    | Assert_goal x, Assert_goal y -> x == y
    | _ -> false

  let hash = Hashtbl.hash
end)

(* The key builder: declaration digests by node, the buffer and formatter
   memo misses are printed with, and the last spec keyed. *)
type keys = {
  memo : string Memo.t;
  buf : Buffer.t;
  ppf : Format.formatter;
  mutable last : (Ast.spec * string) option;
}

type t = {
  base : Alloy.Typecheck.env;
  certify : bool;
  contexts : (string, context) Hashtbl.t;
  verdicts : (string, verdict) Hashtbl.t;
  outcomes : (string, Analyzer.outcome) Hashtbl.t;
  instances : (string, Alloy.Instance.t list) Hashtbl.t;
  keys : keys;
  counts : Counters.t;
      (* of the oracle schema; [definitions] and [definitions_shared]
         of retired contexts only *)
  spent : Counters.t;
      (* of the sat schema: retired contexts' solvers (live ones are read
         in {!snapshot}) *)
}

let create ?(certify = false) base =
  {
    base;
    certify;
    contexts = Hashtbl.create 4;
    verdicts = Hashtbl.create 512;
    outcomes = Hashtbl.create 64;
    instances = Hashtbl.create 64;
    keys =
      (let buf = Buffer.create 4096 in
       {
         memo = Memo.create 256;
         buf;
         ppf = Format.formatter_of_buffer buf;
         last = None;
       });
    counts = Counters.create schema;
    spent = Counters.create sat_schema;
  }

let bump t key = Counters.incr t.counts key

let note_certified t ok =
  bump t (if ok then certified else certificate_failures)

let compatible t (env : Alloy.Typecheck.env) =
  let base = t.base.Alloy.Typecheck.spec.sigs in
  env.spec.sigs == base || env.spec.sigs = base

(* {2 Digest keys}

   All caches are structural: two specs share a key exactly when they
   pretty-print to the same bytes, so physically distinct but
   syntactically equal candidates (the norm for generate-and-validate
   repair) deduplicate.  A key is built from per-declaration MD5 digests,
   which the memo keeps by node: a mutation candidate shares every
   declaration but the edited one with its base ([Location.with_body]),
   so its key costs one lookup per unchanged declaration and one print of
   the changed one.

   Equal keys mean equal prints: the spec key fixes the module name, the
   count of each section and every declaration's printed bytes, and those
   put together are the printed spec.  Equal prints mean equal keys: every
   printed declaration starts with its keyword at the start of a line and
   has no other unindented keyword line, so a printed spec splits into its
   declarations in exactly one way. *)

let scope_key (scope : Bounds.scope) =
  let overrides =
    List.sort compare scope.overrides
    |> List.map (fun (n, k) -> Printf.sprintf "%s=%d" n k)
  in
  Printf.sprintf "%d|%s" scope.default (String.concat "," overrides)

let memo_bound = 1024

(* The goal of [run p]: the body, existentially closed over the
   parameters. *)
let pred_goal (p : Ast.pred_decl) =
  match p.pred_params with
  | [] -> p.pred_body
  | params -> Ast.Quant (Ast.Qsome, params, p.pred_body)

let print_node ppf = function
  | Sigs sigs -> List.iter (Alloy.Pretty.pp_sig ppf) sigs
  | Fact f -> Alloy.Pretty.pp_fact ppf f
  | Fun f -> Alloy.Pretty.pp_fun ppf f
  | Pred p -> Alloy.Pretty.pp_pred ppf p
  | Assert a -> Alloy.Pretty.pp_assert ppf a
  | Command c -> Alloy.Pretty.pp_command ppf c
  | Fmla f -> Alloy.Pretty.pp_fmla ppf f
  | Pred_goal p -> Alloy.Pretty.pp_fmla ppf (pred_goal p)
  | Assert_goal a -> Alloy.Pretty.pp_fmla ppf (Ast.Not a.assert_body)

(* The digests of [nodes], in order.  Memo misses are printed one after
   another into the oracle's buffer, flushed after each so the buffer
   holds each one's exact bytes, and hashed slice by slice from one copy
   of it: a spec no memo entry knows costs one print, as a whole-spec
   digest would. *)
let digests t nodes =
  let k = t.keys in
  Buffer.clear k.buf;
  let looked =
    List.map
      (fun n ->
        match Memo.find_opt k.memo n with
        | Some d ->
            bump t keys_reused;
            Either.Left d
        | None ->
            let off = Buffer.length k.buf in
            print_node k.ppf n;
            Format.pp_print_flush k.ppf ();
            Either.Right (n, off, Buffer.length k.buf - off))
      nodes
  in
  let text = lazy (Buffer.contents k.buf) in
  List.map
    (function
      | Either.Left d -> d
      | Either.Right (n, off, len) ->
          let d = Digest.substring (Lazy.force text) off len in
          if Memo.length k.memo >= memo_bound then Memo.clear k.memo;
          Memo.replace k.memo n d;
          bump t keys_digested;
          d)
    looked

let digest t node = List.hd (digests t [ node ])

let spec_key t (spec : Ast.spec) =
  match t.keys.last with
  | Some (s, key) when s == spec -> key
  | _ ->
      let header =
        Printf.sprintf "%s|%d|%d|%d|%d|%d|"
          (match spec.module_name with Some n -> "module " ^ n | None -> "-")
          (List.length spec.facts) (List.length spec.funs)
          (List.length spec.preds) (List.length spec.asserts)
          (List.length spec.commands)
      in
      let nodes =
        (Sigs spec.sigs :: List.map (fun f -> Fact f) spec.facts)
        @ List.map (fun f -> Fun f) spec.funs
        @ List.map (fun p -> Pred p) spec.preds
        @ List.map (fun a -> Assert a) spec.asserts
        @ List.map (fun c -> Command c) spec.commands
      in
      let key = Digest.string (String.concat "" (header :: digests t nodes)) in
      t.keys.last <- Some (spec, key);
      key

(* Translation of a formula additionally depends on the candidate's
   predicate and function declarations (calls are inlined, function
   applications are grounded), so activation memo keys carry a digest of
   those declarations. *)
let decls_key t (spec : Ast.spec) =
  let nodes =
    List.map (fun f -> Fun f) spec.funs @ List.map (fun p -> Pred p) spec.preds
  in
  Digest.string
    (String.concat ""
       (string_of_int (List.length spec.funs) :: "|" :: digests t nodes))

let command_key t (c : Ast.command) =
  let kind =
    match c.cmd_kind with
    | Ast.Run_pred n -> "run-pred:" ^ n
    | Ast.Check n -> "check:" ^ n
    | Ast.Run_fmla f -> "run-fmla:" ^ digest t (Fmla f)
  in
  Printf.sprintf "%s@%s" kind (scope_key (Bounds.scope_of_command c))

let budget_key = function None -> "-" | Some b -> string_of_int b

let verdict_cache_key ?max_conflicts t env c =
  Printf.sprintf "%s|%s|%s"
    (spec_key t env.Alloy.Typecheck.spec)
    (command_key t c) (budget_key max_conflicts)

(* {2 Contexts and activation literals} *)

let context_for t key scope =
  match Hashtbl.find_opt t.contexts key with
  | Some ctx -> ctx
  | None ->
      let solver = Solver.create () in
      let cert =
        if not t.certify then None
        else begin
          (* mirror the solver's stream into an incremental checker; the
             sink must be installed before [Bounds.create], which asserts
             clauses at construction time *)
          let cert = { checker = Drat.create (); cert_error = None } in
          Solver.set_proof solver
            (Some
               (function
               | Proof.Input c -> Drat.add_premise cert.checker c
               | Proof.Step step -> (
                   match Drat.apply cert.checker step with
                   | Ok () -> ()
                   | Error e ->
                       if cert.cert_error = None then cert.cert_error <- Some e)));
          Some cert
        end
      in
      let bounds = Bounds.create solver t.base scope in
      (* verdicts do not depend on the encoding, so verdict contexts share
         structurally equal definitions; instance queries and enumerations
         keep {!Analyzer}'s unshared encoding and with it their first
         models *)
      let ts = Tseitin.create_shared solver in
      (* the immutable base: implicit constraints and scope caps, asserted
         unguarded exactly once per context *)
      Tseitin.assert_formula ts (Translate.implicit_fmla bounds);
      let ctx =
        {
          solver;
          bounds;
          ts;
          acts = Hashtbl.create 256;
          base_vars = Solver.n_vars solver;
          cert;
        }
      in
      Hashtbl.add t.contexts key ctx;
      ctx

(* The activation literal of [f] in [ctx]: a fresh literal [act] with
   clauses enforcing [act => f], memoized structurally together with the
   number of variables the translation added.  Solving under the assumption
   [act] then enables exactly this formula; leaving [act] unassumed leaves
   the guarded clauses inert (the solver may satisfy them vacuously by
   setting [act] false). *)
let activation t ctx (env : Alloy.Typecheck.env) key (f : Ast.fmla) =
  match Hashtbl.find_opt ctx.acts key with
  | Some entry ->
      bump t formulas_reused;
      entry
  | None ->
      bump t formulas_translated;
      let vars_before = Solver.n_vars ctx.solver in
      let bounds = Bounds.with_env ctx.bounds env in
      let fm = Translate.fmla bounds [] f in
      let act = Lit.pos (Solver.new_var ctx.solver) in
      if Formula.is_true fm then ()
      else if Formula.is_false fm then
        Solver.add_clause ctx.solver [ Lit.negate act ]
      else begin
        let lf = Tseitin.lit_of ctx.ts fm in
        Solver.add_clause ctx.solver [ Lit.negate act; lf ]
      end;
      let entry = (act, Solver.n_vars ctx.solver - vars_before) in
      Hashtbl.add ctx.acts key entry;
      entry

(* Goal formula of a command, in the candidate env, with the node its
   digest is memoized under.  [None] delegates to the plain analyzer (which
   raises the canonical error for unknown names). *)
let goal_of (env : Alloy.Typecheck.env) (c : Ast.command) =
  match c.cmd_kind with
  | Ast.Run_fmla f -> Some (f, Fmla f)
  | Ast.Run_pred name -> (
      match Ast.find_pred env.spec name with
      | Some p -> Some (pred_goal p, Pred_goal p)
      | None -> None)
  | Ast.Check name -> (
      match Ast.find_assert env.spec name with
      | Some a -> Some (Ast.Not a.assert_body, Assert_goal a)
      | None -> None)

let outcome_tag = Analyzer.outcome_verdict

(* Fresh (non-incremental) solve, proof-checked when certifying: covers the
   sig-incompatible fallback and instance-producing queries, so an UNSAT
   answer is certified no matter which path served it. *)
let analyzer_run ?max_conflicts t env c =
  if not t.certify then Analyzer.run_command ?max_conflicts env c
  else begin
    let r = Proof.recorder () in
    let o =
      Analyzer.run_command ~proof:(Proof.recorder_sink r) ?max_conflicts env c
    in
    (match o with
    | Analyzer.Unsat ->
        note_certified t
          (match
             Drat.check ~premises:(Proof.inputs r)
               (List.to_seq (Proof.steps r))
           with
          | Ok () -> true
          | Error _ -> false)
    | Analyzer.Sat _ | Analyzer.Unknown -> ());
    o
  end

(* {2 Verdict queries (incremental)}

   A context only grows: every candidate's mutated facts and goals stay
   guarded in it, and propagation, restarts and learnt-clause reduction all
   pay for the inert ones, so per-query solve time rises with everything
   checked before.  After each verdict query the context is retired if it
   holds more than [max_growth] times the variables that query used (its
   base plus the formulas it assumed); the next query for that scope
   builds a fresh one.  A context built by a single query holds exactly
   what that query used, so the rule cannot thrash, and verdicts do not
   depend on the solver path, so nothing observable changes.  The verdict,
   outcome and instance tables are untouched. *)
let max_growth = 3

(* The work of a context's solver and clausifier, added into [counts] and
   [spent] when it retires, and into a snapshot's copies while it lives. *)
let add_context_work ~counts ~spent ctx =
  let s = ctx.solver in
  Counters.add spent conflicts (Solver.n_conflicts s);
  Counters.add spent decisions (Solver.n_decisions s);
  Counters.add spent propagations (Solver.n_propagations s);
  Counters.add spent restarts (Solver.n_restarts s);
  Counters.add spent reductions (Solver.n_reductions s);
  Counters.add counts definitions (Tseitin.definitions ctx.ts);
  Counters.add counts definitions_shared (Tseitin.definitions_shared ctx.ts)

let retire t key ctx =
  add_context_work ~counts:t.counts ~spent:t.spent ctx;
  Hashtbl.remove t.contexts key;
  bump t contexts_retired

let solve_incremental ?max_conflicts t (env : Alloy.Typecheck.env) c
    (goal, goal_node) =
  let scope = Bounds.scope_of_command c in
  let key = scope_key scope in
  let ctx = context_for t key scope in
  let dd = decls_key t env.spec in
  let facts = env.spec.facts in
  let fact_acts =
    List.map2
      (fun (fact : Ast.fact_decl) d ->
        activation t ctx env ("fact:" ^ d ^ "#" ^ dd) fact.fact_body)
      facts
      (digests t (List.map (fun (f : Ast.fact_decl) -> Fmla f.fact_body) facts))
  in
  let goal_act =
    activation t ctx env ("goal:" ^ digest t goal_node ^ "#" ^ dd) goal
  in
  let assumed = fact_acts @ [ goal_act ] in
  let assumptions = List.map fst assumed in
  let used = List.fold_left (fun n (_, v) -> n + v) ctx.base_vars assumed in
  let verdict =
    match Solver.solve ~assumptions ?max_conflicts ctx.solver with
    | Solver.Sat -> `Sat
    | Solver.Unsat ->
        (match ctx.cert with
        | None -> ()
        | Some cert ->
            (* every proof step was already RUP-checked as it streamed in;
               what remains is that the clause store actually refutes this
               query's assumptions *)
            note_certified t
              (cert.cert_error = None
              && Drat.refutes cert.checker assumptions));
        `Unsat
    | Solver.Unknown -> `Unknown
  in
  if Solver.n_vars ctx.solver > max_growth * used then retire t key ctx;
  verdict

let command_verdict ?max_conflicts t (env : Alloy.Typecheck.env)
    (c : Ast.command) =
  let key = verdict_cache_key ?max_conflicts t env c in
  match Hashtbl.find_opt t.verdicts key with
  | Some v ->
      bump t verdict_hits;
      v
  | None ->
      let fresh () =
        bump t fallback_queries;
        outcome_tag (analyzer_run ?max_conflicts t env c)
      in
      let v =
        if not (compatible t env) then fresh ()
        else
          match goal_of env c with
          | Some goal ->
              bump t verdict_misses;
              solve_incremental ?max_conflicts t env c goal
          | None ->
              (* unknown predicate/assertion: the analyzer raises the
                 canonical Invalid_argument for us *)
              fresh ()
      in
      Hashtbl.add t.verdicts key v;
      v

(* {2 Instance queries (fresh, memoized)} *)

let run_command ?max_conflicts t (env : Alloy.Typecheck.env) (c : Ast.command)
    =
  let vkey = verdict_cache_key ?max_conflicts t env c in
  let key = "outcome|" ^ vkey in
  match Hashtbl.find_opt t.outcomes key with
  | Some o ->
      bump t instance_hits;
      o
  | None ->
      bump t instance_misses;
      let o = analyzer_run ?max_conflicts t env c in
      Hashtbl.add t.outcomes key o;
      (* a fresh outcome also answers future verdict-only queries *)
      if not (Hashtbl.mem t.verdicts vkey) then
        Hashtbl.add t.verdicts vkey (outcome_tag o);
      o

let enumerate ?(limit = 10) ?max_conflicts t (env : Alloy.Typecheck.env) scope
    f =
  let key =
    Printf.sprintf "enum|%s|%s|%s|%d|%s"
      (spec_key t env.Alloy.Typecheck.spec)
      (digest t (Fmla f) ^ "#" ^ decls_key t env.Alloy.Typecheck.spec)
      (scope_key scope) limit (budget_key max_conflicts)
  in
  match Hashtbl.find_opt t.instances key with
  | Some insts ->
      bump t instance_hits;
      insts
  | None ->
      bump t instance_misses;
      let insts = Analyzer.enumerate ~limit ?max_conflicts env scope f in
      Hashtbl.add t.instances key insts;
      insts

(* {2 Statistics} *)

let snapshot t =
  let counts = Counters.copy t.counts and spent = Counters.copy t.spent in
  Hashtbl.iter (fun _ ctx -> add_context_work ~counts ~spent ctx) t.contexts;
  Counters.set counts contexts (Hashtbl.length t.contexts);
  (counts, spent)

let stats t = fst (snapshot t)
let sat_stats t = snd (snapshot t)
