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

(* instance queries answered without a solve (from a model stream or the
   memo of fresh solves), and those that solved *)
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

(* verdict queries answered by a stored witness, witness evaluations
   (each a candidate's facts and goal against one witness), and models
   stored as witnesses *)
let witness_hits = counter "witness_hits"
let witness_checks = counter "witness_checks"
let witnesses_stored = counter "witnesses_stored"

(* verdict queries answered by a stored assumption core, and cores
   stored *)
let core_hits = counter "core_hits"
let cores_stored = counter "cores_stored"

(* model streams opened, models an instance query read from a stream that
   an earlier query had already found, and translations served from the
   translation table *)
let streams_opened = counter "streams_opened"
let stream_models_reused = counter "stream_models_reused"
let translations_reused = counter "translations_reused"

(* The SAT work under the oracle: the search counters of its verdict
   contexts' solvers, printed as the [sat] object, and those of its fresh
   solves (instance queries, enumerations and the sig-incompatible
   fallback), printed as the [sat_fresh] object. *)
type search = {
  conflicts : Counters.key;
  decisions : Counters.key;
  propagations : Counters.key;
  restarts : Counters.key;
  reductions : Counters.key;
}

(* keys are declared in print order, one [let] each: a record's fields
   are not evaluated in the order they are written *)
let search_schema name =
  let schema = Counters.schema name in
  let c = Counters.counter schema in
  let conflicts = c "conflicts" in
  let decisions = c "decisions" in
  let propagations = c "propagations" in
  let restarts = c "restarts" in
  let reductions = c "reductions" in
  (schema, { conflicts; decisions; propagations; restarts; reductions })

let sat_schema, sat = search_schema "sat"
let fresh_schema, fresh = search_schema "sat_fresh"

let search_values keys s =
  [
    (keys.conflicts, Solver.n_conflicts s);
    (keys.decisions, Solver.n_decisions s);
    (keys.propagations, Solver.n_propagations s);
    (keys.restarts, Solver.n_restarts s);
    (keys.reductions, Solver.n_reductions s);
  ]

let add_search set keys s =
  List.iter (fun (k, v) -> Counters.add set k v) (search_values keys s)

(* The certification state of one long-lived context: an independent DRUP
   checker mirroring the solver's clause stream step by step.  A failed
   step is latched — once the stream has a gap, no later UNSAT from this
   context can be trusted. *)
type cert = { checker : Drat.t; mutable cert_error : string option }

(* A model stream: a solver loaded as {!Analyzer.load} loads one for a
   (spec, goal, scope), and what its solves found so far, oldest first,
   each model with the conflicts its solve took.  The last model's
   blocking clause waits in [block] until the next solve; [stop] says how
   the stream ended, and [charged] holds the solver's search counters
   already added to the oracle's [sat_fresh] set. *)
type stop =
  | Exhausted of int  (* [Unsat] after this many conflicts *)
  | Gave_up of int option  (* [Unknown] under this budget *)

type stream = {
  solver : Solver.t;
  bounds : Bounds.t;
  primary : int list;
  mutable models : (Alloy.Instance.t * int) list;
  mutable block : Lit.t list option;
  mutable stop : stop option;
  mutable charged : int list;
}

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

(* What the oracle already found in one scope, kept across context
   retirement: models of its verdict contexts' base, each with its
   evaluation memo, and the activation keys of assumption cores.  Both
   newest first, at most [witness_bound] and [core_bound]. *)
type known = {
  mutable witnesses : Alloy.Eval.memo list;
  mutable cores : string list list;
}

let witness_bound = 8
let core_bound = 16

let stream_bound = 8
let translation_bound = 4096

type t = {
  base : Alloy.Typecheck.env;
  certify : bool;
  no_cache : bool;
      (* SPECREPAIR_NO_CACHE=1: no witness, core, stream or translation
         store *)
  chaos : string option;  (* SPECREPAIR_FUZZ_CHAOS, for the fuzz target *)
  contexts : (string, context) Hashtbl.t;
  known : (string, known) Hashtbl.t;
  streams : (string, stream) Hashtbl.t;
      (* by spec, scope and goal key; at most [stream_bound] *)
  translations : (string, Formula.t) Hashtbl.t;
      (* by scope and activation key; at most [translation_bound] *)
  verdicts : (string, verdict) Hashtbl.t;
  outcomes : (string, Analyzer.outcome) Hashtbl.t;
  instances : (string, Alloy.Instance.t list) Hashtbl.t;
      (* fresh instance queries and enumerations where no stream serves:
         [run p] commands, certifying oracles, SPECREPAIR_NO_CACHE=1 *)
  keys : keys;
  counts : Counters.t;
      (* of the oracle schema; [definitions] and [definitions_shared]
         of retired contexts only *)
  spent : Counters.t;
      (* of the sat schema: retired contexts' solvers (live ones are read
         in {!snapshot}) *)
  fresh : Counters.t;  (* of the sat_fresh schema *)
}

let create ?(certify = false) base =
  {
    base;
    certify;
    no_cache = Sys.getenv_opt "SPECREPAIR_NO_CACHE" = Some "1";
    chaos = Sys.getenv_opt "SPECREPAIR_FUZZ_CHAOS";
    contexts = Hashtbl.create 4;
    known = Hashtbl.create 4;
    streams = Hashtbl.create stream_bound;
    translations = Hashtbl.create 256;
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
    fresh = Counters.create fresh_schema;
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

(* {2 Translations}

   The translation of a fact body or goal depends on the candidate's
   predicate and function declarations (which the activation key
   carries), on the signatures (the oracle's base for every compatible
   candidate) and on the bounds' variables.  [Bounds.create] on a fresh
   solver allocates the same variables for the same signatures and scope,
   and bounds matrices hold only [Var] leaves, so a translation made for
   one context or stream is, node for node, the one any later context or
   stream of that scope would make. *)

let translation t ~scope_key key bounds f =
  if t.no_cache then Translate.fmla bounds [] f
  else
    let k = scope_key ^ "|" ^ key in
    match Hashtbl.find_opt t.translations k with
    | Some fm ->
        bump t translations_reused;
        fm
    | None ->
        let fm = Translate.fmla bounds [] f in
        if Hashtbl.length t.translations >= translation_bound then
          Hashtbl.reset t.translations;
        Hashtbl.replace t.translations k fm;
        fm

(* The activation keys of a candidate's facts, in order, under the digest
   [dd] of its predicate and function declarations. *)
let fact_keys t dd bodies =
  List.map
    (fun d -> "fact:" ^ d ^ "#" ^ dd)
    (digests t (List.map (fun f -> Fmla f) bodies))

(* The activation literal of [f] in [ctx]: a fresh literal [act] with
   clauses enforcing [act => f], memoized structurally together with the
   number of variables the translation added.  Solving under the assumption
   [act] then enables exactly this formula; leaving [act] unassumed leaves
   the guarded clauses inert (the solver may satisfy them vacuously by
   setting [act] false). *)
let activation t ~scope_key ctx (env : Alloy.Typecheck.env) key
    (f : Ast.fmla) =
  match Hashtbl.find_opt ctx.acts key with
  | Some entry ->
      bump t formulas_reused;
      entry
  | None ->
      bump t formulas_translated;
      let vars_before = Solver.n_vars ctx.solver in
      let bounds = Bounds.with_env ctx.bounds env in
      let fm = translation t ~scope_key key bounds f in
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
   sig-incompatible fallback and the instance queries no model stream
   serves (every one of a certifying oracle), so an UNSAT answer is
   certified no matter which path served it. *)
let analyzer_run ?max_conflicts t env c =
  let spent = add_search t.fresh fresh in
  if not t.certify then Analyzer.run_command ~spent ?max_conflicts env c
  else begin
    let r = Proof.recorder () in
    let o =
      Analyzer.run_command ~proof:(Proof.recorder_sink r) ~spent ?max_conflicts
        env c
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
   outcome and instance tables, the streams and the translations are
   untouched. *)
let max_growth = 3

(* The work of a context's solver and clausifier, added into [counts] and
   [spent] when it retires, and into a snapshot's copies while it lives. *)
let add_context_work ~counts ~spent ctx =
  add_search spent sat ctx.solver;
  Counters.add counts definitions (Tseitin.definitions ctx.ts);
  Counters.add counts definitions_shared (Tseitin.definitions_shared ctx.ts)

let retire t key ctx =
  add_context_work ~counts:t.counts ~spent:t.spent ctx;
  Hashtbl.remove t.contexts key;
  bump t contexts_retired

(* {2 What the oracle already found}

   A verdict query is answered before its context is touched when a
   stored core or witness decides it.

   - A core is the set of activation keys a solver [Unsat] rested on
     ({!Solver.unsat_assumptions} mapped back to their keys).  A query
     whose keys contain a stored core is [Unsat]: a context for the same
     scope has the same base, and the same key names the same formula.
     A certifying oracle neither stores nor uses cores, so every UNSAT it
     certifies is its own solve.
   - A witness is a model of a verdict context's base, extracted after a
     solver [Sat].  The base includes the scope caps, so a witness is an
     instance within the scope; if the candidate's implicit constraints,
     facts and goal hold in it ({!Alloy.Eval}), the query is [Sat].  An
     [Eval_error] is no answer.

   Both stores are keyed on the scope and outlive context retirement. *)

let known_for t key =
  if t.no_cache then None
  else
    match Hashtbl.find_opt t.known key with
    | Some _ as k -> k
    | None ->
        let k = { witnesses = []; cores = [] } in
        Hashtbl.add t.known key k;
        Some k

let newest bound x xs = List.filteri (fun i _ -> i < bound) (x :: xs)

let core_implied known keys =
  List.exists
    (fun core -> List.for_all (fun k -> List.mem k keys) core)
    known.cores

let witnessed t known env goal =
  let goal_holds m =
    (* the corrupt-witness chaos hook answers from the facts alone *)
    t.chaos = Some "corrupt-witness"
    || Alloy.Eval.fmla env (Alloy.Eval.instance m) [] goal
  in
  List.exists
    (fun m ->
      bump t witness_checks;
      try Alloy.Eval.facts_hold_memo env m && goal_holds m
      with Alloy.Eval.Eval_error _ -> false)
    known.witnesses

let store_witness t known ctx =
  let inst = Bounds.extract ctx.bounds (Solver.value ctx.solver) in
  known.witnesses <-
    newest witness_bound (Alloy.Eval.memo ~counted:false inst) known.witnesses;
  bump t witnesses_stored

let store_core t known ctx assumed =
  if not t.certify then begin
    let core = Solver.unsat_assumptions ctx.solver in
    let keys =
      List.filter_map
        (fun (key, (act, _)) ->
          if List.exists (Lit.equal act) core then Some key else None)
        assumed
    in
    let keys =
      (* the drop-core-key chaos hook stores a core too small *)
      match (t.chaos, keys) with
      | Some "drop-core-key", _ :: rest -> rest
      | _ -> keys
    in
    known.cores <- newest core_bound keys known.cores;
    bump t cores_stored
  end

let solve_incremental ?max_conflicts t (env : Alloy.Typecheck.env) c
    (goal, goal_node) =
  let scope = Bounds.scope_of_command c in
  let key = scope_key scope in
  let dd = decls_key t env.spec in
  let bodies =
    List.map (fun (f : Ast.fact_decl) -> f.fact_body) env.spec.facts
  in
  let goal_key = "goal:" ^ digest t goal_node ^ "#" ^ dd in
  let keys = fact_keys t dd bodies @ [ goal_key ] in
  let known = known_for t key in
  match known with
  | Some k when core_implied k keys ->
      bump t core_hits;
      `Unsat
  | Some k when witnessed t k env goal ->
      bump t witness_hits;
      `Sat
  | _ ->
      let ctx = context_for t key scope in
      let assumed =
        List.map2
          (fun k f -> (k, activation t ~scope_key:key ctx env k f))
          keys (bodies @ [ goal ])
      in
      let assumptions = List.map (fun (_, (act, _)) -> act) assumed in
      let used =
        List.fold_left (fun n (_, (_, v)) -> n + v) ctx.base_vars assumed
      in
      let verdict =
        match Solver.solve ~assumptions ?max_conflicts ctx.solver with
        | Solver.Sat ->
            Option.iter (fun k -> store_witness t k ctx) known;
            `Sat
        | Solver.Unsat ->
            (match ctx.cert with
            | None -> ()
            | Some cert ->
                (* every proof step was already RUP-checked as it streamed
                   in; what remains is that the clause store actually
                   refutes this query's assumptions *)
                note_certified t
                  (cert.cert_error = None
                  && Drat.refutes cert.checker assumptions));
            Option.iter (fun k -> store_core t k ctx assumed) known;
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

(* {2 Instance queries (model streams)}

   A [check] or [run {...}] instance query and an enumeration read one
   model stream per (spec, scope, goal): [run_command] answers with the
   stream's first element and [enumerate ~limit:k] with its first [k],
   solving only past what the stream already holds.  The solver here is
   deterministic, so the stream's solves are the ones a fresh
   {!Analyzer.enumerate} makes, in order, provided each recorded solve
   would have run to its end under the query's budget: a budget only
   stops a search, and a solve that took fewer conflicts than the budget
   never reached the stop.  A query some recorded solve does not fit, or
   one past a stream that gave up under another budget, is solved fresh.
   [run p] commands, certifying oracles and [SPECREPAIR_NO_CACHE=1] keep
   fresh solves memoized by query. *)

let use_streams t = not (t.no_cache || t.certify)

let fits max_conflicts conflicts =
  match max_conflicts with None -> true | Some b -> conflicts < b

(* adds the stream's search since the last charge to [sat_fresh] *)
let charge t (st : stream) =
  let now = search_values fresh st.solver in
  List.iter2
    (fun (k, v) was -> Counters.add t.fresh k (v - was))
    now st.charged;
  st.charged <- List.map snd now

let open_stream t (env : Alloy.Typecheck.env) scope ~scope_key ~dd ~goal_key
    goal : stream =
  bump t streams_opened;
  let facts, translated_goal =
    if not (compatible t env) then (None, None)
    else
      let facts bounds =
        let bodies =
          List.map (fun (f : Ast.fact_decl) -> f.fact_body) env.spec.facts
        in
        (* a key met twice in one load is translated afresh: one physical
           formula for both would let the unshared clausifier define it
           once *)
        let seen = Hashtbl.create 8 in
        List.map2
          (fun key body ->
            if Hashtbl.mem seen key then Translate.fmla bounds [] body
            else begin
              Hashtbl.add seen key ();
              translation t ~scope_key key bounds body
            end)
          (fact_keys t dd bodies) bodies
      in
      let goal bounds = translation t ~scope_key goal_key bounds goal in
      (Some facts, Some goal)
  in
  let solver, bounds =
    Analyzer.load ?facts ?goal:translated_goal env scope goal
  in
  {
    solver;
    bounds;
    primary = Analyzer.primary_vars bounds;
    models = [];
    block = None;
    stop = None;
    charged = List.map (fun _ -> 0) (search_values fresh solver);
  }

(* One more solve, after the last model's blocking clause. *)
let extend ?max_conflicts t (st : stream) =
  (match st.block with
  | Some clause when t.chaos <> Some "stream-skip-block" ->
      Solver.add_clause st.solver clause
  | _ -> (* the stream-skip-block chaos hook forgets the clause *) ());
  st.block <- None;
  let before = Solver.n_conflicts st.solver in
  let result = Solver.solve ?max_conflicts st.solver in
  let conflicts = Solver.n_conflicts st.solver - before in
  charge t st;
  match result with
  | Solver.Sat ->
      let value = Solver.value st.solver in
      st.models <- st.models @ [ (Bounds.extract st.bounds value, conflicts) ];
      st.block <-
        Some (List.map (fun v -> Lit.make v (not (value v))) st.primary)
  | Solver.Unsat -> st.stop <- Some (Exhausted conflicts)
  | Solver.Unknown -> st.stop <- Some (Gave_up max_conflicts)

(* The first [limit] models a fresh enumeration under [max_conflicts]
   finds, and why it stopped short of [limit] if it did, read off the
   stream for [goal] (extended as needed); [None] when the stream cannot
   stand for that enumeration. *)
let stream_query ?max_conflicts t (env : Alloy.Typecheck.env) scope
    (goal, goal_node) limit =
  let spec = env.spec in
  let scope_key = scope_key scope in
  let dd = decls_key t spec in
  let goal_key = "goal:" ^ digest t goal_node ^ "#" ^ dd in
  (* the overrides in command order, in which a load conjoins the scope
     caps *)
  let overrides =
    List.map (fun (n, k) -> Printf.sprintf "%s=%d" n k) scope.Bounds.overrides
  in
  let key =
    String.concat "|"
      [
        spec_key t spec;
        string_of_int scope.default;
        String.concat "," overrides;
        goal_key;
      ]
  in
  let (st : stream) =
    match Hashtbl.find_opt t.streams key with
    | Some st -> st
    | None ->
        let st = open_stream t env scope ~scope_key ~dd ~goal_key goal in
        if Hashtbl.length t.streams >= stream_bound then
          Hashtbl.reset t.streams;
        Hashtbl.replace t.streams key st;
        st
  in
  let found = List.length st.models and solved = ref false in
  let rec read i acc =
    if i >= limit then Some (List.rev acc, `Limit)
    else
      match (List.nth_opt st.models i, st.stop) with
      | Some (m, c), _ ->
          if fits max_conflicts c then read (i + 1) (m :: acc) else None
      | None, Some (Exhausted c) ->
          if fits max_conflicts c then Some (List.rev acc, `Unsat) else None
      | None, Some (Gave_up b) ->
          if b = max_conflicts then Some (List.rev acc, `Unknown) else None
      | None, None ->
          solved := true;
          extend ?max_conflicts t st;
          read i acc
  in
  let answer = read 0 [] in
  bump t
    (match answer with
    | Some _ when not !solved -> instance_hits
    | _ -> instance_misses);
  (match answer with
  | Some (ms, _) ->
      Counters.add t.counts stream_models_reused (min found (List.length ms))
  | None -> ());
  answer

let run_command ?max_conflicts t (env : Alloy.Typecheck.env) (c : Ast.command)
    =
  let vkey = verdict_cache_key ?max_conflicts t env c in
  let memoized () =
    let key = "outcome|" ^ vkey in
    match Hashtbl.find_opt t.outcomes key with
    | Some o ->
        bump t instance_hits;
        o
    | None ->
        bump t instance_misses;
        let o = analyzer_run ?max_conflicts t env c in
        Hashtbl.add t.outcomes key o;
        o
  in
  let o =
    match (c.cmd_kind, goal_of env c) with
    | (Ast.Check _ | Ast.Run_fmla _), Some goal when use_streams t -> (
        match
          stream_query ?max_conflicts t env (Bounds.scope_of_command c) goal 1
        with
        | Some (m :: _, _) -> Analyzer.Sat m
        | Some ([], `Unsat) -> Analyzer.Unsat
        | Some ([], (`Unknown | `Limit)) -> Analyzer.Unknown
        | None -> analyzer_run ?max_conflicts t env c)
    | _ -> memoized ()
  in
  (* an outcome also answers future verdict-only queries *)
  if not (Hashtbl.mem t.verdicts vkey) then
    Hashtbl.add t.verdicts vkey (outcome_tag o);
  o

let enumerate ?(limit = 10) ?max_conflicts t (env : Alloy.Typecheck.env) scope
    f =
  let solve_fresh () =
    Analyzer.enumerate ~limit ~spent:(add_search t.fresh fresh) ?max_conflicts
      env scope f
  in
  if use_streams t then
    match stream_query ?max_conflicts t env scope (f, Fmla f) limit with
    | Some (insts, _) -> insts
    | None -> solve_fresh ()
  else
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
        let insts = solve_fresh () in
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
let fresh_sat_stats t = Counters.copy t.fresh
