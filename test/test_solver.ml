(* Tests for the bounded model finder: command outcomes on known specs,
   validity of extracted instances against the reference evaluator, and a
   solver/evaluator agreement property over random formulas. *)

open Specrepair_alloy
module Solver = Specrepair_solver
module Counters = Specrepair_json.Counters
module TS = Instance.Tuple_set

let parse_env src = Typecheck.check (Parser.parse src)

let scope n = { Solver.Bounds.default = n; overrides = [] }

let graph_env =
  lazy
    (parse_env
       {|
sig Node {
  edges: set Node
}
fact NoSelfLoops {
  all n: Node | n not in n.edges
}
pred hasEdge {
  some edges
}
assert Acyclic {
  no n: Node | n in n.^edges
}
run hasEdge for 3
check Acyclic for 3
|})

let test_run_sat () =
  let env = Lazy.force graph_env in
  match Solver.Analyzer.run_pred env (scope 3) "hasEdge" with
  | Sat inst ->
      Alcotest.(check bool) "instance satisfies facts" true
        (Eval.facts_hold env inst);
      Alcotest.(check bool) "instance has an edge" true
        (not (TS.is_empty (Instance.field_tuples inst "edges")))
  | Unsat | Unknown -> Alcotest.fail "expected an instance"

let test_check_counterexample () =
  (* the fact forbids self loops but cycles of length > 1 remain *)
  let env = Lazy.force graph_env in
  match Solver.Analyzer.check_assert env (scope 3) "Acyclic" with
  | Sat cex ->
      Alcotest.(check bool) "cex satisfies facts" true (Eval.facts_hold env cex);
      let assert_body =
        (Option.get (Ast.find_assert env.spec "Acyclic")).assert_body
      in
      Alcotest.(check bool) "cex violates the assertion" false
        (Eval.fmla env cex [] assert_body)
  | Unsat | Unknown -> Alcotest.fail "expected a counterexample"

let test_check_valid () =
  let env =
    parse_env
      {|
sig Node {
  edges: set Node
}
fact Acyclicity {
  no n: Node | n in n.^edges
}
assert NoSelfLoop {
  all n: Node | n not in n.edges
}
check NoSelfLoop for 3
|}
  in
  match Solver.Analyzer.check_assert env (scope 3) "NoSelfLoop" with
  | Unsat -> ()
  | Sat _ -> Alcotest.fail "assertion should hold within scope"
  | Unknown -> Alcotest.fail "unexpected unknown"

let test_one_sig_and_hierarchy () =
  let env =
    parse_env
      {|
abstract sig Person {}
sig Teacher extends Person {}
sig Student extends Person {}
one sig School {
  head: one Teacher
}
run { some Student } for 3
|}
  in
  match Solver.Analyzer.solve_fmla env (scope 3) (Parser.parse_fmla "some Student") with
  | Sat inst ->
      Alcotest.(check bool) "facts hold" true (Eval.facts_hold env inst);
      Alcotest.(check int) "exactly one school" 1
        (List.length (Instance.sig_atoms inst "School"));
      let teachers = Instance.sig_atoms inst "Teacher" in
      let students = Instance.sig_atoms inst "Student" in
      let persons = Instance.sig_atoms inst "Person" in
      Alcotest.(check bool) "some student" true (students <> []);
      Alcotest.(check bool) "head is one teacher" true
        (TS.cardinal (Instance.field_tuples inst "head") = 1);
      Alcotest.(check bool) "teachers and students partition persons" true
        (List.sort compare (teachers @ students) = List.sort compare persons)
  | Unsat | Unknown -> Alcotest.fail "expected an instance"

let test_scope_respected () =
  let env = Lazy.force graph_env in
  match
    Solver.Analyzer.solve_fmla env (scope 2) (Parser.parse_fmla "#Node = 3")
  with
  | Unsat -> ()
  | Sat _ -> Alcotest.fail "3 nodes cannot fit in scope 2"
  | Unknown -> Alcotest.fail "unexpected unknown"

let test_scope_override () =
  let env =
    parse_env
      {|
sig A {}
sig B {}
run { #A = 4 && #B = 1 } for 2 but 4 A
|}
  in
  let cmd = List.hd env.spec.commands in
  (match Solver.Analyzer.run_command env cmd with
  | Sat _ -> ()
  | _ -> Alcotest.fail "override should allow 4 As");
  match
    Solver.Analyzer.solve_fmla env
      { Solver.Bounds.default = 2; overrides = [] }
      (Parser.parse_fmla "#A = 4")
  with
  | Unsat -> ()
  | _ -> Alcotest.fail "without override 4 As must not fit"

let test_ternary_field () =
  let env =
    parse_env
      {|
sig Room {}
sig Guest {}
one sig Desk {
  occupant: Room -> lone Guest
}
run { some Desk.occupant } for 2
|}
  in
  match
    Solver.Analyzer.solve_fmla env (scope 2)
      (Parser.parse_fmla "some Desk.occupant")
  with
  | Sat inst ->
      Alcotest.(check bool) "facts hold (incl. lone mult)" true
        (Eval.facts_hold env inst);
      Alcotest.(check bool) "occupant non-empty" true
        (not (TS.is_empty (Instance.field_tuples inst "occupant")))
  | Unsat | Unknown -> Alcotest.fail "expected an instance"

let test_enumerate () =
  let env =
    parse_env {|
sig A {}
run { some A } for 2
|}
  in
  let instances =
    Solver.Analyzer.enumerate ~limit:100 env (scope 2)
      (Parser.parse_fmla "some A")
  in
  (* with symmetry breaking the pool is used in order: {A$0}, {A$0, A$1} *)
  Alcotest.(check int) "two distinct instances" 2 (List.length instances);
  let distinct =
    List.for_all
      (fun i ->
        List.length (List.filter (fun j -> Instance.equal i j) instances) = 1)
      instances
  in
  Alcotest.(check bool) "all distinct" true distinct

let test_comprehension_translation () =
  let env =
    parse_env
      {|
sig Node {
  edges: set Node
}
run { some edges } for 3
|}
  in
  (* the set of nodes with no outgoing edge, via a comprehension *)
  let f =
    Parser.parse_fmla "some { n: Node | no n.edges } && some edges"
  in
  match Solver.Analyzer.solve_fmla env (scope 3) f with
  | Sat inst ->
      Alcotest.(check bool) "instance satisfies the formula per evaluator"
        true
        (Eval.fmla env inst [] f)
  | Unsat | Unknown -> Alcotest.fail "expected an instance"

let test_fun_translation () =
  let env =
    parse_env
      {|
sig Person {
  parent: lone Person
}
fun ancestors[p: Person]: set Person {
  p.^parent
}
fact NoSelfAncestor {
  all p: Person | p not in ancestors[p]
}
assert Irreflexive {
  no p: Person | p in ancestors[p]
}
check Irreflexive for 3
run { some parent } for 3
|}
  in
  (match Solver.Analyzer.check_assert env (scope 3) "Irreflexive" with
  | Unsat -> ()
  | Sat _ -> Alcotest.fail "assertion should follow from the fact"
  | Unknown -> Alcotest.fail "unexpected unknown");
  match
    Solver.Analyzer.solve_fmla env (scope 3) (Parser.parse_fmla "some parent")
  with
  | Sat inst ->
      Alcotest.(check bool) "facts hold on extracted instance" true
        (Eval.facts_hold env inst)
  | Unsat | Unknown -> Alcotest.fail "expected an instance"

let test_let_translation () =
  let env =
    parse_env
      {|
sig Node {
  edges: set Node
}
fact F {
  all n: Node | let succ = n.edges | n not in succ
}
run { some edges } for 3
|}
  in
  match
    Solver.Analyzer.solve_fmla env (scope 3) (Parser.parse_fmla "some edges")
  with
  | Sat inst ->
      Alcotest.(check bool) "let-constrained facts hold" true
        (Eval.facts_hold env inst);
      Alcotest.(check bool) "no self loops" true
        (Instance.Tuple_set.for_all
           (fun t -> t.(0) <> t.(1))
           (Instance.field_tuples inst "edges"))
  | Unsat | Unknown -> Alcotest.fail "expected an instance"

let test_unknown_budget () =
  let env = Lazy.force graph_env in
  match
    Solver.Analyzer.solve_fmla ~max_conflicts:0 env (scope 4)
      (Parser.parse_fmla "some n: Node | Node in n.^edges && #edges = 4")
  with
  | Unknown | Unsat | Sat _ -> ()
(* any outcome is fine; this only exercises the budget path *)

let test_symmetry_breaking () =
  (* atom pools are consumed in index order: an instance with A$1 but not
     A$0 must never be produced *)
  let env = parse_env "sig A {} run { some A } for 3" in
  let instances =
    Solver.Analyzer.enumerate ~limit:50 env (scope 3) (Parser.parse_fmla "some A")
  in
  Alcotest.(check int) "three sizes" 3 (List.length instances);
  List.iter
    (fun inst ->
      let atoms = Instance.sig_atoms inst "A" in
      let expected = List.init (List.length atoms) (Instance.atom_name "A") in
      Alcotest.(check (list string)) "prefix of the pool" expected
        (List.sort compare atoms))
    instances

let test_contradictory_facts () =
  let env =
    parse_env "sig A {} fact F { some A } fact G { no A } run { no none } for 3"
  in
  match Solver.Analyzer.solve_fmla env (scope 3) Ast.True with
  | Unsat -> ()
  | Sat _ -> Alcotest.fail "contradictory facts must be unsat"
  | Unknown -> Alcotest.fail "unexpected unknown"

let test_one_sig_exactness () =
  let env = parse_env "one sig S {} sig A {} run { some A } for 3" in
  let instances =
    Solver.Analyzer.enumerate ~limit:50 env (scope 3) Ast.True
  in
  Alcotest.(check bool) "instances exist" true (instances <> []);
  List.iter
    (fun inst ->
      Alcotest.(check int) "S always a singleton" 1
        (List.length (Instance.sig_atoms inst "S")))
    instances

(* {2 Agreement property}

   For a fixed two-signature vocabulary, enumerate every instance of the
   facts within scope 2 (exhaustively), then compare: the model finder says
   Sat for a random formula iff some enumerated instance satisfies it per
   the reference evaluator. *)

let vocab_env =
  lazy
    (parse_env
       {|
sig Node {
  edges: set Node,
  tag: set Mark
}
sig Mark {}
fact SmallEdges { #edges <= 2 }
|})

let all_instances =
  lazy
    (let env = Lazy.force vocab_env in
     let instances =
       Solver.Analyzer.enumerate ~limit:100000 env (scope 2) Ast.True
     in
     (* the enumeration must be exhaustive for the property to be sound *)
     assert (List.length instances < 100000);
     instances)

let gen_vocab_fmla =
  let open QCheck2.Gen in
  let unary = oneofl [ Ast.Rel "Node"; Rel "Mark"; Univ; None_ ] in
  let binary = oneofl [ Ast.Rel "edges"; Rel "tag"; Iden ] in
  let rec e1 n =
    if n = 0 then unary
    else
      frequency
        [
          (2, unary);
          ( 2,
            map3
              (fun op a b -> Ast.Binop (op, a, b))
              (oneofl [ Ast.Union; Diff; Inter ])
              (e1 (n - 1)) (e1 (n - 1)) );
          (2, map2 (fun a b -> Ast.Binop (Join, a, b)) (e1 (n - 1)) (e2 (n - 1)));
          (1, map2 (fun s e -> Ast.Binop (Domrestr, s, e)) (e1 (n - 1)) (e1 (n - 1)));
        ]
  and e2 n =
    if n = 0 then binary
    else
      frequency
        [
          (3, binary);
          ( 2,
            map3
              (fun op a b -> Ast.Binop (op, a, b))
              (oneofl [ Ast.Union; Diff; Inter ])
              (e2 (n - 1)) (e2 (n - 1)) );
          (1, map (fun e -> Ast.Unop (Closure, e)) (fun_of_e2 (n - 1)));
          (1, map2 (fun a b -> Ast.Binop (Product, a, b)) (e1 (n - 1)) (e1 (n - 1)));
        ]
  and fun_of_e2 n = map (fun e -> e) (e2_edges n)
  and e2_edges n =
    (* closure only over homogeneous Node->Node expressions *)
    if n = 0 then oneofl [ Ast.Rel "edges"; Iden ]
    else
      frequency
        [
          (3, oneofl [ Ast.Rel "edges"; Iden ]);
          ( 1,
            map3
              (fun op a b -> Ast.Binop (op, a, b))
              (oneofl [ Ast.Union; Inter; Diff ])
              (e2_edges (n - 1)) (e2_edges (n - 1)) );
        ]
  in
  let cmp =
    let* op = oneofl [ Ast.Cin; Ceq ] in
    let* two = bool in
    if two then map2 (fun a b -> Ast.Cmp (op, a, b)) (e2 1) (e2 1)
    else map2 (fun a b -> Ast.Cmp (op, a, b)) (e1 1) (e1 1)
  in
  let multf =
    map2
      (fun m e -> Ast.Multf (m, e))
      (oneofl [ Ast.Fno; Fsome; Flone; Fone ])
      (oneof [ e1 1; e2 1 ])
  in
  let card =
    map3
      (fun op e k -> Ast.Card (op, e, k))
      (oneofl [ Ast.Ile; Ieq; Ige ])
      (oneof [ e1 1; e2 1 ])
      (int_bound 3)
  in
  let rec f n =
    if n = 0 then oneof [ cmp; multf; card ]
    else
      frequency
        [
          (3, oneof [ cmp; multf; card ]);
          (1, map (fun g -> Ast.Not g) (f (n - 1)));
          (2, map2 (fun a b -> Ast.And (a, b)) (f (n - 1)) (f (n - 1)));
          (2, map2 (fun a b -> Ast.Or (a, b)) (f (n - 1)) (f (n - 1)));
          ( 1,
            map3
              (fun q x body -> Ast.Quant (q, [ (x, Ast.Rel "Node") ], body))
              (oneofl [ Ast.Qall; Qsome; Qno; Qone ])
              (oneofl [ "x"; "y" ])
              (f (n - 1)) );
        ]
  in
  f 2

(* Matrix operations on constant matrices must coincide with the
   evaluator's tuple-set operations. *)
let prop_matrix_ops_agree =
  let open QCheck2 in
  let atoms = [| "a"; "b"; "c" |] in
  let gen_pairs =
    Gen.(
      list_size (int_bound 6)
        (map2 (fun i j -> [| atoms.(i mod 3); atoms.(j mod 3) |]) (int_bound 2) (int_bound 2)))
  in
  Test.make ~count:200 ~name:"matrix ops agree with tuple-set ops"
    Gen.(pair gen_pairs gen_pairs)
    (fun (ts1, ts2) ->
      let module M = Specrepair_solver.Matrix in
      let module F = Specrepair_sat.Formula in
      let set1 = TS.of_list ts1 and set2 = TS.of_list ts2 in
      let m1 = M.constant 2 (TS.elements set1) in
      let m2 = M.constant 2 (TS.elements set2) in
      let to_set m =
        List.fold_left
          (fun acc (t, f) -> if F.is_true f then TS.add t acc else acc)
          TS.empty (M.support m)
      in
      let check_op name mop sop =
        let got = to_set (mop m1 m2) in
        let want = sop set1 set2 in
        if TS.equal got want then true
        else QCheck2.Test.fail_reportf "%s disagrees" name
      in
      check_op "union" M.union TS.union
      && check_op "inter" M.inter TS.inter
      && check_op "diff" M.diff TS.diff
      &&
      (* unary: transpose and closure against the evaluator's versions *)
      let trans_got = to_set (M.transpose m1) in
      let trans_want = TS.map (fun t -> [| t.(1); t.(0) |]) set1 in
      TS.equal trans_got trans_want
      &&
      let inst =
        { Instance.sigs = [ ("A", Array.to_list atoms) ]; fields = [ ("r", set1) ] }
      in
      let env =
        Typecheck.check (Parser.parse "sig A { r: set A }")
      in
      let closure_want = Eval.expr env inst [] (Parser.parse_expr "^r") in
      TS.equal (to_set (M.closure m1)) closure_want)

(* {2 Oracle equivalence}

   The incremental oracle must be invisible: over the benchmark domains'
   injected faulty variants (the exact candidate population of the study),
   every verdict equals a fresh [Analyzer.run_command], asking again hits
   the cache with the same answer, and instance queries return the
   analyzer's instances verbatim. *)

let outcome_tag = function
  | Solver.Analyzer.Sat _ -> `Sat
  | Solver.Analyzer.Unsat -> `Unsat
  | Solver.Analyzer.Unknown -> `Unknown

let test_oracle_matches_fresh () =
  let domains =
    List.filteri (fun i _ -> i < 4) Specrepair_benchmarks.Domains.all
  in
  List.iter
    (fun d ->
      let base = Specrepair_benchmarks.Domains.env d in
      let oracle = Solver.Oracle.create base in
      let candidates =
        base
        :: List.filter_map
             (fun index ->
               match Specrepair_benchmarks.Fault.inject ~seed:3 d ~index with
               | inj -> (
                   match Typecheck.check_result inj.faulty with
                   | Ok env -> Some env
                   | Error _ -> None)
               | exception Failure _ -> None)
             (List.init 6 Fun.id)
      in
      List.iter
        (fun (env : Typecheck.env) ->
          Alcotest.(check bool)
            (d.name ^ ": variant compatible with its domain oracle")
            true
            (Solver.Oracle.compatible oracle env);
          List.iter
            (fun c ->
              let fresh = outcome_tag (Solver.Analyzer.run_command env c) in
              let incremental = Solver.Oracle.command_verdict oracle env c in
              let label verdict =
                match verdict with
                | `Sat -> "sat"
                | `Unsat -> "unsat"
                | `Unknown -> "unknown"
              in
              Alcotest.(check string)
                (d.name ^ ": incremental verdict = fresh analyzer")
                (label fresh) (label incremental);
              let cached = Solver.Oracle.command_verdict oracle env c in
              Alcotest.(check string)
                (d.name ^ ": cached = uncached")
                (label incremental) (label cached))
            env.spec.commands)
        candidates)
    domains

let test_oracle_instances_verbatim () =
  let d = List.hd Specrepair_benchmarks.Domains.all in
  let env = Specrepair_benchmarks.Domains.env d in
  let oracle = Solver.Oracle.create env in
  List.iter
    (fun (c : Ast.command) ->
      let fresh = Solver.Analyzer.run_command env c in
      let via_oracle = Solver.Oracle.run_command oracle env c in
      let again = Solver.Oracle.run_command oracle env c in
      let same a b =
        match (a, b) with
        | Solver.Analyzer.Sat i, Solver.Analyzer.Sat j -> Instance.equal i j
        | Solver.Analyzer.Unsat, Solver.Analyzer.Unsat -> true
        | Solver.Analyzer.Unknown, Solver.Analyzer.Unknown -> true
        | _ -> false
      in
      Alcotest.(check bool) "oracle instance = analyzer instance" true
        (same fresh via_oracle);
      Alcotest.(check bool) "memoized replay identical" true
        (same via_oracle again))
    env.spec.commands;
  let scope_ = scope 3 in
  let f = Ast.True in
  let fresh = Solver.Analyzer.enumerate ~limit:5 env scope_ f in
  let memo = Solver.Oracle.enumerate ~limit:5 oracle env scope_ f in
  Alcotest.(check bool) "enumeration identical, in order" true
    (List.length fresh = List.length memo
    && List.for_all2 Instance.equal fresh memo);
  let stats = Solver.Oracle.stats oracle in
  Alcotest.(check bool) "instance cache saw hits" true (Counters.find stats "instance_hits" > 0)

(* {2 Sig-incompatible fallback}

   Candidates that declare other signatures or fields than the oracle's
   base cannot share its variable allocation: each first query is a fresh
   analyzer solve, counted in [fallback_queries], and a repeat is served
   from the verdict cache.  Mutation-based engines never produce such
   candidates; an outside caller can. *)

let fallback_candidates =
  let body =
    {|
fact NoSelfLoops {
  all n: Node | n not in n.edges
}
pred hasEdge {
  some edges
}
assert Acyclic {
  no n: Node | n in n.^edges
}
assert NoSelf {
  no n: Node | n in n.edges
}
run hasEdge for 3
check Acyclic for 3
check NoSelf for 3
|}
  in
  lazy
    [
      (* a field added to the base's sig *)
      parse_env ("sig Node {\n  edges: set Node,\n  label: lone Node\n}" ^ body);
      (* a sig added beside it *)
      parse_env ("sig Node {\n  edges: set Node\n}\nsig Extra {}" ^ body);
    ]

let test_oracle_fallback () =
  let base = Lazy.force graph_env in
  let check_oracle ~certify =
    let oracle = Solver.Oracle.create ~certify base in
    let count key = Counters.find (Solver.Oracle.stats oracle) key in
    let delta key f =
      let before = count key in
      let v = f () in
      (v, count key - before)
    in
    let unsat = ref 0 in
    List.iter
      (fun (env : Typecheck.env) ->
        Alcotest.(check bool) "candidate is sig-incompatible" false
          (Solver.Oracle.compatible oracle env);
        List.iter
          (fun c ->
            let fresh = outcome_tag (Solver.Analyzer.run_command env c) in
            if fresh = `Unsat then incr unsat;
            let first, fallbacks =
              delta "fallback_queries" (fun () ->
                  Solver.Oracle.command_verdict oracle env c)
            in
            Alcotest.(check bool) "fallback verdict = analyzer's" true
              (first = fresh);
            Alcotest.(check int) "first query is one fallback" 1 fallbacks;
            let again, hits =
              delta "verdict_hits" (fun () ->
                  Solver.Oracle.command_verdict oracle env c)
            in
            Alcotest.(check bool) "repeat = first" true (again = first);
            Alcotest.(check int) "repeat is one verdict hit" 1 hits)
          env.spec.commands)
      (Lazy.force fallback_candidates);
    Alcotest.(check bool) "some fallback verdict is unsat" true (!unsat > 0);
    let stats = Solver.Oracle.stats oracle in
    Alcotest.(check int) "no incremental query" 0
      (Counters.find stats "verdict_misses");
    Alcotest.(check int) "certified unsat verdicts"
      (if certify then !unsat else 0)
      (Counters.get stats Solver.Oracle.certified);
    Alcotest.(check int) "no certificate failures" 0
      (Counters.get stats Solver.Oracle.certificate_failures)
  in
  check_oracle ~certify:false;
  check_oracle ~certify:true

(* {2 Oracle keys}

   Cache keys are built from a memo of per-declaration digests matched by
   physical identity.  Over each domain's ground truth, its sample-1
   faulty variant, a spread of single mutations of the ground truth (many
   of them deep inside a declaration, where the memo's structural bucket
   hash cannot tell them from the original) and printed-and-re-parsed
   copies (equal bytes, no shared node), one warm oracle's keys must split
   the specs exactly as their printed bytes do and equal the keys a cold
   oracle builds; and the warm oracle must answer every candidate's
   commands with a fresh oracle's verdicts and with exactly the verdict
   cache hits and misses the printed bytes predict. *)

module Bench = Specrepair_benchmarks

let key_pool (v : Bench.Generate.variant) =
  let truth = Bench.Domains.env v.domain in
  let faulty = v.injected.faulty in
  let mutants = Specrepair_mutation.Mutate.all_mutations truth truth.spec () in
  let stride = max 1 (List.length mutants / 24) in
  let mutated =
    List.filteri (fun i _ -> i mod stride = 0 && i / stride < 24) mutants
    |> List.filter_map (fun m ->
           match Specrepair_mutation.Mutate.apply truth.spec m with
           | spec -> Some spec
           | exception _ -> None)
  in
  let reparse spec = Parser.parse (Pretty.spec_to_string spec) in
  (truth.spec :: faulty :: mutated) @ [ reparse truth.spec; reparse faulty ]
  |> List.filter_map (fun spec ->
         match Typecheck.check_result spec with
         | Ok env -> Some env
         | Error _ -> None)

let key_pools =
  lazy
    (List.map
       (fun (v : Bench.Generate.variant) -> (v.domain, key_pool v))
       (Bench.Generate.sample ~per_domain:1 ()))

let test_oracle_keys_match_prints () =
  List.iter
    (fun ((d : Bench.Domains.t), pool) ->
      let truth = Bench.Domains.env d in
      let warm = Solver.Oracle.create truth in
      let keyed =
        List.map
          (fun (env : Typecheck.env) ->
            let key = Solver.Oracle.spec_key warm env.spec in
            Alcotest.(check string)
              (d.name ^ ": warm key = cold key")
              (Solver.Oracle.spec_key (Solver.Oracle.create truth) env.spec)
              key;
            (key, Digest.string (Pretty.spec_to_string env.spec)))
          pool
      in
      List.iteri
        (fun i (ki, pi) ->
          List.iteri
            (fun j (kj, pj) ->
              if i < j && ki = kj <> (pi = pj) then
                Alcotest.failf "%s: specs %d and %d: keys %s, prints %s" d.name
                  i j
                  (if ki = kj then "equal" else "differ")
                  (if pi = pj then "equal" else "differ"))
            keyed)
        keyed)
    (Lazy.force key_pools)

let test_oracle_keys_warm_equals_fresh () =
  let label = function
    | `Sat -> "sat"
    | `Unsat -> "unsat"
    | `Unknown -> "unknown"
  in
  List.iter
    (fun ((d : Bench.Domains.t), pool) ->
      let truth = Bench.Domains.env d in
      let warm = Solver.Oracle.create truth in
      let seen = Hashtbl.create 64 in
      List.iter
        (fun (env : Typecheck.env) ->
          let fresh = Solver.Oracle.create truth in
          let printed = Pretty.spec_to_string env.spec in
          let before = Solver.Oracle.stats warm in
          let want_hits = ref 0 and want_solved = ref 0 in
          List.iter
            (fun (c : Ast.command) ->
              let id =
                ( printed,
                  Pretty.spec_to_string { Ast.empty_spec with commands = [ c ] }
                )
              in
              if Hashtbl.mem seen id then incr want_hits
              else begin
                Hashtbl.add seen id ();
                incr want_solved
              end;
              let v = Solver.Oracle.command_verdict fresh env c in
              Alcotest.(check string)
                (d.name ^ ": warm verdict = fresh oracle's")
                (label v)
                (label (Solver.Oracle.command_verdict warm env c));
              (* the repeat, as [oracle_passes] makes it, is a hit *)
              incr want_hits;
              Alcotest.(check string)
                (d.name ^ ": repeat verdict")
                (label v)
                (label (Solver.Oracle.command_verdict warm env c)))
            env.spec.commands;
          let after = Solver.Oracle.stats warm in
          Alcotest.(check (pair int int))
            (d.name ^ ": verdict hits, solves as the prints predict")
            (!want_hits, !want_solved)
            (let delta key = Counters.(find after key - find before key) in
             ( delta "verdict_hits",
               delta "verdict_misses" + delta "fallback_queries" )))
        pool;
      let s = Solver.Oracle.stats warm in
      if Counters.find s "keys_reused" = 0 then
        Alcotest.failf "%s: the warm oracle reused no key digest" d.name)
    (Lazy.force key_pools)

let prop_solver_agrees_with_eval =
  QCheck2.Test.make ~count:150 ~name:"model finder agrees with evaluator"
    ~print:Pretty.fmla_to_string gen_vocab_fmla
    (fun f ->
      let env = Lazy.force vocab_env in
      let instances = Lazy.force all_instances in
      let eval_sat =
        List.exists (fun inst -> Eval.fmla env inst [] f) instances
      in
      match Solver.Analyzer.solve_fmla env (scope 2) f with
      | Sat inst -> eval_sat && Eval.fmla env inst [] f && Eval.facts_hold env inst
      | Unsat -> not eval_sat
      | Unknown -> false)

let () =
  Alcotest.run "solver"
    [
      ( "analyzer",
        [
          Alcotest.test_case "run finds instance" `Quick test_run_sat;
          Alcotest.test_case "check finds counterexample" `Quick
            test_check_counterexample;
          Alcotest.test_case "check valid assertion" `Quick test_check_valid;
          Alcotest.test_case "one sig + hierarchy" `Quick
            test_one_sig_and_hierarchy;
          Alcotest.test_case "scope respected" `Quick test_scope_respected;
          Alcotest.test_case "scope override" `Quick test_scope_override;
          Alcotest.test_case "ternary field" `Quick test_ternary_field;
          Alcotest.test_case "enumeration" `Quick test_enumerate;
          Alcotest.test_case "comprehension" `Quick test_comprehension_translation;
          Alcotest.test_case "fun translation" `Quick test_fun_translation;
          Alcotest.test_case "let translation" `Quick test_let_translation;
          Alcotest.test_case "symmetry breaking" `Quick test_symmetry_breaking;
          Alcotest.test_case "contradictory facts" `Quick test_contradictory_facts;
          Alcotest.test_case "one sig exactness" `Quick test_one_sig_exactness;
          Alcotest.test_case "budget path" `Quick test_unknown_budget;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "verdicts match fresh analyzer" `Quick
            test_oracle_matches_fresh;
          Alcotest.test_case "instances served verbatim" `Quick
            test_oracle_instances_verbatim;
          Alcotest.test_case "sig-incompatible fallback" `Quick
            test_oracle_fallback;
        ] );
      ( "oracle keys",
        [
          Alcotest.test_case "keys split specs as prints do" `Quick
            test_oracle_keys_match_prints;
          Alcotest.test_case "warm oracle answers as fresh ones" `Quick
            test_oracle_keys_warm_equals_fresh;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_matrix_ops_agree;
          QCheck_alcotest.to_alcotest prop_solver_agrees_with_eval;
        ] );
    ]
