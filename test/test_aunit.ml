(* Tests for the AUnit-style test framework and fault localization. *)

open Specrepair_alloy
module Aunit = Specrepair_aunit.Aunit
module Faultloc = Specrepair_faultloc.Faultloc
module Solver = Specrepair_solver
module Location = Specrepair_mutation.Location
module Mutate = Specrepair_mutation.Mutate
module B = Specrepair_benchmarks

let gt_src =
  {|
sig Node {
  edges: set Node
}
fact Acyclic {
  no n: Node | n in n.^edges
}
pred hasEdge {
  some edges
}
assert NoLoop {
  all n: Node | n not in n.^edges
}
check NoLoop for 3
run hasEdge for 3
|}

let faulty_src =
  {|
sig Node {
  edges: set Node
}
fact Acyclic {
  some n: Node | n in n.^edges
}
pred hasEdge {
  some edges
}
assert NoLoop {
  all n: Node | n not in n.^edges
}
check NoLoop for 3
run hasEdge for 3
|}

let gt_env = lazy (Typecheck.check (Parser.parse gt_src))
let faulty_env = lazy (Typecheck.check (Parser.parse faulty_src))
let scope = { Solver.Bounds.default = 3; overrides = [] }

let suite = lazy (Aunit.generate ~per_kind:4 (Lazy.force gt_env) ~scope)

let test_generate_nonempty () =
  let tests = Lazy.force suite in
  Alcotest.(check bool) "several tests" true (List.length tests >= 6);
  let facts_tests =
    List.filter (fun (t : Aunit.test) -> t.target = Aunit.Facts) tests
  in
  let pred_tests =
    List.filter
      (fun (t : Aunit.test) ->
        match t.target with Aunit.Pred _ -> true | _ -> false)
      tests
  in
  Alcotest.(check bool) "facts tests present" true (facts_tests <> []);
  Alcotest.(check bool) "pred tests present" true (pred_tests <> [])

let test_gt_passes_all () =
  Alcotest.(check bool) "ground truth passes its own suite" true
    (Aunit.all_pass (Lazy.force gt_env) (Lazy.force suite))

let test_faulty_fails_some () =
  let v = Aunit.run_suite (Lazy.force faulty_env) (Lazy.force suite) in
  Alcotest.(check bool) "faulty spec fails something" true (v.failing <> [])

let test_expectations_balanced () =
  let tests = Lazy.force suite in
  Alcotest.(check bool) "positive tests exist" true
    (List.exists (fun (t : Aunit.test) -> t.expect) tests);
  Alcotest.(check bool) "negative tests exist" true
    (List.exists (fun (t : Aunit.test) -> not t.expect) tests)

let test_of_counterexample () =
  match
    Solver.Analyzer.check_assert (Lazy.force faulty_env) scope "NoLoop"
  with
  | Sat cex ->
      let t = Aunit.of_counterexample ~name:"cex" cex in
      (* the counterexample is admitted by the faulty facts, so the test
         (expect: not admitted) fails there... *)
      Alcotest.(check bool) "cex test fails on faulty spec" false
        (Aunit.run_test (Lazy.force faulty_env) t);
      (* ...and passes on the ground truth, which excludes it *)
      Alcotest.(check bool) "cex test passes on ground truth" true
        (Aunit.run_test (Lazy.force gt_env) t)
  | Unsat | Unknown -> Alcotest.fail "expected a counterexample"

let test_broken_pred_counts_as_failing () =
  let t =
    Aunit.make ~name:"missing pred" ~target:(Aunit.Pred "doesNotExist")
      ~expect:true
      { Instance.sigs = [ ("Node", []) ]; fields = [ ("edges", Instance.Tuple_set.empty) ] }
  in
  Alcotest.(check bool) "missing predicate fails" false
    (Aunit.run_test (Lazy.force gt_env) t)

(* {2 Memoized evaluation}

   Each test replays verdicts from its valuation's memo.  For every domain
   one suite stays warm across a stream of candidates; after each
   candidate its partition must equal the one tests with fresh memos give.
   The stream covers the ground truth, the sample-1 faulty variant, single
   mutations at every site kind, a copy re-parsed from its printed text
   (equal declarations, none of them physically shared), and a predicate
   mutation seen only through a fact that calls the predicate. *)

let names tests = List.map (fun (t : Aunit.test) -> t.test_name) tests

let fresh (t : Aunit.test) =
  Aunit.make ~name:t.test_name ~target:t.target ~expect:t.expect t.valuation

let check_partition label env suite =
  let warm = Aunit.run_suite env suite in
  let direct = Aunit.run_suite env (List.map fresh suite) in
  Alcotest.(check (list string)) (label ^ ": passing") (names direct.passing)
    (names warm.passing);
  Alcotest.(check (list string)) (label ^ ": failing") (names direct.failing)
    (names warm.failing)

(* Up to [n] well-typed single mutations of [env], taken round-robin over
   its sites so that facts, predicates and assertions all get some. *)
let single_mutations (env : Typecheck.env) n =
  let spec = env.spec in
  let per_site =
    List.map
      (fun site ->
        List.concat_map
          (fun (path, _) -> Mutate.mutations_at env spec site path ())
          (Location.subnodes (Location.body spec site)))
      (Location.sites spec)
  in
  let rec round acc k = function
    | [] -> List.rev acc
    | _ when k >= n -> List.rev acc
    | lists ->
        let acc, k, rest =
          List.fold_left
            (fun (acc, k, rest) ms ->
              match ms with
              | [] -> (acc, k, rest)
              | m :: more -> (
                  if k >= n then (acc, k, rest)
                  else
                    match Typecheck.check_result (Mutate.apply spec m) with
                    | Ok env' -> (env' :: acc, k + 1, more :: rest)
                    | Error _ | (exception _) -> (acc, k, more :: rest)))
            (acc, k, []) lists
        in
        round acc k (List.rev rest)
  in
  round [] 0 per_site

(* The ground truth with a parameterless predicate [memoProbe] whose body
   is [body], called from an added fact. *)
let with_probe (spec : Ast.spec) body =
  {
    spec with
    preds = spec.preds @ [ { Ast.pred_name = "memoProbe"; pred_params = []; pred_body = body } ];
    facts = spec.facts @ [ { Ast.fact_name = None; fact_body = Ast.Call ("memoProbe", []) } ];
  }

let test_memo_differential () =
  let variants = B.Generate.sample ~per_domain:1 () in
  List.iter
    (fun (d : B.Domains.t) ->
      let gt = B.Domains.env d in
      let scope =
        match gt.spec.commands with
        | c :: _ -> Solver.Bounds.scope_of_command c
        | [] -> Solver.Analyzer.default_scope
      in
      let suite = Aunit.generate ~per_kind:4 gt ~scope in
      let check label env = check_partition (d.name ^ ": " ^ label) env suite in
      check "ground truth" gt;
      let v =
        List.find (fun (v : B.Generate.variant) -> v.domain.name = d.name) variants
      in
      check "faulty variant" (Typecheck.check v.injected.faulty);
      let mutants = single_mutations gt 24 in
      Alcotest.(check int) (d.name ^ ": mutants") 24 (List.length mutants);
      List.iteri (fun i env' -> check (Printf.sprintf "mutant %d" i) env') mutants;
      let reparsed = Typecheck.check (Parser.parse (Pretty.spec_to_string gt.spec)) in
      Alcotest.(check bool) (d.name ^ ": re-parse shares no declarations") false
        (reparsed.spec.sigs == gt.spec.sigs);
      check "re-parsed" reparsed;
      (* the probe's fact body stays physically the same; only the
         predicate it calls changes, so the positive [Facts] tests flip *)
      let probed = with_probe gt.spec Ast.True in
      check "probe base" (Typecheck.check probed);
      let flipped =
        Typecheck.check
          (Location.with_body probed (Location.Pred_site "memoProbe") Ast.False)
      in
      check "probe mutant" flipped;
      Alcotest.(check bool) (d.name ^ ": the probe mutant fails a test") true
        ((Aunit.run_suite flipped suite).failing
        <> (Aunit.run_suite (Typecheck.check probed) suite).failing);
      check "ground truth again" gt)
    B.Domains.all

(* A field column that calls a predicate makes the implicit constraints
   read [preds]: mutating the predicate must not replay the base's
   implicit verdict. *)
let test_memo_implicit_reads_preds () =
  let base =
    Typecheck.check
      (Parser.parse
         {|
sig Node { next: set { n: Node | ok[n] } }
pred ok[n: Node] { some n }
|})
  in
  let mutant =
    Typecheck.check
      (Location.with_body base.spec (Location.Pred_site "ok") Ast.False)
  in
  let inst =
    {
      Instance.sigs = [ ("Node", [ "Node$0"; "Node$1" ]) ];
      fields = [ ("next", Instance.Tuple_set.singleton [| "Node$0"; "Node$1" |]) ];
    }
  in
  let memo = Eval.memo inst in
  Alcotest.(check bool) "base admits the instance" true
    (Eval.facts_hold_memo base memo);
  Alcotest.(check bool) "mutant rejects it, as direct evaluation does" false
    (Eval.facts_hold_memo mutant memo);
  Alcotest.(check bool) "direct evaluation on the mutant" false
    (Eval.facts_hold mutant inst)

let test_memo_replays_errors () =
  let env = Lazy.force gt_env in
  (* no [edges] relation: the implicit constraints raise *)
  let inst = { Instance.sigs = [ ("Node", [ "Node$0" ]) ]; fields = [] } in
  let memo = Eval.memo inst in
  let raises () =
    match Eval.facts_hold_memo env memo with
    | _ -> false
    | exception Eval.Eval_error _ -> true
  in
  let before = Eval.counters () in
  Alcotest.(check bool) "first call raises" true (raises ());
  Alcotest.(check bool) "second call raises" true (raises ());
  let after = Eval.counters () in
  let delta key =
    Specrepair_json.Counters.(find after key - find before key)
  in
  Alcotest.(check int) "evaluated once" 1
    (delta "implicit_evaluated");
  Alcotest.(check int) "replayed once" 1
    (delta "implicit_memoized");
  let t = Aunit.make ~name:"missing edges" ~target:Aunit.Facts ~expect:true inst in
  Alcotest.(check bool) "test fails on first run" false (Aunit.run_test env t);
  Alcotest.(check bool) "test fails on second run" false (Aunit.run_test env t)

(* {2 Fault localization} *)

let test_rank_by_tests_finds_fault () =
  let ranked =
    Faultloc.rank_by_tests (Lazy.force faulty_env) (Lazy.force suite) ()
  in
  Alcotest.(check bool) "some locations ranked" true (ranked <> []);
  let top3 = List.filteri (fun i _ -> i < 3) ranked in
  Alcotest.(check bool) "faulty fact ranked in top 3" true
    (List.exists
       (fun (l : Faultloc.location) -> l.site = Location.Fact_site 0)
       top3)

let test_rank_by_instances_finds_fault () =
  let env = Lazy.force faulty_env in
  let cexs =
    Solver.Analyzer.enumerate ~limit:3 env scope
      (Parser.parse_fmla "some n: Node | n in n.^edges")
  in
  let ranked =
    Faultloc.rank_by_instances env
      ~goal_of:(Faultloc.goal_of_assert "NoLoop")
      ~counterexamples:cexs ~witnesses:[] ()
  in
  Alcotest.(check bool) "some locations ranked" true (ranked <> []);
  let top = List.filteri (fun i _ -> i < 4) ranked in
  Alcotest.(check bool) "faulty fact among top locations" true
    (List.exists
       (fun (l : Faultloc.location) -> l.site = Location.Fact_site 0)
       top)

let test_no_failing_tests_no_ranking () =
  let ranked =
    Faultloc.rank_by_tests (Lazy.force gt_env) (Lazy.force suite) ()
  in
  Alcotest.(check (list string)) "nothing to localize" []
    (List.map (fun (l : Faultloc.location) -> Location.site_to_string l.site) ranked)

let test_per_kind_controls_size () =
  let env = Lazy.force gt_env in
  let small = Aunit.generate ~per_kind:1 env ~scope in
  let large = Aunit.generate ~per_kind:4 env ~scope in
  Alcotest.(check bool) "per_kind scales the suite" true
    (List.length small < List.length large)

let test_suite_deterministic () =
  let env = Lazy.force gt_env in
  let a = Aunit.generate ~per_kind:3 env ~scope in
  let b = Aunit.generate ~per_kind:3 env ~scope in
  Alcotest.(check int) "same size" (List.length a) (List.length b);
  List.iter2
    (fun (x : Aunit.test) (y : Aunit.test) ->
      Alcotest.(check bool) "same valuation" true
        (Instance.equal x.valuation y.valuation))
    a b

let () =
  Alcotest.run "aunit"
    [
      ( "suite",
        [
          Alcotest.test_case "generation" `Quick test_generate_nonempty;
          Alcotest.test_case "ground truth green" `Quick test_gt_passes_all;
          Alcotest.test_case "faulty red" `Quick test_faulty_fails_some;
          Alcotest.test_case "balanced expectations" `Quick
            test_expectations_balanced;
          Alcotest.test_case "counterexample conversion" `Quick
            test_of_counterexample;
          Alcotest.test_case "missing predicate" `Quick
            test_broken_pred_counts_as_failing;
          Alcotest.test_case "per_kind scaling" `Quick test_per_kind_controls_size;
          Alcotest.test_case "deterministic generation" `Quick
            test_suite_deterministic;
        ] );
      ( "memo",
        [
          Alcotest.test_case "warm suites match fresh memos" `Quick
            test_memo_differential;
          Alcotest.test_case "implicit constraints calling a predicate" `Quick
            test_memo_implicit_reads_preds;
          Alcotest.test_case "errors are replayed" `Quick
            test_memo_replays_errors;
        ] );
      ( "faultloc",
        [
          Alcotest.test_case "rank by tests" `Quick test_rank_by_tests_finds_fault;
          Alcotest.test_case "rank by instances" `Quick
            test_rank_by_instances_finds_fault;
          Alcotest.test_case "green suite" `Quick test_no_failing_tests_no_ranking;
        ] );
    ]
