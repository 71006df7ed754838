(* Tests for the study's metrics: REP, Token Match (BLEU), Syntax Match
   (subtree kernel), and Pearson correlation. *)

open Specrepair_alloy
module Metrics = Specrepair_metrics

let gt_src =
  {|
sig Node {
  edges: set Node
}
fact Acyclic {
  no n: Node | n in n.^edges
}
assert NoLoop {
  all n: Node | n not in n.^edges
}
check NoLoop for 3
run { some edges } for 3
|}

let equivalent_src =
  (* same semantics, different syntax: all/not instead of no *)
  {|
sig Node {
  edges: set Node
}
fact Acyclic {
  all n: Node | n not in n.^edges
}
assert NoLoop {
  all n: Node | n not in n.^edges
}
check NoLoop for 3
run { some edges } for 3
|}

let broken_src =
  {|
sig Node {
  edges: set Node
}
fact Acyclic {
  some n: Node | n in n.^edges
}
assert NoLoop {
  all n: Node | n not in n.^edges
}
check NoLoop for 3
run { some edges } for 3
|}

let overconstrained_src =
  (* makes the check pass vacuously but kills the run command *)
  {|
sig Node {
  edges: set Node
}
fact Acyclic {
  no edges
}
assert NoLoop {
  all n: Node | n not in n.^edges
}
check NoLoop for 3
run { some edges } for 3
|}

let parse = Parser.parse

(* {2 REP} *)

let test_rep_identical () =
  Alcotest.(check bool) "spec equals itself" true
    (Metrics.Rep.rep ~ground_truth:(parse gt_src) ~candidate:(parse gt_src) ())

let test_rep_equivalent () =
  Alcotest.(check bool) "semantically equivalent repair accepted" true
    (Metrics.Rep.rep ~ground_truth:(parse gt_src)
       ~candidate:(parse equivalent_src) ())

let test_rep_broken () =
  Alcotest.(check bool) "faulty spec rejected" false
    (Metrics.Rep.rep ~ground_truth:(parse gt_src) ~candidate:(parse broken_src) ())

let test_rep_overconstrained () =
  Alcotest.(check bool) "overconstrained repair rejected via run command" false
    (Metrics.Rep.rep ~ground_truth:(parse gt_src)
       ~candidate:(parse overconstrained_src) ())

let test_equivalence_extension () =
  let scope = { Specrepair_solver.Bounds.default = 3; overrides = [] } in
  Alcotest.(check (option bool))
    "equivalent facts" (Some true)
    (Metrics.Rep.equivalent_constraints ~scope ~ground_truth:(parse gt_src)
       ~candidate:(parse equivalent_src) ());
  Alcotest.(check (option bool))
    "inequivalent facts" (Some false)
    (Metrics.Rep.equivalent_constraints ~scope ~ground_truth:(parse gt_src)
       ~candidate:(parse broken_src) ())

(* REP over the study's verdict provider: a domain oracle, shared by every
   candidate of the domain as the study shares it across rows, must score
   exactly what fresh analyzer solves score.  The candidates are the ground
   truth, the sample-1 faulty variant, and a fixed spread of its single
   mutations — enough per domain for the oracle to retire solving contexts
   along the way. *)
let test_rep_oracle_matches_fresh () =
  let module B = Specrepair_benchmarks in
  let module Solver = Specrepair_solver in
  let module Mutate = Specrepair_mutation.Mutate in
  let max_conflicts = Specrepair_repair.Common.default_budget.max_conflicts in
  let variants = B.Generate.sample ~per_domain:1 () and retired = ref 0 in
  let scores =
    List.concat_map
      (fun (v : B.Generate.variant) ->
        let oracle = Solver.Oracle.create (B.Domains.env v.domain) in
        let faulty = v.injected.faulty in
        let mutants =
          match Typecheck.check_result faulty with
          | Error msg -> Alcotest.failf "%s: faulty variant: %s" v.id msg
          | Ok env ->
              let all = Array.of_list (Mutate.all_mutations env faulty ()) in
              let stride = max 1 (Array.length all / 24) in
              List.init (min 24 (Array.length all)) (fun i ->
                  match Mutate.apply faulty all.(i * stride) with
                  | s -> Some s
                  | exception _ -> None)
              |> List.filter_map Fun.id
        in
        let scores =
          List.mapi
            (fun i candidate ->
              ( Printf.sprintf "%s candidate %d" v.id i,
                Metrics.Rep.rep ~max_conflicts ~ground_truth:v.ground_truth
                  ~candidate (),
                Metrics.Rep.rep_with
                  ~verdict:(Solver.Oracle.command_verdict ~max_conflicts oracle)
                  ~ground_truth:v.ground_truth ~candidate ))
            (v.ground_truth :: faulty :: mutants)
        in
        retired := !retired + Specrepair_json.Counters.find (Solver.Oracle.stats oracle)
                 "contexts_retired";
        scores)
      variants
  in
  Alcotest.(check (list (pair string bool)))
    "oracle REP = fresh REP on every candidate"
    (List.map (fun (l, fresh, _) -> (l, fresh)) scores)
    (List.map (fun (l, _, by_oracle) -> (l, by_oracle)) scores);
  (* the ground truths score 1; so must some other candidate, or the
     comparison never sees a REP-true repair *)
  Alcotest.(check bool) "some candidate other than a ground truth scores 1"
    true
    (List.length (List.filter (fun (_, fresh, _) -> fresh) scores)
    > List.length variants);
  Alcotest.(check bool) "some oracle retired a context" true (!retired > 0)

(* {2 BLEU / Token Match} *)

let test_bleu_identity () =
  let text = Pretty.spec_to_string (parse gt_src) in
  let v = Metrics.Bleu.token_match ~reference:text ~candidate:text in
  Alcotest.(check (float 1e-9)) "identical text scores 1" 1.0 v

let test_bleu_monotone () =
  let reference = Pretty.spec_to_string (parse gt_src) in
  let close = Pretty.spec_to_string (parse broken_src) in
  let far = "pred nothing { some none }" in
  let v_close = Metrics.Bleu.token_match ~reference ~candidate:close in
  let v_far = Metrics.Bleu.token_match ~reference ~candidate:far in
  Alcotest.(check bool) "close > far" true (v_close > v_far);
  Alcotest.(check bool) "close below 1" true (v_close < 1.0);
  Alcotest.(check bool) "bounded" true (v_far >= 0. && v_close <= 1.)

let test_bleu_ngram_precision () =
  let p, m, t =
    Metrics.Bleu.ngram_precision ~n:2
      ~reference:[ "a"; "b"; "c"; "d" ]
      ~candidate:[ "a"; "b"; "c"; "x" ]
  in
  Alcotest.(check int) "bigram matches" 2 m;
  Alcotest.(check int) "bigram total" 3 t;
  Alcotest.(check (float 1e-9)) "precision" (2. /. 3.) p

let test_bleu_clipping () =
  (* candidate repeats a reference unigram; clipped by reference count *)
  let p, m, t =
    Metrics.Bleu.ngram_precision ~n:1 ~reference:[ "a"; "b" ]
      ~candidate:[ "a"; "a"; "a" ]
  in
  Alcotest.(check int) "clipped matches" 1 m;
  Alcotest.(check int) "total" 3 t;
  Alcotest.(check (float 1e-9)) "precision" (1. /. 3.) p

(* {2 Tree kernel / Syntax Match} *)

let test_sm_identity () =
  let spec = parse gt_src in
  Alcotest.(check (float 1e-9)) "identical trees score 1" 1.0
    (Metrics.Tree_kernel.syntax_match spec spec)

let test_sm_orders () =
  let gt = parse gt_src in
  let near = parse broken_src in
  let far = parse "sig Completely {} pred different { some Completely }" in
  let s_near = Metrics.Tree_kernel.syntax_match gt near in
  let s_far = Metrics.Tree_kernel.syntax_match gt far in
  Alcotest.(check bool) "near > far" true (s_near > s_far);
  Alcotest.(check bool) "near < 1" true (s_near < 1.0);
  Alcotest.(check bool) "in range" true (s_far >= 0. && s_near <= 1.)

let test_sm_ignores_formatting () =
  let a = parse gt_src in
  let b = parse ("  " ^ String.concat "\n\n" (String.split_on_char '\n' gt_src)) in
  Alcotest.(check (float 1e-9)) "whitespace irrelevant" 1.0
    (Metrics.Tree_kernel.syntax_match a b)

(* {2 Pearson} *)

let test_pearson_perfect () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  let ys = Array.map (fun x -> (2. *. x) +. 1.) xs in
  let r, p = Metrics.Pearson.correlate xs ys in
  Alcotest.(check (float 1e-9)) "r = 1" 1.0 r;
  Alcotest.(check bool) "significant" true (p < 0.01)

let test_pearson_anticorrelated () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  let ys = Array.map (fun x -> -.x) xs in
  Alcotest.(check (float 1e-9)) "r = -1" (-1.0) (Metrics.Pearson.r xs ys)

let test_pearson_uncorrelated () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  let ys = [| 1.; -1.; 1.; -1. |] in
  let r, p = Metrics.Pearson.correlate xs ys in
  Alcotest.(check bool) "weak r" true (Float.abs r < 0.6);
  Alcotest.(check bool) "not significant" true (p > 0.05)

let test_pearson_degenerate () =
  Alcotest.(check (float 1e-9)) "constant vector" 0.0
    (Metrics.Pearson.r [| 1.; 1.; 1. |] [| 1.; 2.; 3. |])

let test_pearson_pvalue_known () =
  (* r = 0.9, n = 10 -> p ~ 0.000386 (two-tailed) *)
  let p = Metrics.Pearson.p_value ~r:0.9 ~n:10 in
  Alcotest.(check bool) "p in expected range" true (p > 3e-4 && p < 5e-4)

(* {2 Properties} *)

let gen_tokens =
  QCheck2.Gen.(list_size (int_range 1 30) (oneofl [ "sig"; "A"; "{"; "}"; "fact"; "some"; "no"; "edges"; "in" ]))

let prop_bleu_bounds =
  QCheck2.Test.make ~count:300 ~name:"BLEU bounded and exact on identity"
    QCheck2.Gen.(pair gen_tokens gen_tokens)
    (fun (a, b) ->
      let v = Metrics.Bleu.sentence_bleu ~reference:a ~candidate:b () in
      let self = Metrics.Bleu.sentence_bleu ~reference:a ~candidate:a () in
      v >= 0. && v <= 1.0000001 && abs_float (self -. 1.0) < 1e-9)

let prop_kernel_bounds =
  (* similarity over random small formula trees stays in [0,1] and is 1 on
     identical trees *)
  let gen_f =
    QCheck2.Gen.(
      let atom = oneofl [ "some A"; "no B"; "A in B"; "one C.f" ] in
      let* a = atom in
      let* b = atom in
      let* c = atom in
      oneofl
        [
          Printf.sprintf "%s && %s" a b;
          Printf.sprintf "%s || (%s && %s)" a b c;
          Printf.sprintf "all x: A | %s => %s" b c;
          a;
        ])
  in
  QCheck2.Test.make ~count:200 ~name:"tree kernel bounded, 1 on identity"
    QCheck2.Gen.(pair gen_f gen_f)
    (fun (sa, sb) ->
      let ta = Metrics.Tree_kernel.of_fmla (Parser.parse_fmla sa) in
      let tb = Metrics.Tree_kernel.of_fmla (Parser.parse_fmla sb) in
      let v = Metrics.Tree_kernel.similarity ta tb in
      let self = Metrics.Tree_kernel.similarity ta ta in
      v >= -1e-9 && v <= 1.0000001 && abs_float (self -. 1.0) < 1e-9)

let prop_pearson_bounds =
  QCheck2.Test.make ~count:300 ~name:"pearson in [-1, 1]"
    QCheck2.Gen.(
      pair
        (array_size (int_range 2 20) (float_bound_exclusive 10.))
        (array_size (int_range 2 20) (float_bound_exclusive 10.)))
    (fun (xs, ys) ->
      let n = min (Array.length xs) (Array.length ys) in
      let xs = Array.sub xs 0 n and ys = Array.sub ys 0 n in
      let r = Metrics.Pearson.r xs ys in
      r >= -1.0000001 && r <= 1.0000001)

(* {2 Properties over fuzz-generated specifications}

   The hand-rolled QCheck generators above cover token lists and tiny
   formula strings; these drive the metrics with whole well-typed
   specifications from the fuzzing subsystem's generators. *)

module Fuzz = Specrepair_fuzz

let gen_spec seed =
  let env =
    Fuzz.Gen.spec ~with_commands:true
      (Fuzz.Rng.of_context ~seed [ "metrics" ])
  in
  env.Typecheck.spec

let test_rep_reflexive_generated () =
  for seed = 0 to 14 do
    let spec = gen_spec seed in
    Alcotest.(check int)
      (Printf.sprintf "REP(x,x) = 1 (seed %d)" seed)
      1
      (Metrics.Rep.rep_score ~ground_truth:spec ~candidate:spec ())
  done

let test_bleu_bounds_generated () =
  for seed = 0 to 14 do
    let a = Pretty.spec_to_string (gen_spec seed) in
    let b = Pretty.spec_to_string (gen_spec (seed + 100)) in
    let v = Metrics.Bleu.token_match ~reference:a ~candidate:b in
    Alcotest.(check bool)
      (Printf.sprintf "BLEU in [0,1] (seed %d)" seed)
      true
      (v >= 0. && v <= 1.0000001);
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "BLEU identity (seed %d)" seed)
      1.0
      (Metrics.Bleu.token_match ~reference:a ~candidate:a)
  done

let test_kernel_nonneg_generated () =
  for seed = 0 to 14 do
    let a = gen_spec seed and b = gen_spec (seed + 100) in
    let v = Metrics.Tree_kernel.syntax_match a b in
    Alcotest.(check bool)
      (Printf.sprintf "kernel non-negative and bounded (seed %d)" seed)
      true
      (v >= 0. && v <= 1.0000001);
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "kernel identity (seed %d)" seed)
      1.0
      (Metrics.Tree_kernel.syntax_match a a)
  done

let test_pearson_identical_generated () =
  for seed = 0 to 14 do
    let rng = Fuzz.Rng.of_context ~seed [ "pearson" ] in
    let n = 2 + Fuzz.Rng.int rng 20 in
    (* index offset keeps the vector non-constant, so r is defined *)
    let xs =
      Array.init n (fun i ->
          float_of_int (i + Fuzz.Rng.int rng 100) /. 7.)
    in
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "r(x,x) = 1 (seed %d)" seed)
      1.0
      (Metrics.Pearson.r xs xs)
  done

let () =
  Alcotest.run "metrics"
    [
      ( "rep",
        [
          Alcotest.test_case "identical" `Quick test_rep_identical;
          Alcotest.test_case "equivalent" `Quick test_rep_equivalent;
          Alcotest.test_case "broken" `Quick test_rep_broken;
          Alcotest.test_case "overconstrained" `Quick test_rep_overconstrained;
          Alcotest.test_case "equivalence extension" `Quick
            test_equivalence_extension;
          Alcotest.test_case "oracle verdicts match fresh" `Quick
            test_rep_oracle_matches_fresh;
        ] );
      ( "bleu",
        [
          Alcotest.test_case "identity" `Quick test_bleu_identity;
          Alcotest.test_case "monotone" `Quick test_bleu_monotone;
          Alcotest.test_case "ngram precision" `Quick test_bleu_ngram_precision;
          Alcotest.test_case "clipping" `Quick test_bleu_clipping;
        ] );
      ( "tree kernel",
        [
          Alcotest.test_case "identity" `Quick test_sm_identity;
          Alcotest.test_case "ordering" `Quick test_sm_orders;
          Alcotest.test_case "formatting" `Quick test_sm_ignores_formatting;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_bleu_bounds;
          QCheck_alcotest.to_alcotest prop_kernel_bounds;
          QCheck_alcotest.to_alcotest prop_pearson_bounds;
        ] );
      ( "generated specs",
        [
          Alcotest.test_case "REP reflexive" `Quick test_rep_reflexive_generated;
          Alcotest.test_case "BLEU bounded" `Quick test_bleu_bounds_generated;
          Alcotest.test_case "tree kernel non-negative" `Quick
            test_kernel_nonneg_generated;
          Alcotest.test_case "pearson identity" `Quick
            test_pearson_identical_generated;
        ] );
      ( "pearson",
        [
          Alcotest.test_case "perfect" `Quick test_pearson_perfect;
          Alcotest.test_case "anticorrelated" `Quick test_pearson_anticorrelated;
          Alcotest.test_case "uncorrelated" `Quick test_pearson_uncorrelated;
          Alcotest.test_case "degenerate" `Quick test_pearson_degenerate;
          Alcotest.test_case "p-value" `Quick test_pearson_pvalue_known;
        ] );
    ]
