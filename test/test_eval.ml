(* Tests for the study runner and the table/figure renderers. *)

module B = Specrepair_benchmarks
module Eval = Specrepair_eval
module Llm = Specrepair_llm

let contains text needle =
  let nl = String.length needle and tl = String.length text in
  let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
  go 0

(* a small study: 2 variants per domain, 4 techniques *)
let mini_techniques =
  [
    Eval.Technique.ATR;
    Eval.Technique.BeAFix;
    Eval.Technique.Single (Llm.Prompt.SLoc, Llm.Model.gpt4);
    Eval.Technique.Multi (Llm.Multi_round.No_feedback, Llm.Model.gpt4);
  ]

let mini_results =
  lazy
    (let variants = B.Generate.sample ~per_domain:2 () in
     Eval.Study.run ~techniques:mini_techniques variants)

let test_run_shape () =
  let rs = Lazy.force mini_results in
  let n_variants = List.length (B.Generate.sample ~per_domain:2 ()) in
  Alcotest.(check int) "one row per (variant, technique)"
    (n_variants * List.length mini_techniques)
    (List.length rs);
  List.iter
    (fun (r : Eval.Study.spec_result) ->
      Alcotest.(check bool) "rep is 0/1" true (r.rep = 0 || r.rep = 1);
      Alcotest.(check bool) "tm in range" true (r.tm >= 0. && r.tm <= 1.0001);
      Alcotest.(check bool) "sm in range" true (r.sm >= 0. && r.sm <= 1.0001))
    rs

let test_repaired_high_similarity () =
  (* successful repairs should look close to the ground truth *)
  let rs = Lazy.force mini_results in
  let repaired = List.filter (fun (r : Eval.Study.spec_result) -> r.rep = 1) rs in
  let mean f xs =
    List.fold_left (fun a x -> a +. f x) 0. xs /. float_of_int (max 1 (List.length xs))
  in
  Alcotest.(check bool) "some repairs happened" true (repaired <> []);
  Alcotest.(check bool) "repaired TM high on average" true
    (mean (fun (r : Eval.Study.spec_result) -> r.tm) repaired > 0.8)

let test_determinism () =
  let variants = B.Generate.sample ~per_domain:1 () in
  let t = [ Eval.Technique.Multi (Llm.Multi_round.No_feedback, Llm.Model.gpt4) ] in
  let a = Eval.Study.run ~techniques:t variants in
  let b = Eval.Study.run ~techniques:t variants in
  List.iter2
    (fun (x : Eval.Study.spec_result) (y : Eval.Study.spec_result) ->
      Alcotest.(check int) ("rep deterministic for " ^ x.variant_id) x.rep y.rep;
      Alcotest.(check (float 1e-9)) "tm deterministic" x.tm y.tm)
    a b

let test_csv_roundtrip () =
  let rs = Lazy.force mini_results in
  let rs' = Eval.Study.of_csv (Eval.Study.to_csv rs) in
  Alcotest.(check int) "row count preserved" (List.length rs) (List.length rs');
  List.iter2
    (fun (a : Eval.Study.spec_result) (b : Eval.Study.spec_result) ->
      Alcotest.(check string) "variant" a.variant_id b.variant_id;
      Alcotest.(check string) "technique" a.technique b.technique;
      Alcotest.(check int) "rep" a.rep b.rep;
      Alcotest.(check bool) "benchmark" true (a.benchmark = b.benchmark))
    rs rs'

let test_table1_renders () =
  let text = Eval.Tables.table1 (Lazy.force mini_results) in
  Alcotest.(check bool) "has A4F section" true (contains text "A4F benchmark");
  Alcotest.(check bool) "has ARepair section" true
    (contains text "ARepair benchmark");
  Alcotest.(check bool) "has classroom row" true (contains text "classroom");
  Alcotest.(check bool) "has total row" true (contains text "Total")

let test_fig2_renders () =
  let text = Eval.Tables.fig2 (Lazy.force mini_results) in
  Alcotest.(check bool) "has TM column" true (contains text "TM");
  Alcotest.(check bool) "lists techniques" true (contains text "ATR")

let test_fig3_renders () =
  let text = Eval.Tables.fig3 (Lazy.force mini_results) in
  Alcotest.(check bool) "mentions Pearson" true (contains text "Pearson")

let test_fig3_diagonal_is_one () =
  let rs = Lazy.force mini_results in
  let r, p = Eval.Tables.correlation rs ~t1:"ATR" ~t2:"ATR" in
  Alcotest.(check (float 1e-9)) "self correlation" 1.0 r;
  Alcotest.(check bool) "significant" true (p < 0.001)

let test_hybrid_algebra () =
  let rs = Lazy.force mini_results in
  let a = Eval.Tables.rep_count rs ~technique:"ATR" in
  let b = Eval.Tables.rep_count rs ~technique:"Multi-Round_None" in
  let a', overlap, union = Eval.Tables.hybrid rs ~traditional:"ATR" ~llm:"Multi-Round_None" in
  Alcotest.(check int) "traditional count consistent" a a';
  Alcotest.(check int) "inclusion-exclusion" union (a + b - overlap);
  Alcotest.(check bool) "union >= max" true (union >= max a b);
  Alcotest.(check bool) "overlap <= min" true (overlap <= min a b)

let test_rep_counts_by_benchmark_sum () =
  let rs = Lazy.force mini_results in
  List.iter
    (fun t ->
      let name = Eval.Technique.name t in
      let total = Eval.Tables.rep_count rs ~technique:name in
      let a4f =
        Eval.Tables.rep_count_in rs ~technique:name ~benchmark:B.Domains.A4F
      in
      let arep =
        Eval.Tables.rep_count_in rs ~technique:name
          ~benchmark:B.Domains.ARepair_bench
      in
      Alcotest.(check int) (name ^ " benchmark split sums") total (a4f + arep))
    mini_techniques

let test_technique_roster () =
  Alcotest.(check int) "12 techniques" 12 (List.length Eval.Technique.all);
  Alcotest.(check int) "4 traditional" 4 (List.length Eval.Technique.traditional);
  Alcotest.(check int) "8 LLM-based" 8 (List.length Eval.Technique.llm_based);
  List.iter
    (fun t ->
      match Eval.Technique.of_name (Eval.Technique.name t) with
      | Some t' -> Alcotest.(check bool) "name round trip" true (t = t')
      | None -> Alcotest.fail "of_name failed")
    Eval.Technique.all

let test_parallel_matches_sequential () =
  let variants = B.Generate.sample ~per_domain:1 () in
  let techniques = [ Eval.Technique.BeAFix ] in
  let seq = Eval.Study.run ~techniques variants in
  let par = Eval.Study.run ~techniques ~jobs:2 variants in
  let key (r : Eval.Study.spec_result) = (r.variant_id, r.technique, r.rep) in
  Alcotest.(check bool) "same outcomes" true
    (List.sort compare (List.map key seq) = List.sort compare (List.map key par))

(* {2 Portfolio (the future-work hybrid tool)} *)

let simple_faulty_task =
  lazy
    (let faulty =
       Specrepair_alloy.Parser.parse
         {|
sig Node { edges: set Node }
fact Acyclic { some n: Node | n in n.^edges }
assert NoLoop { all n: Node | n not in n.^edges }
check NoLoop for 3
run { some edges } for 3
|}
     in
     Llm.Task.make ~spec_id:"portfolio_test" ~domain:"graphs" ~faulty
       ~check_names:[ "NoLoop" ] ())

let test_portfolio_repairs () =
  let result, stage = Eval.Portfolio.repair (Lazy.force simple_faulty_task) in
  Alcotest.(check bool) "portfolio repairs the quant fault" true
    result.repaired;
  Alcotest.(check string) "traditional stage sufficed" "traditional"
    (Eval.Portfolio.stage_to_string stage);
  Alcotest.(check string) "tool name" "Portfolio" result.tool

let test_portfolio_stage_strings () =
  Alcotest.(check string) "llm" "llm"
    (Eval.Portfolio.stage_to_string Eval.Portfolio.Llm_finished);
  Alcotest.(check string) "unrepaired" "unrepaired"
    (Eval.Portfolio.stage_to_string Eval.Portfolio.Unrepaired)

(* The default session and an explicit [Session.for_spec] must agree for
   every panel profile — both entry points share one default-session
   construction (the regression this pins had [repair] building its
   session from a pre-checked env, diverging from [repair_learned]). *)
let test_portfolio_default_session_agrees () =
  let task = Lazy.force simple_faulty_task in
  List.iter
    (fun (p : Llm.Model.profile) ->
      let d_result, d_stage = Eval.Portfolio.repair ~profile:p task in
      let session =
        Specrepair_repair.Session.for_spec task.Llm.Task.faulty
      in
      let e_result, e_stage =
        Eval.Portfolio.repair ~session ~profile:p task
      in
      Alcotest.(check bool)
        (p.Llm.Model.name ^ ": default and explicit sessions agree")
        true
        (d_result = e_result
        && Eval.Portfolio.stage_to_string d_stage
           = Eval.Portfolio.stage_to_string e_stage))
    Llm.Model.panel

(* Learning disabled: [repair_learned] without statistics is bit-identical
   to the static pipeline, and the default study roster still prints the
   paper's bare column labels (no "@<profile>" suffix), so PR-9 CSVs and
   tables are unchanged. *)
let test_learned_off_bit_identity () =
  let task = Lazy.force simple_faulty_task in
  let static, stage = Eval.Portfolio.repair task in
  let o = Eval.Portfolio.repair_learned task in
  Alcotest.(check bool) "result bit-identical" true
    (static = o.Eval.Portfolio.result);
  Alcotest.(check string) "stage identical"
    (Eval.Portfolio.stage_to_string stage)
    (Eval.Portfolio.stage_to_string o.Eval.Portfolio.stage);
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Eval.Technique.name t ^ " keeps its paper label")
        false
        (String.contains (Eval.Technique.name t) '@'))
    Eval.Technique.all

let test_multi_round_ablations_run () =
  let task = Lazy.force simple_faulty_task in
  let full = Llm.Multi_round.repair task Llm.Multi_round.No_feedback in
  let no_hc =
    Llm.Multi_round.repair ~hill_climb:false task Llm.Multi_round.No_feedback
  in
  let no_mc =
    Llm.Multi_round.repair ~mental_check:false task Llm.Multi_round.No_feedback
  in
  (* the full pipeline must be at least as capable as either ablation on a
     simple single-fault spec *)
  Alcotest.(check bool) "full pipeline repairs" true full.repaired;
  ignore no_hc;
  ignore no_mc

let () =
  Alcotest.run "eval"
    [
      ( "study",
        [
          Alcotest.test_case "shape" `Slow test_run_shape;
          Alcotest.test_case "similarity of repairs" `Slow
            test_repaired_high_similarity;
          Alcotest.test_case "determinism" `Slow test_determinism;
          Alcotest.test_case "csv round trip" `Slow test_csv_roundtrip;
        ] );
      ( "tables",
        [
          Alcotest.test_case "table1" `Slow test_table1_renders;
          Alcotest.test_case "fig2" `Slow test_fig2_renders;
          Alcotest.test_case "fig3" `Slow test_fig3_renders;
          Alcotest.test_case "self correlation" `Slow test_fig3_diagonal_is_one;
          Alcotest.test_case "hybrid algebra" `Slow test_hybrid_algebra;
          Alcotest.test_case "benchmark split" `Slow test_rep_counts_by_benchmark_sum;
          Alcotest.test_case "technique roster" `Quick test_technique_roster;
        ] );
      ( "parallel",
        [ Alcotest.test_case "matches sequential" `Slow test_parallel_matches_sequential ] );
      ( "portfolio",
        [
          Alcotest.test_case "repairs" `Quick test_portfolio_repairs;
          Alcotest.test_case "stage strings" `Quick test_portfolio_stage_strings;
          Alcotest.test_case "default session agrees" `Quick
            test_portfolio_default_session_agrees;
          Alcotest.test_case "learned off bit-identity" `Quick
            test_learned_off_bit_identity;
          Alcotest.test_case "ablations run" `Quick test_multi_round_ablations_run;
        ] );
    ]
