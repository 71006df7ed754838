(* Tests for the telemetry-learned portfolio statistics: mining, the
   digest-protected persistence format, the expected-value-per-ms ranking,
   and [Portfolio.repair_learned]'s cold-start / deadline contracts. *)

open Specrepair_alloy
module Llm = Specrepair_llm
module Eval = Specrepair_eval
module Learned = Eval.Learned
module Technique = Eval.Technique
module Portfolio = Eval.Portfolio
module Session = Specrepair_repair.Session
module Location = Specrepair_mutation.Location

(* {2 Fixtures} *)

(* A telemetry fixture shaped exactly like the study's JSONL rows
   ({!Session.telemetry_json} with the study extras): flat string fields
   plus a numeric [elapsed_ms].  Scores under Laplace smoothing:

     quant / ATR                     (4/4, 10ms mean)  (5/6)/10  = 0.0833
     quant / BeAFix               (4/0,  5ms mean)  (1/6)/5   = 0.0333
     quant / Multi-Round_Auto  (4/4, 100ms mean) (5/6)/100 = 0.0083

   so the pinned ranking is ATR, BeAFix, Multi-Round_Auto. *)
let fixture_lines =
  let row variant tech repaired ms =
    Printf.sprintf
      "{\"variant_id\":\"%s\",\"technique\":\"%s\",\"repaired\":\"%b\",\"defect_class\":\"quant\",\"elapsed_ms\":%.3f,\"timed_out\":\"false\"}"
      variant tech repaired ms
  in
  List.concat_map
    (fun v ->
      [
        row v "ATR" true 10.0;
        row v "BeAFix" false 5.0;
        row v "Multi-Round_Auto" true 100.0;
      ])
    [ "graphs_0"; "graphs_1"; "fsm_0"; "fsm_1" ]
  @ [
      "{\"event\":\"scheduler_summary\",\"chunks\":3}" (* must be ignored *);
      (* a string value holding an escaped quote is mined decoded *)
      "{\"technique\":\"Multi \\\"x\\\"\",\"repaired\":\"true\",\"defect_class\":\"quant\",\"elapsed_ms\":2.000}";
      (* the fields without the object around them are not a row *)
      "\"technique\":\"ATR\",\"repaired\":\"true\",\"defect_class\":\"quant\"";
      (* a torn final line (the writer died mid-row) is skipped *)
      "{\"variant_id\":\"graphs_2\",\"technique\":\"ATR\",\"repaired\":\"true\",\"defect_class\":\"quant\",\"elapsed_";
    ]

let fixture_stats =
  lazy
    (let t = Learned.empty () in
     List.iter (Learned.add_telemetry_line t) fixture_lines;
     t)

let faulty_src =
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

let task =
  lazy
    (Llm.Task.make ~spec_id:"learned_test" ~domain:"graphs"
       ~faulty:(Parser.parse faulty_src)
       ~fault_sites:[ Location.Fact_site 0 ]
       ~fault_paths:[ (Location.Fact_site 0, []) ]
       ~fault_classes:[ "quant-swap" ]
       ~fix_description:"the quantifier in fact#0 is wrong"
       ~check_names:[ "NoLoop" ] ())

let result_testable =
  Alcotest.testable
    (fun fmt (r : Specrepair_repair.Common.result) ->
      Format.fprintf fmt "{tool=%s; repaired=%b; candidates=%d; iters=%d}"
        r.tool r.repaired r.candidates_tried r.iterations)
    ( = )

(* {2 Mining and ranking} *)

let test_mining_counts () =
  let t = Lazy.force fixture_stats in
  match Learned.cell t ~defect_class:"quant" ~technique:"ATR" with
  | None -> Alcotest.fail "ATR cell missing"
  | Some c ->
      Alcotest.(check int) "attempts" 4 c.Learned.attempts;
      Alcotest.(check int) "successes" 4 c.Learned.successes;
      Alcotest.(check (float 0.001)) "total_ms" 40.0 c.Learned.total_ms

let test_non_study_lines_ignored () =
  let t = Learned.empty () in
  Learned.add_telemetry_line t "{\"event\":\"serve_request\",\"method\":\"repair\"}";
  Learned.add_telemetry_line t "not json at all";
  Alcotest.(check bool) "still empty" true (Learned.is_empty t)

let test_escaped_strings_decoded () =
  let t = Lazy.force fixture_stats in
  match Learned.cell t ~defect_class:"quant" ~technique:"Multi \"x\"" with
  | None -> Alcotest.fail "escaped technique name not mined"
  | Some c ->
      Alcotest.(check int) "attempts" 1 c.Learned.attempts;
      Alcotest.(check (float 0.001)) "total_ms" 2.0 c.Learned.total_ms

let test_rank_pinned () =
  let t = Lazy.force fixture_stats in
  let ranked =
    Learned.rank t ~defect_class:"quant"
      [
        Technique.BeAFix;
        Technique.Multi (Llm.Multi_round.Auto, Llm.Model.gpt4);
        Technique.ATR;
        Technique.ARepair (* never observed: must be filtered out *);
      ]
  in
  Alcotest.(check (list string)) "expected-value-per-ms order"
    [ "ATR"; "BeAFix"; "Multi-Round_Auto" ]
    (List.map (fun (t, _) -> Technique.name t) ranked);
  Alcotest.(check (list string)) "unseen class is the cold-start signal" []
    (List.map fst
       (List.map
          (fun (t, s) -> (Technique.name t, s))
          (Learned.rank t ~defect_class:"negation" [ Technique.ATR ])))

(* {2 Persistence} *)

let with_temp f =
  let path = Filename.temp_file "specrepair_stats" ".txt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with _ -> ()) (fun () -> f path)

let test_save_load_roundtrip () =
  let t = Lazy.force fixture_stats in
  with_temp (fun path ->
      Learned.save t path;
      let t' = Learned.load path in
      Alcotest.(check bool) "cells survive the round-trip" true
        (Learned.cells t = Learned.cells t'))

let raises_corrupt f =
  match f () with
  | (_ : Learned.t) -> false
  | exception Learned.Corrupt_stats _ -> true

let test_load_rejects_tampering () =
  let t = Lazy.force fixture_stats in
  with_temp (fun path ->
      Learned.save t path;
      let ic = open_in path in
      let body = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let rewrite s =
        let oc = open_out path in
        output_string oc s;
        close_out oc
      in
      rewrite (body ^ "quant|ICEBAR|3|3|1.0\n");
      Alcotest.(check bool) "appended row rejected" true
        (raises_corrupt (fun () -> Learned.load path));
      rewrite (String.map (function '4' -> '7' | c -> c) body);
      Alcotest.(check bool) "flipped digits rejected" true
        (raises_corrupt (fun () -> Learned.load path));
      rewrite (String.sub body 0 (String.length body - 4));
      Alcotest.(check bool) "truncation rejected" true
        (raises_corrupt (fun () -> Learned.load path));
      rewrite "not a stats file\n";
      Alcotest.(check bool) "bad header rejected" true
        (raises_corrupt (fun () -> Learned.load path)));
  Alcotest.(check bool) "missing file rejected" true
    (raises_corrupt (fun () -> Learned.load "/nonexistent/stats.txt"))

(* {2 Portfolio integration} *)

(* No statistics at all, and statistics that have never seen the task's
   class, must both fall back bit-identically to the static pipeline. *)
let test_cold_start_bit_identity () =
  let task = Lazy.force task in
  let static, static_stage = Portfolio.repair task in
  let check_fallback label outcome =
    Alcotest.check result_testable (label ^ ": result identical") static
      outcome.Portfolio.result;
    Alcotest.(check string) (label ^ ": stage identical")
      (Portfolio.stage_to_string static_stage)
      (Portfolio.stage_to_string outcome.Portfolio.stage);
    Alcotest.(check bool) (label ^ ": flagged cold") false
      outcome.Portfolio.chosen_plan.Portfolio.learned;
    Alcotest.(check (list string)) (label ^ ": no racers ran") []
      outcome.Portfolio.attempted
  in
  check_fallback "no stats" (Portfolio.repair_learned task);
  check_fallback "empty stats"
    (Portfolio.repair_learned ~stats:(Learned.empty ()) task);
  let foreign = Learned.empty () in
  Learned.observe foreign ~defect_class:"negation" ~technique:"ATR"
    ~repaired:true ~time_ms:5.0;
  check_fallback "unseen class" (Portfolio.repair_learned ~stats:foreign task)

let test_learned_plan_and_order () =
  let task = Lazy.force task in
  let stats = Lazy.force fixture_stats in
  let plan = Portfolio.plan ~stats task in
  Alcotest.(check string) "class from the task's fault metadata" "quant"
    plan.Portfolio.defect_class;
  Alcotest.(check bool) "warm statistics yield a learned plan" true
    plan.Portfolio.learned;
  Alcotest.(check (list string)) "plan ordering is the pinned ranking"
    [ "ATR"; "BeAFix"; "Multi-Round_Auto" ]
    (List.map (fun (t, _) -> Technique.name t) plan.Portfolio.ordering);
  let o = Portfolio.repair_learned ~stats task in
  Alcotest.(check bool) "learned run repairs the seeded fault" true
    o.Portfolio.result.repaired;
  Alcotest.(check bool) "attempted is a prefix of the plan" true
    (List.length o.Portfolio.attempted <= 3);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " came from the plan") true
        (List.exists
           (fun (t, _) -> Technique.name t = name)
           plan.Portfolio.ordering))
    o.Portfolio.attempted

(* An expired session must abort the race before any technique runs: the
   learned ordering never exceeds the session's deadline budget. *)
let test_learned_respects_deadline () =
  let task = Lazy.force task in
  let stats = Lazy.force fixture_stats in
  let session = Session.for_spec ~deadline_ms:0. task.Llm.Task.faulty in
  ignore (Session.expired session);
  let o = Portfolio.repair_learned ~session ~stats task in
  Alcotest.(check bool) "plan was learned" true
    o.Portfolio.chosen_plan.Portfolio.learned;
  Alcotest.(check (list string)) "no racer started past the deadline" []
    o.Portfolio.attempted;
  Alcotest.(check bool) "not repaired" false o.Portfolio.result.repaired;
  Alcotest.(check bool) "timed_out reported" true
    o.Portfolio.result.timed_out

let () =
  Alcotest.run "learned"
    [
      ( "mining",
        [
          Alcotest.test_case "telemetry counts" `Quick test_mining_counts;
          Alcotest.test_case "non-study lines ignored" `Quick
            test_non_study_lines_ignored;
          Alcotest.test_case "escaped strings decoded" `Quick
            test_escaped_strings_decoded;
          Alcotest.test_case "pinned ranking" `Quick test_rank_pinned;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "save/load round-trip" `Quick
            test_save_load_roundtrip;
          Alcotest.test_case "tampering rejected" `Quick
            test_load_rejects_tampering;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "cold start bit-identity" `Quick
            test_cold_start_bit_identity;
          Alcotest.test_case "learned plan and order" `Quick
            test_learned_plan_and_order;
          Alcotest.test_case "deadline respected" `Quick
            test_learned_respects_deadline;
        ] );
    ]
