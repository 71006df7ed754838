(* Tests for the simulated LLM stack: deterministic RNG, prompt rendering,
   response extraction, proposal sampling, and the two pipelines. *)

open Specrepair_alloy
module Llm = Specrepair_llm
module Rng = Llm.Rng
module Location = Specrepair_mutation.Location

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
    (Llm.Task.make ~spec_id:"llmtest_0" ~domain:"graphs"
       ~faulty:(Parser.parse faulty_src)
       ~fault_sites:[ Location.Fact_site 0 ]
       ~fault_paths:[ (Location.Fact_site 0, []) ]
       ~fault_classes:[ "quant-swap" ]
       ~fix_description:"the quantifier in fact#0 is wrong"
       ~check_names:[ "NoLoop" ] ())

(* {2 RNG} *)

let test_rng_deterministic () =
  let a = Rng.of_context ~seed:42 [ "x"; "y" ] in
  let b = Rng.of_context ~seed:42 [ "x"; "y" ] in
  let xs = List.init 10 (fun _ -> Rng.next_int64 a) in
  let ys = List.init 10 (fun _ -> Rng.next_int64 b) in
  Alcotest.(check bool) "same context, same stream" true (xs = ys)

let test_rng_context_sensitivity () =
  let a = Rng.of_context ~seed:42 [ "x" ] in
  let b = Rng.of_context ~seed:42 [ "y" ] in
  Alcotest.(check bool) "different context, different stream" false
    (Rng.next_int64 a = Rng.next_int64 b)

let test_rng_float_range () =
  let rng = Rng.create 7L in
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    if f < 0. || f >= 1. then Alcotest.fail "float out of range"
  done

let test_choose_weighted () =
  let rng = Rng.create 3L in
  let counts = Hashtbl.create 4 in
  for _ = 1 to 3000 do
    match Rng.choose_weighted rng [ ("a", 1.); ("b", 9.) ] with
    | Some x ->
        Hashtbl.replace counts x (1 + Option.value ~default:0 (Hashtbl.find_opt counts x))
    | None -> Alcotest.fail "unexpected None"
  done;
  let a = Option.value ~default:0 (Hashtbl.find_opt counts "a") in
  let b = Option.value ~default:0 (Hashtbl.find_opt counts "b") in
  Alcotest.(check bool) "ratio roughly 1:9" true (b > 6 * a);
  Alcotest.(check (option string)) "empty list" None
    (Rng.choose_weighted rng []);
  Alcotest.(check (option string)) "all-zero weights" None
    (Rng.choose_weighted rng [ ("a", 0.) ])

(* A sampler built once must draw what the linear scan it replaced draws,
   and consume the generator identically.  The reference below is that
   scan, kept verbatim. *)
let linear_choose rng weighted =
  let total = List.fold_left (fun acc (_, w) -> acc +. max 0. w) 0. weighted in
  if total <= 0. then None
  else begin
    let target = Rng.float rng *. total in
    let rec pick acc = function
      | [] -> None
      | (x, w) :: rest ->
          let acc = acc +. max 0. w in
          if target < acc then Some x else pick acc rest
    in
    pick 0. weighted
  end

let test_sampler_matches_linear_scan () =
  let st = Random.State.make [| 2024 |] in
  let random_weights n =
    List.init n (fun i ->
        ( i,
          match Random.State.int st 6 with
          | 0 -> 0.
          | 1 -> -.Random.State.float st 3.
          | 2 -> 1.
          | 3 -> Random.State.float st 1e-6
          | _ -> Random.State.float st 50. ))
  in
  let cases =
    [
      ("empty", []);
      ("all zero", List.init 7 (fun i -> (i, 0.)));
      ("negatives", [ (0, -2.); (1, 3.); (2, -0.5); (3, 0.); (4, 1.5) ]);
      ("all negative", [ (0, -1.); (1, -4.) ]);
      ("single", [ (0, 2.5) ]);
      ("ties", List.init 64 (fun i -> (i, 1.)));
      ("nan", [ (0, 1.); (1, Float.nan); (2, 2.) ]);
      ("infinity", [ (0, 1.); (1, Float.infinity); (2, 1.) ]);
      ("negative zero", [ (0, -0.); (1, 1.); (2, -0.); (3, 2.) ]);
    ]
    @ List.map
        (fun n -> (Printf.sprintf "%d random" n, random_weights n))
        [ 1; 2; 3; 17; 100; 1000; 5000 ]
  in
  List.iteri
    (fun c (label, weighted) ->
      let a = Rng.create (Int64.of_int (c + 1))
      and b = Rng.create (Int64.of_int (c + 1))
      and p = Rng.create (Int64.of_int (c + 1)) in
      let sampler = Rng.sampler weighted in
      (* the running sums the proposer writes, wrapped without a copy *)
      let prefixed =
        let acc = ref 0. in
        Rng.of_prefix
          (Array.of_list (List.map fst weighted))
          (Array.of_list
             (List.map
                (fun (_, w) ->
                  acc := !acc +. if 0. >= w then 0. else w;
                  !acc)
                weighted))
      in
      let k = 300 in
      let linear = List.init k (fun _ -> linear_choose a weighted) in
      let drawn = List.init k (fun _ -> Rng.draw b sampler) in
      let from_prefix = List.init k (fun _ -> Rng.draw p prefixed) in
      Alcotest.(check (list (option int))) (label ^ ": same items") linear drawn;
      Alcotest.(check (list (option int)))
        (label ^ ": same items from a prefix array")
        linear from_prefix;
      let state = Rng.next_int64 a in
      Alcotest.(check int64)
        (label ^ ": same generator state")
        state (Rng.next_int64 b);
      Alcotest.(check int64)
        (label ^ ": same generator state from a prefix array")
        state (Rng.next_int64 p))
    cases

let test_shuffle_permutes () =
  let rng = Rng.create 11L in
  let xs = List.init 20 Fun.id in
  let ys = Rng.shuffle rng xs in
  Alcotest.(check (list int)) "same elements" xs (List.sort compare ys);
  Alcotest.(check bool) "different order (overwhelmingly likely)" true (xs <> ys)

(* {2 Prompt and extraction} *)

let test_prompt_renders_hints () =
  let p = Llm.Prompt.single (Lazy.force task) Llm.Prompt.SLoc_fix in
  let text = Llm.Prompt.render p in
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions location" true (contains "fact#0");
  Alcotest.(check bool) "mentions fix" true (contains "quantifier");
  Alcotest.(check bool) "includes the spec" true (contains "sig Node")

let test_extract_fenced () =
  let response =
    "Sure! Here is the fix:\n```alloy\nsig A {}\nfact F { some A }\n```\nDone."
  in
  match Llm.Extract.spec_of_response response with
  | Some spec -> Alcotest.(check int) "one sig" 1 (List.length spec.sigs)
  | None -> Alcotest.fail "extraction failed"

let test_extract_bare () =
  let response = "sig A {}\nfact F { some A }" in
  Alcotest.(check bool) "keyword fallback works" true
    (Llm.Extract.spec_of_response response <> None)

let test_extract_garbage () =
  Alcotest.(check bool) "prose only" true
    (Llm.Extract.spec_of_response "I cannot help with that." = None);
  Alcotest.(check bool) "truncated spec" true
    (Llm.Extract.spec_of_response "```alloy\nsig A {\n```" = None)

let test_code_blocks () =
  let blocks = Llm.Extract.code_blocks "a\n```\nX\n```\nmid\n```\nY\nZ\n```\n" in
  Alcotest.(check (list string)) "two blocks" [ "X"; "Y\nZ" ] blocks

(* {2 Model} *)

let test_propose_well_typed () =
  let rng = Rng.of_context ~seed:1 [ "propose" ] in
  for _ = 1 to 20 do
    match
      Llm.Model.propose Llm.Model.gpt4 ~rng ~hints:[] Llm.Model.no_guidance
        (Lazy.force task)
    with
    | Some spec ->
        Alcotest.(check bool) "proposal type-checks" true
          (Result.is_ok (Typecheck.check_result spec));
        Alcotest.(check bool) "proposal differs from faulty" false
          (Ast.equal_spec spec (Lazy.force task).faulty)
    | None -> ()
  done

let test_propose_respects_blocklist () =
  let rng = Rng.of_context ~seed:2 [ "blocklist" ] in
  (* collect some proposals, then block them and ensure they don't recur *)
  let seen = ref [] in
  for _ = 1 to 10 do
    match
      Llm.Model.propose Llm.Model.gpt4 ~rng ~hints:[] Llm.Model.no_guidance
        (Lazy.force task)
    with
    | Some s -> if not (List.exists (Ast.equal_spec s) !seen) then seen := s :: !seen
    | None -> ()
  done;
  let guidance = { Llm.Model.no_guidance with blocked = !seen } in
  for _ = 1 to 20 do
    match
      Llm.Model.propose Llm.Model.gpt4 ~rng ~hints:[] guidance (Lazy.force task)
    with
    | Some s ->
        Alcotest.(check bool) "not in blocklist" false
          (List.exists (Ast.equal_spec s) !seen)
    | None -> ()
  done

let test_loc_hint_focuses () =
  (* with the Loc hint, the overwhelming majority of proposals should touch
     the hinted site *)
  let rng = Rng.of_context ~seed:3 [ "loc-hint" ] in
  let faulty = (Lazy.force task).faulty in
  let fact_body = Location.body faulty (Location.Fact_site 0) in
  let hits = ref 0 and total = ref 0 in
  for _ = 1 to 40 do
    match
      Llm.Model.propose Llm.Model.gpt4 ~rng ~hints:[ Llm.Prompt.Loc ]
        Llm.Model.no_guidance (Lazy.force task)
    with
    | Some s ->
        incr total;
        if not (Ast.equal_fmla (Location.body s (Location.Fact_site 0)) fact_body)
        then incr hits
    | None -> ()
  done;
  Alcotest.(check bool) "most proposals edit the hinted site" true
    (!total > 0 && float_of_int !hits /. float_of_int !total > 0.6)

(* {2 One proposal distribution per self-check loop}

   The pipelines build a prompt's proposal distribution once and draw k
   proposals from it.  That must be indistinguishable from k [propose]
   calls: the same proposals, and the generator left in the same state. *)

(* A guidance that exercises every steering input: a site boost, an op
   boost, a blocklist of the task's own early proposals, and exploration. *)
let steered_guidance (t : Llm.Task.t) =
  let blocked =
    let rng = Rng.of_context ~seed:11 [ "blocked"; t.spec_id ] in
    List.init 3 (fun _ ->
        Llm.Model.propose Llm.Model.gpt4 ~rng ~hints:[] Llm.Model.no_guidance
          t)
    |> List.filter_map Fun.id
  in
  {
    Llm.Model.site_boost = [ (List.hd (Location.sites t.faulty), 3.0) ];
    op_boost = [ ("quant-swap", 2.0) ];
    blocked;
    exploration = 0.15;
  }

let test_proposer_matches_propose () =
  let module B = Specrepair_benchmarks in
  let variant_task =
    match B.Domains.find "ctree" with
    | Some d -> B.Generate.to_task (List.hd (B.Generate.variants d))
    | None -> Alcotest.fail "no ctree domain"
  in
  let k = 6 and proposals = ref 0 in
  let hint_sets = Llm.Prompt.[ []; [ Loc ]; [ Pass ]; [ Loc; Fix ] ] in
  List.iter
    (fun (t : Llm.Task.t) ->
      let steered = steered_guidance t in
      List.iter
        (fun (profile : Llm.Model.profile) ->
          List.iteri
            (fun h hints ->
              List.iteri
                (fun g guidance ->
                  let label =
                    Printf.sprintf "%s %s hints#%d guidance#%d" t.spec_id
                      profile.name h g
                  in
                  let context = [ label ] in
                  let a = Rng.of_context ~seed:5 context
                  and b = Rng.of_context ~seed:5 context in
                  let one_by_one =
                    List.init k (fun _ ->
                        Llm.Model.propose profile ~rng:a ~hints guidance t)
                  in
                  let draw = Llm.Model.proposer profile ~hints guidance t in
                  let from_one = List.init k (fun _ -> draw b) in
                  proposals :=
                    !proposals + List.length (List.filter_map Fun.id from_one);
                  Alcotest.(check bool) (label ^ ": same proposals") true
                    (List.equal (Option.equal Ast.equal_spec) one_by_one
                       from_one);
                  Alcotest.(check bool) (label ^ ": same generator state") true
                    (Rng.next_int64 a = Rng.next_int64 b))
                [ Llm.Model.no_guidance; steered ])
            hint_sets)
        Llm.Model.panel)
    [ Lazy.force task; variant_task ];
  Alcotest.(check bool) "the draws proposed something" true (!proposals > 0)

(* {2 Mutation-space store}

   A proposal build takes its mutation space from a store, which answers a
   spec it holds physically or structurally.  The space is a function of
   the spec alone, so a store warmed by earlier prompts, about an equal
   but separately parsed spec, must draw exactly what a fresh store
   draws. *)

module Space = Specrepair_mutation.Space

let reparse spec = Parser.parse (Pretty.spec_to_string spec)

let domain_tasks =
  lazy
    (let module B = Specrepair_benchmarks in
     List.map
       (fun d -> B.Generate.to_task (B.Generate.variant_at d 0))
       B.Domains.all)

let check_stats label st (built, reused, evicted) =
  Alcotest.(check (list int))
    (label ^ ": built, reused, evicted")
    [ built; reused; evicted ]
    (List.map (Specrepair_json.Counters.find st) [ "built"; "reused"; "evicted" ])

let check_specs label store expected =
  Alcotest.(check bool)
    (label ^ ": entries, most recently used first")
    true
    (List.equal ( == ) (Space.specs store) expected)

let test_warm_store_matches_fresh () =
  let tasks = Lazy.force domain_tasks in
  let n = List.length tasks and k = 4 and proposals = ref 0 in
  let hint_sets =
    Llm.Prompt.[ []; [ Loc ]; [ Pass ]; [ Loc; Fix ]; [ Loc; Fix; Pass ] ]
  in
  List.iteri
    (fun i (t : Llm.Task.t) ->
      let copy = reparse t.faulty in
      Alcotest.(check bool)
        (t.spec_id ^ ": the copy is equal but not the same spec")
        true
        (Ast.equal_spec copy t.faulty && copy != t.faulty);
      (match (Space.build t.faulty, Typecheck.check_result t.faulty) with
      | Some space, Ok env ->
          Alcotest.(check bool)
            (t.spec_id ^ ": the space is the pooled mutations, in order")
            true
            (Array.to_list space.mutations
            = Specrepair_mutation.Mutate.all_mutations env t.faulty
                ~with_pool:true ())
      | _ -> Alcotest.failf "%s: no space" t.spec_id);
      (* warm the store from the copy and keep it through two evictions,
         with another domain's spec built first and used last *)
      let other j = (List.nth tasks ((i + j) mod n)).Llm.Task.faulty in
      let store = Space.create_store () in
      List.iter
        (fun spec -> ignore (Space.find store spec))
        [ other 1; copy; other 2; copy; other 1 ];
      check_stats t.spec_id (Space.stats store) (4, 1, 2);
      check_specs t.spec_id store [ other 1; copy ];
      let steered = steered_guidance t in
      let builds = ref 0 in
      List.iter
        (fun (profile : Llm.Model.profile) ->
          List.iteri
            (fun h hints ->
              List.iteri
                (fun g guidance ->
                  let label =
                    Printf.sprintf "%s %s hints#%d guidance#%d" t.spec_id
                      profile.name h g
                  in
                  let a = Rng.of_context ~seed:7 [ label ]
                  and b = Rng.of_context ~seed:7 [ label ] in
                  let fresh = Llm.Model.proposer profile ~hints guidance t in
                  let warm =
                    Llm.Model.proposer ~spaces:store profile ~hints guidance t
                  in
                  incr builds;
                  let xs = List.init k (fun _ -> fresh a) in
                  let ys = List.init k (fun _ -> warm b) in
                  proposals := !proposals + List.length (List.filter_map Fun.id ys);
                  Alcotest.(check bool) (label ^ ": same proposals") true
                    (List.equal (Option.equal Ast.equal_spec) xs ys);
                  Alcotest.(check bool) (label ^ ": same generator state") true
                    (Rng.next_int64 a = Rng.next_int64 b))
                [ Llm.Model.no_guidance; steered ])
            hint_sets)
        Llm.Model.panel;
      (* every build above was answered by the copy's entry *)
      check_stats t.spec_id (Space.stats store) (4, 1 + !builds, 2);
      check_specs t.spec_id store [ copy; other 1 ])
    tasks;
  Alcotest.(check bool) "the warm draws proposed something" true
    (!proposals > 0)

let test_ill_typed_space () =
  let t =
    Llm.Task.make ~spec_id:"ill-typed" ~domain:"graphs"
      ~faulty:(Parser.parse "sig Node {}\nfact { some Missing }\n")
      ()
  in
  Alcotest.(check bool) "the spec does not type-check" true
    (Result.is_error (Typecheck.check_result t.faulty));
  let store = Space.create_store () in
  List.iter
    (fun label ->
      let rng = Rng.of_context ~seed:3 [ label ] in
      Alcotest.(check bool) (label ^ ": fresh store proposes nothing") true
        (Llm.Model.proposer Llm.Model.gpt4 ~hints:[] Llm.Model.no_guidance t
           rng
        = None);
      Alcotest.(check bool) (label ^ ": warm store proposes nothing") true
        (Llm.Model.proposer ~spaces:store Llm.Model.gpt4 ~hints:[]
           Llm.Model.no_guidance t rng
        = None))
    [ "first"; "second" ];
  check_stats "ill-typed" (Space.stats store) (1, 1, 0)

let test_store_is_lru () =
  let specs =
    List.map (fun (t : Llm.Task.t) -> t.faulty) (Lazy.force domain_tasks)
  in
  let a = List.nth specs 0 and b = List.nth specs 1 and c = List.nth specs 2 in
  let store = Space.create_store () in
  let step label spec expected stats =
    ignore (Space.find store spec);
    if List.length (Space.specs store) > Space.capacity then
      Alcotest.failf "%s: %d entries" label (List.length (Space.specs store));
    check_specs label store expected;
    check_stats label (Space.stats store) stats
  in
  Alcotest.(check int) "capacity" 2 Space.capacity;
  step "a" a [ a ] (1, 0, 0);
  step "b" b [ b; a ] (2, 0, 0);
  step "a again" a [ a; b ] (2, 1, 0);
  step "c evicts b" c [ c; a ] (3, 1, 1);
  step "b is rebuilt" b [ b; c ] (4, 1, 2);
  step "an equal copy of c" (reparse c) [ c; b ] (4, 2, 2)

(* {2 Pipelines} *)

let session_for ~seed () =
  Specrepair_repair.Session.for_spec ~seed (Lazy.force task).Llm.Task.faulty

let test_single_round_deterministic () =
  let r1 =
    Llm.Single_round.repair ~session:(session_for ~seed:5 ())
      (Lazy.force task) Llm.Prompt.SLoc
  in
  let r2 =
    Llm.Single_round.repair ~session:(session_for ~seed:5 ())
      (Lazy.force task) Llm.Prompt.SLoc
  in
  Alcotest.(check bool) "same seed, same outcome" true
    (Ast.equal_spec r1.final_spec r2.final_spec);
  let r3 =
    Llm.Single_round.repair ~session:(session_for ~seed:6 ())
      (Lazy.force task) Llm.Prompt.SLoc
  in
  ignore r3 (* may or may not differ; just ensure it runs *)

let test_multi_round_repairs_simple_fault () =
  let r =
    Llm.Multi_round.repair ~session:(session_for ~seed:42 ())
      (Lazy.force task) Llm.Multi_round.Generic
  in
  Alcotest.(check bool) "multi-round fixes the quant fault" true r.repaired;
  match Specrepair_repair.Common.env_of_spec r.final_spec with
  | Some env ->
      Alcotest.(check bool) "oracle passes" true
        (Specrepair_repair.Common.oracle_passes
           (Specrepair_repair.Session.create env) env)
  | None -> Alcotest.fail "final spec ill-typed"

let test_trace_called () =
  let calls = ref 0 in
  let _ =
    Llm.Multi_round.repair ~session:(session_for ~seed:9 ())
      ~trace:(fun ~round:_ ~prompt:_ ~response:_ -> incr calls)
      (Lazy.force task) Llm.Multi_round.No_feedback
  in
  Alcotest.(check bool) "trace observed at least one round" true (!calls >= 1)

let test_malformed_channel_exists () =
  (* over many seeds, the malformed-output channel must fire sometimes and
     extraction must consequently fail *)
  let failures = ref 0 in
  for seed = 0 to 60 do
    let rng = Rng.of_context ~seed [ "malformed-scan" ] in
    let prompt = Llm.Prompt.single (Lazy.force task) Llm.Prompt.SNone in
    let response = Llm.Model.respond Llm.Model.gpt4 ~rng Llm.Model.no_guidance prompt in
    if Llm.Extract.spec_of_response response = None then incr failures
  done;
  Alcotest.(check bool) "some responses are unusable" true (!failures >= 1);
  Alcotest.(check bool) "most responses are usable" true (!failures <= 30)

let test_profiles () =
  Alcotest.(check string) "gpt4 name" "gpt-4" Llm.Model.gpt4.name;
  Alcotest.(check string) "gpt35 name" "gpt-3.5" Llm.Model.gpt35.name;
  Alcotest.(check bool) "gpt35 flatter" true
    (Llm.Model.gpt35.temperature > Llm.Model.gpt4.temperature);
  Alcotest.(check bool) "gpt35 weaker self-check" true
    (Llm.Model.gpt35.self_check_samples < Llm.Model.gpt4.self_check_samples);
  Alcotest.(check bool) "gpt35 more malformed output" true
    (Llm.Model.gpt35.malformed_rate > Llm.Model.gpt4.malformed_rate)

let test_tool_names () =
  Alcotest.(check string) "single name" "Single-Round_Loc+Fix"
    (Llm.Single_round.tool_name Llm.Prompt.SLoc_fix);
  Alcotest.(check string) "multi name" "Multi-Round_None"
    (Llm.Multi_round.tool_name Llm.Multi_round.No_feedback)

let () =
  Alcotest.run "llm"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "context-sensitive" `Quick test_rng_context_sensitivity;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "weighted choice" `Quick test_choose_weighted;
          Alcotest.test_case "sampler matches linear scan" `Quick
            test_sampler_matches_linear_scan;
          Alcotest.test_case "shuffle" `Quick test_shuffle_permutes;
        ] );
      ( "prompt+extract",
        [
          Alcotest.test_case "hints rendered" `Quick test_prompt_renders_hints;
          Alcotest.test_case "fenced extraction" `Quick test_extract_fenced;
          Alcotest.test_case "keyword fallback" `Quick test_extract_bare;
          Alcotest.test_case "garbage rejected" `Quick test_extract_garbage;
          Alcotest.test_case "code blocks" `Quick test_code_blocks;
        ] );
      ( "model",
        [
          Alcotest.test_case "proposals well-typed" `Quick test_propose_well_typed;
          Alcotest.test_case "blocklist respected" `Quick
            test_propose_respects_blocklist;
          Alcotest.test_case "loc hint focuses" `Quick test_loc_hint_focuses;
          Alcotest.test_case "one proposer, k draws" `Quick
            test_proposer_matches_propose;
        ] );
      ( "space store",
        [
          Alcotest.test_case "warm space store matches fresh" `Quick
            test_warm_store_matches_fresh;
          Alcotest.test_case "ill-typed spec built once" `Quick
            test_ill_typed_space;
          Alcotest.test_case "bounded, least recently used out" `Quick
            test_store_is_lru;
        ] );
      ( "pipelines",
        [
          Alcotest.test_case "single-round deterministic" `Quick
            test_single_round_deterministic;
          Alcotest.test_case "multi-round repairs" `Quick
            test_multi_round_repairs_simple_fault;
          Alcotest.test_case "tool names" `Quick test_tool_names;
          Alcotest.test_case "model profiles" `Quick test_profiles;
          Alcotest.test_case "trace callback" `Quick test_trace_called;
          Alcotest.test_case "malformed channel" `Quick test_malformed_channel_exists;
        ] );
    ]
