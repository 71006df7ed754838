module Alloy = Specrepair_alloy
module Benchmarks = Specrepair_benchmarks
module Repair = Specrepair_repair
module Session = Repair.Session
module Llm = Specrepair_llm
module Metrics = Specrepair_metrics
module Aunit = Specrepair_aunit.Aunit

type spec_result = {
  variant_id : string;
  domain : string;
  benchmark : Benchmarks.Domains.benchmark;
  technique : string;
  rep : int;
  tm : float;
  sm : float;
  tool_claimed : bool;
  time_ms : float;
}

let suite_cache : (string, Aunit.test list) Hashtbl.t = Hashtbl.create 18

(* One incremental oracle per domain, shared by every variant and technique:
   faults mutate only constraint bodies, so all of a domain's variants (and
   their repair candidates) declare the ground truth's signatures and can
   reuse its solving contexts and verdict cache.  Candidates recur heavily
   across techniques — the cache answers the repeats.  Each (variant,
   technique) row gets its own {!Session.t} around this oracle, so budgets,
   deadlines and telemetry stay per-row while the solving state spans the
   domain.  The domain's mutation-space store sits in the same entry: rows
   run variant by variant, so a variant's LLM rows share their faulty
   spec's space (the store keeps two, least recently used out). *)
type domain_state = {
  oracle : Specrepair_solver.Oracle.t;
  spaces : Specrepair_mutation.Space.store;
}

let domain_cache : (string, domain_state) Hashtbl.t = Hashtbl.create 18

let domain_state (d : Benchmarks.Domains.t) =
  match Hashtbl.find_opt domain_cache d.name with
  | Some st -> st
  | None ->
      let st =
        {
          oracle = Specrepair_solver.Oracle.create (Benchmarks.Domains.env d);
          spaces = Specrepair_mutation.Space.create_store ();
        }
      in
      Hashtbl.replace domain_cache d.name st;
      st

let aunit_suite (d : Benchmarks.Domains.t) =
  match Hashtbl.find_opt suite_cache d.name with
  | Some s -> s
  | None ->
      let env = Benchmarks.Domains.env d in
      let scope =
        (* generate valuations at the commands' scope *)
        match env.spec.commands with
        | c :: _ -> Specrepair_solver.Bounds.scope_of_command c
        | [] -> Specrepair_solver.Analyzer.default_scope
      in
      let session = Session.create ~oracle:(domain_state d).oracle env in
      let s = Aunit.generate ~session ~per_kind:4 env ~scope in
      Hashtbl.replace suite_cache d.name s;
      s

(* The model profile for a domain: familiarity sharpens (or flattens) the
   proposal distribution.  The same adjustment applies to every panel
   member; with the default [gpt4] base this is the pre-panel profile,
   bit-identically. *)
let profile_for ?(base = Llm.Model.gpt4) (d : Benchmarks.Domains.t) =
  { base with Llm.Model.temperature = base.Llm.Model.temperature /. d.familiarity }

(* Per-tool budget calibration: the knobs that align each engine's search
   effort with the scale of its real counterpart (see EXPERIMENTS.md). *)
let budget_for technique (base : Repair.Common.budget) =
  match (technique : Technique.t) with
  | Technique.ARepair ->
      { base with locations = 2; max_candidates = 50; max_depth = 2 }
  | Technique.BeAFix ->
      (* the bounded-exhaustive sweep hits its exploration ceiling quickly —
         the analogue of the original tool's timeouts on its benchmarks *)
      { base with locations = 5; max_candidates = 14; use_pool = false }
  | Technique.ATR -> { base with locations = 5; max_candidates = 380 }
  | Technique.ICEBAR ->
      { base with max_iterations = 4; max_candidates = 480 }
  | Technique.Single _ | Technique.Multi _ -> base

let apply_technique ~session technique (v : Benchmarks.Generate.variant) =
  let faulty_env () =
    match Alloy.Typecheck.check_result v.injected.Benchmarks.Fault.faulty with
    | Ok env -> env
    | Error msg -> failwith ("faulty variant does not type-check: " ^ msg)
  in
  let take n xs = List.filteri (fun i _ -> i < n) xs in
  match (technique : Technique.t) with
  | Technique.ARepair ->
      (* ARepair sees a thinner suite than ICEBAR accumulates, mirroring the
         limited hand-written AUnit tests it shipped with; its search is
         pure test evaluation and never touches the session oracle (the
         suite itself is oracle-generated) *)
      Repair.Arepair.repair ~session (faulty_env ())
        (take 3 (aunit_suite v.domain))
  | Technique.ICEBAR ->
      Repair.Icebar.repair ~session (faulty_env ()) (aunit_suite v.domain)
  | Technique.BeAFix -> Repair.Beafix.repair ~session (faulty_env ())
  | Technique.ATR -> Repair.Atr.repair ~session (faulty_env ())
  | Technique.Single (setting, profile) ->
      Llm.Single_round.repair ~session
        ~profile:(profile_for ~base:profile v.domain)
        (Benchmarks.Generate.to_task v) setting
  | Technique.Multi (fb, profile) ->
      Llm.Multi_round.repair ~session
        ~profile:(profile_for ~base:profile v.domain)
        (Benchmarks.Generate.to_task v) fb

let run_one ?(seed = 42) ?(budget = Repair.Common.default_budget) ?deadline_ms
    ?telemetry technique (v : Benchmarks.Generate.variant) =
  (* one session per study row: shared domain oracle and space store,
     per-technique budget, monotonic clock for [time_ms], stopped before
     scoring so that the telemetry line's [elapsed_ms] is the row's
     [time_ms] *)
  let { oracle; spaces } = domain_state v.domain in
  let session =
    Session.create ~oracle ~spaces
      ~budget:(budget_for technique budget)
      ~seed ?deadline_ms
      (Benchmarks.Domains.env v.domain)
  in
  let result = apply_technique ~session technique v in
  Session.stop_clock session;
  let elapsed = Session.elapsed_ms session in
  (* the line reads the shared oracle's counters live, so it is built
     before REP below queries that oracle *)
  let line =
    Option.map
      (fun sink ->
        ( sink,
          Session.telemetry_json
            ~extra:
              [
                ("variant_id", v.id);
                ("technique", Technique.name technique);
                ("defect_class", v.injected.Benchmarks.Fault.class_name);
                ("tool", result.Repair.Common.tool);
                ("repaired", string_of_bool result.Repair.Common.repaired);
              ]
            session ))
      telemetry
  in
  let final = result.Repair.Common.final_spec in
  (* REP's verdicts come from the row's domain oracle at the budget the
     engines queried it with ([budget_for] keeps [max_conflicts]), so a
     command the technique already solved is a verdict-table hit *)
  let rep =
    Bool.to_int
      (Metrics.Rep.rep_with
         ~verdict:
           (Specrepair_solver.Oracle.command_verdict
              ~max_conflicts:budget.Repair.Common.max_conflicts oracle)
         ~ground_truth:v.ground_truth ~candidate:final)
  in
  let gt_text = Alloy.Pretty.spec_to_string v.ground_truth in
  let cand_text = Alloy.Pretty.spec_to_string final in
  let tm = Metrics.Bleu.token_match ~reference:gt_text ~candidate:cand_text in
  let sm = Metrics.Tree_kernel.syntax_match v.ground_truth final in
  Option.iter (fun (sink, l) -> sink l) line;
  {
    variant_id = v.id;
    domain = v.domain.name;
    benchmark = v.domain.benchmark;
    technique = Technique.name technique;
    rep;
    tm;
    sm;
    tool_claimed = result.Repair.Common.repaired;
    time_ms = elapsed;
  }

let run_sequential ~seed ~budget ?deadline_ms ?telemetry ~techniques ~progress
    variants =
  let total = List.length variants * List.length techniques in
  let done_count = ref 0 in
  List.concat_map
    (fun v ->
      List.map
        (fun t ->
          let r = run_one ~seed ~budget ?deadline_ms ?telemetry t v in
          incr done_count;
          if !done_count mod 100 = 0 then
            progress
              (Printf.sprintf "%d/%d (%s on %s)" !done_count total r.technique
                 r.variant_id);
          r)
        techniques)
    variants

(* {2 CSV round trip} *)

let header = "variant_id,domain,benchmark,technique,rep,tm,sm,tool_claimed,time_ms"

let row_to_line ?(timings = true) r =
  Printf.sprintf "%s,%s,%s,%s,%d,%.6f,%.6f,%b,%.3f" r.variant_id r.domain
    (Benchmarks.Domains.benchmark_to_string r.benchmark)
    r.technique r.rep r.tm r.sm r.tool_claimed
    (if timings then r.time_ms else 0.)

let to_csv ?timings results =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf (row_to_line ?timings r);
      Buffer.add_char buf '\n')
    results;
  Buffer.contents buf

let row_of_line line =
  let malformed what =
    failwith (Printf.sprintf "Study.of_csv: %s in row %S" what line)
  in
  match String.split_on_char ',' line with
  | [ vid; dom; bench; tech; rep; tm; sm; claimed; time_ms ] -> (
      let benchmark =
        match bench with
        | "A4F" -> Benchmarks.Domains.A4F
        | "ARepair" -> Benchmarks.Domains.ARepair_bench
        | other -> malformed (Printf.sprintf "unknown benchmark %S" other)
      in
      try
        {
          variant_id = vid;
          domain = dom;
          benchmark;
          technique = tech;
          rep = int_of_string rep;
          tm = float_of_string tm;
          sm = float_of_string sm;
          tool_claimed = bool_of_string claimed;
          time_ms = float_of_string time_ms;
        }
      with Failure _ | Invalid_argument _ -> malformed "unparsable field")
  | fields ->
      malformed (Printf.sprintf "%d fields, expected 9" (List.length fields))

(* A truncated file (a worker killed mid-write under the old scheme, a
   torn copy, a partial download) must not silently shed rows: every
   non-empty, non-header line either parses or raises. *)
let of_csv text =
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if line = "" || line = header then None else Some (row_of_line line))
    (String.split_on_char '\n' text)

(* {2 Streaming runner}

   Every multi-process study goes through here.  The corpus is a
   {!Corpus_stream} index range (variants derived on demand in the
   workers) and the results live as checkpointed shards in a run
   directory ({!Scheduler.map_checkpointed}): a worker that dies
   mid-chunk costs one chunk of recompute (bounded retries), a killed
   run resumes from the manifest's pending complement, and both sides of
   the study are O(chunk) memory whatever the total.  Safe because every
   row is deterministic and workers share nothing; per-row telemetry
   lines ride along in the chunk files and are replayed into the
   caller's sink as each chunk is merged, followed by one final
   [{"scheduler":…}] summary line. *)

(* the final [{"scheduler":…}] telemetry line of a multi-process run *)
let scheduler_line ~jobs stats =
  let module Json = Specrepair_json in
  Json.to_string
    (Json.Obj
       [
         ( Json.Counters.name stats,
           Json.Obj (("jobs", Json.int jobs) :: Json.Counters.fields stats) );
       ])

let stream_fingerprint ~seed ~source ~techniques ~total =
  Corpus_stream.fingerprint ~source ~seed ~total:(total * List.length techniques)
    ~options:
      [
        "variants=" ^ string_of_int total;
        "techniques=" ^ String.concat "+" (List.map Technique.name techniques);
      ]

let run_stream ?(seed = 42) ?(budget = Repair.Common.default_budget)
    ?deadline_ms ?telemetry ?(techniques = Technique.all) ?(jobs = 1)
    ?(max_retries = 2) ?on_stats
    ?(progress = fun _ -> ()) ?(source = Corpus_stream.Injected)
    ?(resume = false) ~dir ~total () =
  if techniques = [] then invalid_arg "Study.run_stream: no techniques";
  if total <= 0 then invalid_arg "Study.run_stream: total must be positive";
  let ntech = List.length techniques in
  let tech = Array.of_list techniques in
  let nrows = total * ntech in
  let fingerprint = stream_fingerprint ~seed ~source ~techniques ~total in
  let want_telemetry = Option.is_some telemetry in
  (* worker-local memo: work items are variant-major, so a chunk asks for
     each variant's [ntech] rows consecutively — derive it once, not once
     per technique.  Lives in the worker process (f runs post-fork). *)
  let last = ref None in
  let f ~emit i =
    let vi = i / ntech and ti = i mod ntech in
    let v =
      match !last with
      | Some (j, v) when j = vi -> v
      | _ ->
          let v = Corpus_stream.variant ~source ~seed vi in
          last := Some (vi, v);
          v
    in
    let telemetry = if want_telemetry then Some emit else None in
    row_to_line (run_one ~seed ~budget ?deadline_ms ?telemetry tech.(ti) v)
  in
  let stats =
    Scheduler.map_checkpointed ~jobs ~max_retries ~progress ?emit:telemetry
      ~resume ~dir ~fingerprint ~f nrows
  in
  Option.iter (fun sink -> sink (scheduler_line ~jobs stats)) telemetry;
  Option.iter (fun g -> g stats) on_stats;
  let get = Specrepair_json.Counters.get stats in
  progress
    (Printf.sprintf
       "%d rows this run (%d total) from %d worker(s): %d chunks, %d retries, \
        %d workers lost"
       (get Scheduler.rows_completed)
       nrows jobs
       (get Scheduler.chunks_completed)
       (get Scheduler.retries) (get Scheduler.workers_lost));
  stats

(* The verified merge: the rows of a complete run in global row order,
   one shard in memory at a time, each with its CSV line.

   Every row is re-parsed on the way through — the scheduler's shard
   verification checks the framing (indices, coverage), but only this
   layer knows the payload is a study row, and a shard truncated inside
   a payload would otherwise slip into the merged rows.  An unparsable
   row means a shard changed after it was checkpointed: that is a
   corrupt checkpoint, reported as such. *)
let fold_stream ~dir f acc =
  Scheduler.fold_shards ~dir
    (fun acc i line ->
      let row =
        try row_of_line line
        with Failure msg ->
          raise
            (Manifest.Corrupt
               (Printf.sprintf
                  "%s: merged row %d does not parse (%s) — a shard was \
                   modified after checkpointing"
                  dir i msg))
      in
      f acc line row)
    acc

(* [~timings:false] re-normalizes each row through the CSV codec to zero
   [time_ms], the same byte-stability contract as {!to_csv}. *)
let write_stream_csv ?(timings = true) ~dir oc =
  output_string oc header;
  output_char oc '\n';
  fold_stream ~dir
    (fun count line row ->
      output_string oc (if timings then line else row_to_line ~timings row);
      output_char oc '\n';
      count + 1)
    0

let read_stream ~dir =
  List.rev (fold_stream ~dir (fun acc _ row -> row :: acc) [])

(* The scratch run directory of a multi-process {!run}: flat (manifest,
   shards, stray chunk files), so emptying it is one [readdir]. *)
let remove_run_dir dir =
  try
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    Unix.rmdir dir
  with Sys_error _ | Unix.Unix_error _ -> ()

(* With [jobs > 1] the variant list is streamed like any other corpus
   (a [Custom] source over it) into a scratch run directory and read
   back through the verified merge: row order is the sequential run's,
   so the CSV is byte-identical to [jobs = 1] modulo [time_ms]. *)
let run ?(seed = 42) ?(budget = Repair.Common.default_budget) ?deadline_ms
    ?telemetry ?(techniques = Technique.all) ?(jobs = 1) ?max_retries ?on_stats
    ?(progress = fun _ -> ()) variants =
  if jobs <= 1 || variants = [] || techniques = [] then
    run_sequential ~seed ~budget ?deadline_ms ?telemetry ~techniques ~progress
      variants
  else begin
    let dir = Filename.temp_dir "specrepair_study_" "" in
    Fun.protect
      ~finally:(fun () -> remove_run_dir dir)
      (fun () ->
        ignore
          (run_stream ~seed ~budget ?deadline_ms ?telemetry ~techniques ~jobs
             ?max_retries ?on_stats ~progress
             ~source:(Corpus_stream.of_variants ~name:"variants" variants)
             ~dir ~total:(List.length variants) ());
        read_stream ~dir)
  end
