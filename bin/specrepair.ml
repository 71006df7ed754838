(* specrepair — command-line front end.

   Subcommands: parse, analyze, repair, evaluate, domains.  `evaluate`
   regenerates the paper's tables and figures (optionally on a stratified
   sample for quick runs). *)

open Cmdliner
module Alloy = Specrepair_alloy
module Solver = Specrepair_solver
module Repair = Specrepair_repair
module Llm = Specrepair_llm
module Benchmarks = Specrepair_benchmarks
module Eval = Specrepair_eval
module Json = Specrepair_json

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Load + frontend-check a spec, rendering positioned diagnostics.
   Warnings go to stderr; an error renders with its caret line and exits
   1 (a diagnostic is a verdict on the input, not a usage error). *)
let load_env path =
  let src = read_file path in
  match Alloy.Frontend.check ~file:path src with
  | Ok ok ->
      List.iter
        (fun w -> prerr_endline (Alloy.Diagnostic.render ~source:src w))
        ok.Alloy.Frontend.warnings;
      ok.Alloy.Frontend.env
  | Error d ->
      prerr_endline (Alloy.Diagnostic.render ~source:src d);
      exit 1

(* [--jobs 0], negative [--jobs] and [--sample 0] are always mistakes:
   reject them at parse time with a usage error instead of forking zero
   workers or running an empty study. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ | None -> Error (`Msg "expected a positive integer")
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let nonneg_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some _ | None -> Error (`Msg "expected a non-negative integer")
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

(* Runs a checkpointed study for [cmd] ([evaluate] or [study]) and turns
   its expected failures into one [<cmd>: …] line on stderr and exit 1: a
   rejected checkpoint, a fresh run refused over a directory that already
   holds one, and a chunk whose worker died more often than [--retries]
   allows. *)
let reporting_study_failures cmd f =
  let fail msg =
    Printf.eprintf "%s: %s\n%!" cmd msg;
    exit 1
  in
  try f () with
  | Eval.Manifest.Corrupt msg -> fail ("checkpoint rejected: " ^ msg)
  | Eval.Scheduler.Checkpoint_exists { dir; rows } ->
      fail
        (Printf.sprintf
           "%s already holds a checkpoint with %d completed rows; pass \
            --resume to continue it or use a fresh directory"
           dir rows)
  | Failure msg -> fail msg
  | Eval.Scheduler.Chunk_failed _ as e -> fail (Printexc.to_string e)

(* The simulated-LLM profile, shared by [repair], [evaluate] and
   [hybrid-table].  An [Arg.enum] over the panel registry rejects unknown
   names at parse time (usage error, exit 124) — a typoed profile must
   never fall back silently to the default model. *)
let profile_conv =
  Arg.enum
    (List.map (fun (p : Llm.Model.profile) -> (p.Llm.Model.name, p)) Llm.Model.panel)

let profile_arg =
  Arg.(
    value
    & opt profile_conv Llm.Model.gpt4
    & info [ "profile" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf
             "Simulated LLM profile for the LLM-backed engines: one of %s."
             (String.concat ", " Llm.Model.panel_names)))

(* {2 parse} *)

let parse_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let pretty =
    Arg.(
      value & flag
      & info [ "pretty" ]
          ~doc:"Reprint the parsed specification as Alloy source on stdout")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json-diagnostics" ]
          ~doc:
            "Report diagnostics as a JSON array on stdout instead of \
             rendering them on stderr")
  in
  let run file pretty json =
    let src = read_file file in
    let print_json ds =
      print_endline
        (Json.to_string (Json.List (List.map Alloy.Diagnostic.to_json ds)))
    in
    match Alloy.Frontend.check ~file src with
    | Ok ok ->
        if json then print_json ok.Alloy.Frontend.warnings
        else
          List.iter
            (fun w -> prerr_endline (Alloy.Diagnostic.render ~source:src w))
            ok.Alloy.Frontend.warnings;
        if pretty then print_string (Alloy.Pretty.source ok.Alloy.Frontend.spec);
        `Ok ()
    | Error d ->
        if json then print_json [ d ]
        else prerr_endline (Alloy.Diagnostic.render ~source:src d);
        exit 1
  in
  Cmd.v
    (Cmd.info "parse"
       ~doc:
         "Parse, elaborate and type-check a specification through the Alloy \
          4.2 frontend; exit 0 if it is well-formed")
    Term.(ret (const run $ file $ pretty $ json))

(* {2 analyze} *)

let analyze_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    match load_env file with
    | env ->
        if env.Alloy.Typecheck.spec.commands = [] then
          print_endline "no commands to run"
        else
          List.iter
            (fun (c : Alloy.Ast.command) ->
              let label =
                match c.cmd_kind with
                | Alloy.Ast.Run_pred n -> "run " ^ n
                | Alloy.Ast.Run_fmla _ -> "run {...}"
                | Alloy.Ast.Check n -> "check " ^ n
              in
              match Solver.Analyzer.run_command env c with
              | Solver.Analyzer.Sat inst ->
                  Format.printf "%s: SAT@.%a@." label Alloy.Instance.pp inst
              | Solver.Analyzer.Unsat -> Format.printf "%s: UNSAT@." label
              | Solver.Analyzer.Unknown -> Format.printf "%s: UNKNOWN@." label)
            env.Alloy.Typecheck.spec.commands;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Run every command of a specification")
    Term.(ret (const run $ file))

(* {2 repair} *)

(* "Repair engine: beafix, atr, multi-round, or portfolio" *)
let tool_doc =
  match List.rev_map fst Eval.Portfolio.tools with
  | last :: rest ->
      Printf.sprintf "Repair engine: %s, or %s"
        (String.concat ", " (List.rev rest))
        last
  | [] -> "Repair engine"

let repair_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let tool =
    let names = List.map (fun (name, _) -> (name, name)) Eval.Portfolio.tools in
    Arg.(value & opt (enum names) "beafix" & info [ "tool" ] ~doc:tool_doc)
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ]) in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock deadline for the whole repair (monotonic clock). \
             Expired runs return their best effort with timed out: true.")
  in
  let telemetry =
    Arg.(
      value & flag
      & info [ "telemetry" ]
          ~doc:"Print the session's telemetry as one JSON line on stderr")
  in
  let stats_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "stats" ] ~docv:"FILE"
          ~doc:
            "With $(b,--tool portfolio): order the runnable techniques by \
             the mined statistics in $(docv) (expected value per \
             millisecond for the task's defect class) and race the top of \
             the ranking under the deadline.  Without statistics for the \
             class the static ATR $(i,then) Multi-Round pipeline runs \
             unchanged.  The file is written by $(b,hybrid-table \
             --stats-out) or mined from telemetry; a tampered or \
             truncated one is rejected loudly.")
  in
  let run file tool seed deadline_ms telemetry stats_file profile =
    match load_env file with
    | env ->
        let session = Repair.Session.create ~seed ?deadline_ms env in
        let task =
          Llm.Task.make ~spec_id:file ~domain:"cli"
            ~faulty:env.Alloy.Typecheck.spec ()
        in
        let result =
          match (tool, stats_file) with
          | "portfolio", Some path ->
              let stats =
                try Eval.Learned.load path
                with Eval.Learned.Corrupt_stats msg ->
                  Printf.eprintf "repair: statistics rejected: %s\n%!" msg;
                  exit 1
              in
              let o =
                Eval.Portfolio.repair_learned ~session ~profile ~stats task
              in
              Printf.eprintf "plan: class %s, %s%s\n%!"
                o.Eval.Portfolio.chosen_plan.Eval.Portfolio.defect_class
                (if o.chosen_plan.Eval.Portfolio.learned then "learned"
                 else "cold start (static pipeline)")
                (match o.attempted with
                | [] -> ""
                | ts -> "; attempted " ^ String.concat ", " ts);
              o.Eval.Portfolio.result
          | _ ->
              (List.assoc tool Eval.Portfolio.tools) ~session ~profile env task
        in
        Format.printf
          "tool: %s@.repaired: %b@.candidates tried: %d@.timed out: %b@.@.%s"
          result.Repair.Common.tool result.repaired result.candidates_tried
          result.timed_out
          (Alloy.Pretty.spec_to_string result.final_spec);
        if telemetry then
          prerr_endline
            (Repair.Session.telemetry_json
               ~extra:[ ("tool", result.Repair.Common.tool) ]
               session);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:"Repair a faulty specification against its own commands")
    Term.(
      ret
        (const run $ file $ tool $ seed $ deadline_ms $ telemetry $ stats_file
       $ profile_arg))

(* {2 domains} *)

let domains_cmd =
  let run () =
    Printf.printf "%-14s %-8s %6s  %s\n" "domain" "bench" "count" "fault mix";
    List.iter
      (fun (d : Benchmarks.Domains.t) ->
        Printf.printf "%-14s %-8s %6d  %s\n" d.name
          (Benchmarks.Domains.benchmark_to_string d.benchmark)
          d.count
          (String.concat ", "
             (List.map (fun (c, w) -> Printf.sprintf "%s:%.2f" c w) d.fault_mix)))
      Benchmarks.Domains.all;
    Printf.printf "\nTotal: A4F %d + ARepair %d = %d\n"
      (Benchmarks.Domains.total_count Benchmarks.Domains.A4F)
      (Benchmarks.Domains.total_count Benchmarks.Domains.ARepair_bench)
      (Benchmarks.Domains.total_count Benchmarks.Domains.A4F
      + Benchmarks.Domains.total_count Benchmarks.Domains.ARepair_bench)
  in
  Cmd.v (Cmd.info "domains" ~doc:"List benchmark domains") Term.(const run $ const ())

(* {2 evaluate} *)

let evaluate_cmd =
  let sample =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "sample" ] ~docv:"N" ~doc:"Use only the first N variants per domain")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ]) in
  let jobs =
    Arg.(
      value
      & opt positive_int 1
      & info [ "jobs"; "j" ] ~doc:"Parallel worker processes")
  in
  let retries =
    Arg.(
      value
      & opt nonneg_int 2
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "How many times a chunk of study rows may be requeued after its \
             worker dies before the run fails (parallel runs only)")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet" ] ~doc:"Suppress per-chunk progress messages on stderr")
  in
  let what =
    Arg.(
      value
      & opt_all (enum [ ("table1", `T1); ("fig2", `F2); ("fig3", `F3); ("table2", `T2); ("table3", `T3); ("summary", `S) ]) []
      & info [ "show" ]
          ~doc:
            "Artifacts to print (default: all of table1, fig2, fig3, \
             table2, summary; $(b,table3) — the model-panel union coverage \
             — is opt-in)")
  in
  let profiles =
    Arg.(
      value
      & opt_all profile_conv []
      & info [ "profile" ] ~docv:"NAME"
          ~doc:
            "Add this simulated-LLM profile's techniques to the study \
             roster (repeatable).  Default: the paper's roster, i.e. the \
             gpt-4 profile only.")
  in
  let csv_out =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Write raw results CSV")
  in
  let csv_in =
    Arg.(
      value
      & opt (some file) None
      & info [ "from-csv" ] ~docv:"FILE" ~doc:"Render from a cached results CSV instead of running")
  in
  let artifacts_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "artifacts-dir" ] ~docv:"DIR"
          ~doc:"Also write table1.csv, fig2.csv, fig3.csv, table2.csv to DIR")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Per-row wall-clock deadline (monotonic clock)")
  in
  let telemetry_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"FILE"
          ~doc:"Write per-row telemetry as JSON lines to FILE")
  in
  let run_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "run-dir" ] ~docv:"DIR"
          ~doc:
            "Stream the study through the checkpoint/resume scheduler: \
             result shards and a manifest land in $(docv) as chunks \
             complete, so a crashed run can be picked up with \
             $(b,--resume).  Tables are rendered from the merged shards.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume the checkpointed run in $(b,--run-dir): validate the \
             manifest and its shards, then compute only the pending rows.")
  in
  let run sample seed jobs retries quiet what profiles csv_out csv_in
      artifacts_dir deadline_ms telemetry_out run_dir resume =
    if resume && Option.is_none run_dir then
      `Error (true, "--resume requires --run-dir (the checkpoint to resume)")
    else begin
      (* the paper's twelve-technique roster unless profiles widen it: the
         four traditional engines plus each requested profile's LLM
         techniques (labelled with an @profile suffix past the default) *)
      let techniques =
        match profiles with
        | [] -> Eval.Technique.all
        | ps ->
            Eval.Technique.traditional
            @ List.concat_map Eval.Technique.llm_for ps
      in
      let telemetry_chan = Option.map open_out telemetry_out in
      let telemetry =
        Option.map
          (fun oc line ->
            output_string oc line;
            output_char oc '\n')
          telemetry_chan
      in
      let progress =
        if quiet then fun _ -> () else fun msg -> Printf.eprintf "  %s\n%!" msg
      in
      let results =
        match (csv_in, run_dir) with
        | Some path, _ -> Eval.Study.of_csv (read_file path)
        | None, Some dir ->
            (* a sample is streamed as a list source whose name records
               its size, so the checkpoint fingerprint covers it *)
            let source, total =
              match sample with
              | None ->
                  ( Eval.Corpus_stream.Injected,
                    Eval.Corpus_stream.natural_total () )
              | Some n ->
                  let variants =
                    Benchmarks.Generate.sample ~seed ~per_domain:n ()
                  in
                  ( Eval.Corpus_stream.of_variants
                      ~name:(Printf.sprintf "injected-sample-%d" n)
                      variants,
                    List.length variants )
            in
            if not quiet then
              Printf.eprintf
                "streaming %d variants x %d techniques into %s%s...\n%!" total
                (List.length techniques)
                dir
                (if resume then " (resume)" else "");
            ignore
              (Eval.Study.run_stream ~seed ~jobs ~max_retries:retries
                 ?deadline_ms ?telemetry ~techniques ~progress ~source ~resume
                 ~dir ~total ());
            Eval.Study.read_stream ~dir
        | None, None ->
            let variants =
              match sample with
              | Some n -> Benchmarks.Generate.sample ~seed ~per_domain:n ()
              | None -> Benchmarks.Generate.all ~seed ()
            in
            if not quiet then
              Printf.eprintf "running %d variants x %d techniques...\n%!"
                (List.length variants)
                (List.length techniques);
            Eval.Study.run ~seed ~jobs ~max_retries:retries ?deadline_ms
              ?telemetry ~techniques ~progress variants
      in
      Option.iter close_out telemetry_chan;
      (match csv_out with
      | Some path ->
          let oc = open_out path in
          output_string oc (Eval.Study.to_csv results);
          close_out oc
      | None -> ());
      (match artifacts_dir with
      | Some dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          List.iter
            (fun (name, text) ->
              let oc = open_out (Filename.concat dir name) in
              output_string oc text;
              close_out oc)
            [
              ("table1.csv", Eval.Tables.table1_csv results);
              ("fig2.csv", Eval.Tables.fig2_csv results);
              ("fig3.csv", Eval.Tables.fig3_csv results);
              ("table2.csv", Eval.Tables.table2_csv results);
            ]
      | None -> ());
      let what = if what = [] then [ `T1; `F2; `F3; `T2; `S ] else what in
      List.iter
        (fun w ->
          let text =
            match w with
            | `T1 -> Eval.Tables.table1 results
            | `F2 -> Eval.Tables.fig2 results
            | `F3 -> Eval.Tables.fig3 results
            | `T2 -> Eval.Tables.table2 results
            | `T3 -> Eval.Tables.panel_table results
            | `S -> Eval.Tables.summary results
          in
          print_endline text)
        what;
      `Ok ()
    end
  in
  let run sample seed jobs retries quiet what profiles csv_out csv_in
      artifacts_dir deadline_ms telemetry_out run_dir resume =
    reporting_study_failures "evaluate" (fun () ->
        run sample seed jobs retries quiet what profiles csv_out csv_in
          artifacts_dir deadline_ms telemetry_out run_dir resume)
  in
  Cmd.v
    (Cmd.info "evaluate"
       ~doc:"Run the study and regenerate the paper's tables and figures")
    Term.(
      ret
        (const run $ sample $ seed $ jobs $ retries $ quiet $ what $ profiles
        $ csv_out $ csv_in $ artifacts_dir $ deadline_ms $ telemetry_out
        $ run_dir $ resume))

(* {2 hybrid-table} *)

let hybrid_table_cmd =
  let sample =
    Arg.(
      value & opt positive_int 1
      & info [ "sample" ] ~docv:"N"
          ~doc:"Variants per domain for the panel study (default 1)")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ]) in
  let csv_in =
    Arg.(
      value
      & opt (some file) None
      & info [ "from-csv" ] ~docv:"FILE"
          ~doc:
            "Render from a cached results CSV (e.g. a full \
             $(b,evaluate --profile …) run) instead of running the panel \
             study")
  in
  let csv_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Write the raw panel-study CSV")
  in
  let table_csv_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "table-csv" ] ~docv:"FILE"
          ~doc:"Write the coverage table itself as CSV")
  in
  let stats_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-out" ] ~docv:"FILE"
          ~doc:
            "Mine the results into a learned-portfolio statistics file \
             (digest-protected; feed it back via $(b,repair --tool \
             portfolio --stats))")
  in
  let run sample seed csv_in csv_out table_csv_out stats_out =
    let results =
      match csv_in with
      | Some path -> Eval.Study.of_csv (read_file path)
      | None ->
          (* one Multi-Round/Auto run per panel profile: the cheapest
             roster that still exercises every profile on every sampled
             variant, deterministic for the given seed *)
          let variants = Benchmarks.Generate.sample ~seed ~per_domain:sample () in
          let techniques =
            List.map
              (fun p -> Eval.Technique.Multi (Llm.Multi_round.Auto, p))
              Llm.Model.panel
          in
          Eval.Study.run ~seed ~techniques variants
    in
    let write path text =
      let oc = open_out path in
      output_string oc text;
      close_out oc
    in
    Option.iter (fun p -> write p (Eval.Study.to_csv results)) csv_out;
    Option.iter (fun p -> write p (Eval.Tables.panel_table_csv results)) table_csv_out;
    Option.iter
      (fun p ->
        let stats = Eval.Learned.empty () in
        Eval.Learned.add_rows stats results;
        Eval.Learned.save stats p)
      stats_out;
    print_string (Eval.Tables.panel_table results)
  in
  Cmd.v
    (Cmd.info "hybrid-table"
       ~doc:
         "Run the model-panel study and print the hybrid coverage table \
          (the paper's Table II union analysis extended across the \
          profile panel), optionally mining the results into a \
          learned-portfolio statistics file")
    Term.(
      const run $ sample $ seed $ csv_in $ csv_out $ table_csv_out $ stats_out)

(* {2 study} *)

let study_cmd =
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Checkpoint directory: receives the manifest and one result \
             shard per completed chunk.  Must be empty (or absent) unless \
             $(b,--resume) is given.")
  in
  let total =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "total" ] ~docv:"N"
          ~doc:
            "Corpus size: rows are derived on demand from global variant \
             indices 0..N-1, so N can exceed the natural corpus (indices \
             wrap into fresh derivation epochs).  Default: the natural \
             corpus size.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ]) in
  let jobs =
    Arg.(
      value
      & opt positive_int 1
      & info [ "jobs"; "j" ] ~doc:"Parallel worker processes")
  in
  let retries =
    Arg.(
      value
      & opt nonneg_int 2
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "How many times a chunk may be requeued after its worker dies \
             before the run fails")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Pick up a crashed run: validate DIR's manifest and every \
             recorded shard, then compute only the pending rows.")
  in
  let techniques =
    let tech_conv =
      Arg.conv
        ( (fun s ->
            match Eval.Technique.of_name s with
            | Some t -> Ok t
            | None ->
                Error
                  (`Msg
                     (Printf.sprintf "unknown technique %S (expected one of %s)"
                        s
                        (String.concat ", "
                           (List.map Eval.Technique.name Eval.Technique.all))))),
          fun ppf t -> Format.pp_print_string ppf (Eval.Technique.name t) )
    in
    Arg.(
      value
      & opt_all tech_conv []
      & info [ "technique" ] ~docv:"NAME"
          ~doc:
            "Restrict the study to this technique (repeatable; default: all \
             twelve)")
  in
  let csv_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:
            "Where to write the merged results CSV once the run is complete \
             (default: DIR/results.csv)")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet" ] ~doc:"Suppress progress messages on stderr")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Per-row wall-clock deadline (monotonic clock)")
  in
  let telemetry_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"FILE"
          ~doc:"Write scheduler telemetry as JSON lines to FILE")
  in
  let run dir total seed jobs retries resume techniques csv_out quiet
      deadline_ms telemetry_out =
    let techniques =
      if techniques = [] then Eval.Technique.all else techniques
    in
    let total =
      match total with
      | Some n -> n
      | None -> Eval.Corpus_stream.natural_total ()
    in
    let telemetry_chan = Option.map open_out telemetry_out in
    let telemetry =
      Option.map
        (fun oc line ->
          output_string oc line;
          output_char oc '\n')
        telemetry_chan
    in
    let progress =
      if quiet then fun _ -> () else fun msg -> Printf.eprintf "  %s\n%!" msg
    in
    if not quiet then
      Printf.eprintf "study: %d variants x %d techniques -> %s%s\n%!" total
        (List.length techniques) dir
        (if resume then " (resume)" else "");
    let csv = Option.value csv_out ~default:(Filename.concat dir "results.csv") in
    (* the CSV appears only once the merge has verified every row *)
    let tmp = csv ^ ".tmp" in
    reporting_study_failures "study" (fun () ->
        ignore
          (Eval.Study.run_stream ~seed ~jobs ~max_retries:retries ?deadline_ms
             ?telemetry ~techniques ~progress ~resume ~dir ~total ());
        Option.iter close_out telemetry_chan;
        let oc = open_out tmp in
        let rows =
          match
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () -> Eval.Study.write_stream_csv ~dir oc)
          with
          | rows -> rows
          | exception e ->
              Sys.remove tmp;
              raise e
        in
        Sys.rename tmp csv;
        Printf.printf "study: %d rows -> %s\n%!" rows csv)
  in
  Cmd.v
    (Cmd.info "study"
       ~doc:
         "Run a streaming study with checkpoint/resume: rows are generated \
          on demand, results land in sharded files as chunks complete, and \
          a killed run restarts from its manifest with $(b,--resume)")
    Term.(
      const run $ dir $ total $ seed $ jobs $ retries $ resume $ techniques
      $ csv_out $ quiet $ deadline_ms $ telemetry_out)

(* {2 sat / check-proof} *)

let proof_format =
  Arg.enum
    [ ("text", Specrepair_sat.Proof.Text); ("binary", Specrepair_sat.Proof.Binary) ]

let format_arg =
  Arg.(
    value
    & opt proof_format Specrepair_sat.Proof.Text
    & info [ "format" ] ~docv:"FORMAT"
        ~doc:"Proof file format: $(b,text) (classic DRUP) or $(b,binary) (DRAT).")

let sat_cmd =
  let module Sat = Specrepair_sat in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"CNF") in
  let proof =
    Arg.(
      value
      & opt (some string) None
      & info [ "proof" ] ~docv:"FILE"
          ~doc:
            "Stream a DRUP proof of the run to $(docv); for unsatisfiable \
             inputs the file is a certificate $(b,check-proof) can verify \
             against the CNF.")
  in
  let run file proof format =
    match Sat.Dimacs.parse (read_file file) with
    | exception Sat.Dimacs.Parse_error msg -> `Error (false, msg)
    | cnf ->
        let oc = Option.map open_out_bin proof in
        let s = Sat.Solver.create () in
        Sat.Solver.set_proof s (Option.map (Sat.Proof.file_sink format) oc);
        Sat.Dimacs.load_into s cnf;
        let result = Sat.Solver.solve s in
        Option.iter close_out oc;
        (match result with
        | Sat.Solver.Sat ->
            let buf = Buffer.create 64 in
            for v = 0 to cnf.Sat.Dimacs.num_vars - 1 do
              Buffer.add_string buf
                (Printf.sprintf " %d"
                   (if Sat.Solver.value s v then v + 1 else -(v + 1)))
            done;
            Printf.printf "s SATISFIABLE\nv%s 0\n" (Buffer.contents buf)
        | Sat.Solver.Unsat -> print_endline "s UNSATISFIABLE"
        | Sat.Solver.Unknown -> print_endline "s UNKNOWN");
        `Ok ()
  in
  Cmd.v
    (Cmd.info "sat"
       ~doc:
         "Solve a DIMACS CNF file, optionally logging a DRUP proof of the run")
    Term.(ret (const run $ file $ proof $ format_arg))

let check_proof_cmd =
  let module Sat = Specrepair_sat in
  let cnf_file = Arg.(required & pos 0 (some file) None & info [] ~docv:"CNF") in
  let proof_file =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"PROOF")
  in
  let run cnf_file proof_file format =
    match Sat.Dimacs.parse (read_file cnf_file) with
    | exception Sat.Dimacs.Parse_error msg -> `Error (false, msg)
    | cnf -> (
        match Sat.Drat.check_file ~cnf ~format proof_file with
        | Ok () ->
            print_endline "proof accepted";
            `Ok ()
        | Error msg ->
            (* a bad certificate is a verification verdict, not a usage
               error: report it on stderr and exit 1 (cmdliner's `Error
               path would exit 124) *)
            Printf.eprintf "proof rejected: %s\n" msg;
            exit 1)
  in
  Cmd.v
    (Cmd.info "check-proof"
       ~doc:
         "Verify a DRUP proof against its CNF with the independent checker: \
          exit 0 and print 'proof accepted' if the certificate derives a \
          conflict by reverse unit propagation, exit 1 with the offending \
          step otherwise")
    Term.(ret (const run $ cnf_file $ proof_file $ format_arg))

(* {2 fuzz} *)

let fuzz_cmd =
  let module Fuzz = Specrepair_fuzz.Harness in
  let names = List.map Fuzz.target_name Fuzz.all_targets in
  let target =
    Arg.(
      value
      & opt (some (enum (List.combine names Fuzz.all_targets))) None
      & info [ "target" ] ~docv:"TARGET"
          ~doc:
            (Printf.sprintf
               "Fuzz a single target, %s; default: every target."
               (doc_alts names)))
  in
  let seed =
    Arg.(
      value & opt nonneg_int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed (reproducible).")
  in
  let iters =
    Arg.(
      value & opt positive_int 200
      & info [ "iters" ] ~docv:"N" ~doc:"Iterations per target.")
  in
  let corpus_dir =
    Arg.(
      value
      & opt string "artifacts/fuzz"
      & info [ "corpus-dir" ] ~docv:"DIR"
          ~doc:"Where shrunk failing inputs are persisted.")
  in
  let run seed iters target corpus_dir =
    let targets =
      match target with None -> Fuzz.all_targets | Some t -> [ t ]
    in
    let reports =
      List.map (fun t -> Fuzz.run ~corpus_dir t ~seed ~iters ()) targets
    in
    print_endline (Fuzz.summary_json ~corpus_dir ~seed reports);
    if List.exists (fun (r : Fuzz.report) -> r.discrepancies > 0) reports then
      exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         (Printf.sprintf
            "Differential fuzzing: cross-check the %s stack against \
             independent reference oracles"
            (String.concat "/" names)))
    Term.(const run $ seed $ iters $ target $ corpus_dir)

(* {2 serve / client} *)

let serve_socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path")

let serve_tcp_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT" ~doc:"TCP port on 127.0.0.1")

let serve_cmd =
  let module Serve = Specrepair_serve in
  let workers =
    Arg.(
      value & opt positive_int 2
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker processes.  Requests route stickily (by payload digest) \
             over the workers, so warm caches accrue per worker.")
  in
  let max_sessions =
    Arg.(
      value & opt positive_int 32
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:"Warm sessions kept per worker (LRU beyond this bound)")
  in
  let max_inflight =
    Arg.(
      value & opt positive_int 64
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Admission bound on requests in the system (dispatched + \
             queued); beyond it requests are refused with an immediate \
             $(b,overloaded) reply")
  in
  let queue_depth =
    Arg.(
      value & opt positive_int 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"Bound on the wait queue alone")
  in
  let max_request_bytes =
    Arg.(
      value
      & opt positive_int (8 * 1024 * 1024)
      & info [ "max-request-bytes" ] ~docv:"N"
          ~doc:"Request lines beyond this are refused as $(b,oversized)")
  in
  let hard_timeout_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "hard-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Hard SIGKILL backstop for requests without their own \
             deadline_ms (requests with one get 3 x deadline + 2 s)")
  in
  let telemetry =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"FILE"
          ~doc:"Append per-request telemetry as JSON lines to FILE")
  in
  let run socket tcp workers max_sessions max_inflight queue_depth
      max_request_bytes hard_timeout_ms telemetry =
    match (socket, tcp) with
    | None, None -> `Error (true, "serve needs --socket PATH or --tcp PORT")
    | _ ->
        Serve.Daemon.run
          {
            Serve.Daemon.socket;
            tcp;
            workers;
            max_sessions;
            max_inflight;
            queue_depth;
            max_request_bytes;
            hard_timeout_ms;
            telemetry;
          };
        `Ok ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the repair daemon: answer concurrent repair / evaluate / sat \
          / status requests over a Unix-domain socket (or TCP) as \
          newline-delimited JSON, from warm per-worker sessions; SIGTERM \
          shuts down cleanly")
    Term.(
      ret
        (const run $ serve_socket_arg $ serve_tcp_arg $ workers $ max_sessions
       $ max_inflight $ queue_depth $ max_request_bytes $ hard_timeout_ms
       $ telemetry))

let client_cmd =
  let module Serve = Specrepair_serve in
  let meth =
    Arg.(
      value
      & pos 0
          (some
             (enum
                [
                  ("repair", `Repair);
                  ("evaluate", `Evaluate);
                  ("sat", `Sat);
                  ("status", `Status);
                ]))
          None
      & info [] ~docv:"METHOD"
          ~doc:"repair, evaluate, sat, or status (omit with $(b,--raw))")
  in
  let payload =
    Arg.(
      value
      & opt (some file) None
      & info [ "file" ] ~docv:"FILE"
          ~doc:
            "Payload file: an Alloy spec for repair/evaluate, a DIMACS CNF \
             for sat")
  in
  let tool =
    Arg.(
      value
      & opt (some string) None
      & info [ "tool" ] ~doc:tool_doc)
  in
  let profile =
    (* a plain string, validated daemon-side: the client forwards the
       request and the protocol layer rejects unknown profiles with an
       invalid_request reply listing the panel *)
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ] ~docv:"NAME"
          ~doc:
            "Simulated-LLM profile for repair/evaluate requests (validated \
             by the daemon against its panel registry)")
  in
  let seed = Arg.(value & opt (some int) None & info [ "seed" ]) in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Per-request wall-clock deadline, enforced by the daemon")
  in
  let id =
    Arg.(
      value & opt string ""
      & info [ "id" ] ~doc:"Correlation id echoed in the reply")
  in
  let raw =
    Arg.(
      value
      & opt (some string) None
      & info [ "raw" ] ~docv:"JSON"
          ~doc:"Send this exact request line instead of building one")
  in
  let chaos =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            "Fault injection (honoured only by daemons running with \
             SPECREPAIR_SERVE_CHAOS=1): $(b,kill) or $(b,sleep:<ms>)")
  in
  let repeat =
    Arg.(
      value & opt positive_int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:"Send the request N times sequentially over one connection")
  in
  let burst =
    Arg.(
      value & opt positive_int 1
      & info [ "burst" ] ~docv:"N"
          ~doc:
            "Send N copies concurrently, one forked connection per copy \
             (overrides --repeat)")
  in
  let run meth socket tcp payload tool profile seed deadline_ms id raw chaos
      repeat burst =
    let addr =
      match (socket, tcp) with
      | Some path, _ -> Ok (Serve.Client.Unix_sock path)
      | None, Some port -> Ok (Serve.Client.Tcp ("127.0.0.1", port))
      | None, None -> Error "client needs --socket PATH or --tcp PORT"
    in
    let opt_field name v f ps =
      match v with None -> ps | Some x -> ps @ [ (name, f x) ]
    in
    let line =
      match raw with
      | Some l -> Ok l
      | None -> (
          match meth with
          | None ->
              Error "client needs a METHOD (repair|evaluate|sat|status) or --raw"
          | Some m ->
              let name =
                match m with
                | `Repair -> "repair"
                | `Evaluate -> "evaluate"
                | `Sat -> "sat"
                | `Status -> "status"
              in
              let params =
                match m with
                | `Status -> Ok []
                | `Sat -> (
                    match payload with
                    | None -> Error "sat needs --file CNF"
                    | Some f ->
                        Ok
                          (opt_field "chaos" chaos
                             (fun c -> Json.Str c)
                             [ ("dimacs", Json.Str (read_file f)) ]))
                | `Repair | `Evaluate -> (
                    match payload with
                    | None -> Error (name ^ " needs --file SPEC")
                    | Some f ->
                        let ps =
                          [
                            ("source", Json.Str (read_file f));
                            ("file", Json.Str f);
                          ]
                        in
                        let ps =
                          if m = `Repair then
                            opt_field "tool" tool (fun t -> Json.Str t) ps
                            |> opt_field "seed" seed (fun s ->
                                   Json.int s)
                          else ps
                        in
                        let ps =
                          opt_field "profile" profile (fun p -> Json.Str p) ps
                        in
                        let ps =
                          opt_field "deadline_ms" deadline_ms
                            (fun d -> Json.Num d)
                            ps
                        in
                        Ok (opt_field "chaos" chaos (fun c -> Json.Str c) ps))
              in
              Result.map
                (fun ps ->
                  Json.to_string
                    (Json.Obj
                       [
                         ("id", Json.Str id);
                         ("method", Json.Str name);
                         ("params", Json.Obj ps);
                       ]))
                params)
    in
    match (addr, line) with
    | Error m, _ | _, Error m -> `Error (true, m)
    | Ok addr, Ok line -> (
        let replies =
          if burst > 1 then
            Serve.Client.burst addr (List.init burst (fun _ -> line))
          else
            match Serve.Client.connect addr with
            | Error m -> Error m
            | Ok c ->
                let rec go acc n =
                  if n = 0 then Ok (List.rev acc)
                  else
                    match Serve.Client.roundtrip c line with
                    | Ok r -> go (r :: acc) (n - 1)
                    | Error m -> Error m
                in
                let r = go [] repeat in
                Serve.Client.close c;
                r
        in
        match replies with
        | Error m ->
            Printf.eprintf "client: %s\n" m;
            exit 1
        | Ok rs ->
            List.iter print_endline rs;
            if List.for_all Serve.Protocol.reply_is_ok rs then `Ok ()
            else exit 1)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send requests to a running repair daemon and print the reply \
          lines; exit 0 only if every reply reports ok")
    Term.(
      ret
        (const run $ meth $ serve_socket_arg $ serve_tcp_arg $ payload $ tool
       $ profile $ seed $ deadline_ms $ id $ raw $ chaos $ repeat $ burst))

let () =
  let info =
    Cmd.info "specrepair" ~version:"1.0.0"
      ~doc:
        "Alloy specification repair: traditional and LLM-based techniques \
         (DSN'25 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            parse_cmd;
            analyze_cmd;
            repair_cmd;
            domains_cmd;
            evaluate_cmd;
            hybrid_table_cmd;
            study_cmd;
            sat_cmd;
            check_proof_cmd;
            fuzz_cmd;
            serve_cmd;
            client_cmd;
          ]))
