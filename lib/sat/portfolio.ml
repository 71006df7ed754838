(* A racing portfolio over forked solver workers.

   The parent forks [jobs] diversified solver configurations over the same
   CNF (inherited copy-on-write, nothing is serialized) and takes the first
   decisive verdict.  Worker 0 always runs the vanilla configuration — the
   exact solve the caller would have run alone, so [~jobs:1] is
   byte-identical to plain solving — and the rest scramble saved phases,
   restart schedules, and simplification on/off.

   Workers are {!Specrepair_workers.Worker} processes (fork, pipes, line
   framing, reaping, kill, SIGPIPE guard); this module adds the messages,
   all worker -> parent (the command pipe stays unused):

     HB             still alive (sent at start and at every solver restart)
     DONE           result file published; exiting 0
     ERR <message>  deterministic failure; exiting nonzero

   A worker publishes its verdict by writing `res_<i>.tmp` in the run's
   scratch directory and renaming it to `res_<i>.res` (atomic, never torn):
   the first line is SAT/UNSAT/UNKNOWN, and a SAT verdict carries the model
   as a 0/1 string on the second line — reconstructed over the original
   variables when the worker simplified.  Proof steps stream separately to
   `proof_<i>` in text DRUP as the worker runs.

   A verdict is never trusted on a worker's word: a SAT model is checked
   against the parent's copy of the CNF and, under [~certify:true], an
   UNSAT verdict needs the {!Drat} checker to admit the proof file (see
   the interface for the race and the in-process fallback). *)

module Worker = Specrepair_workers.Worker

type outcome = {
  result : Solver.result;
  model : bool array option;  (* over the original variables, on Sat *)
  winner : int;  (* worker index; -1 = in-process fallback *)
  workers : int;  (* workers forked *)
  rejected : int;  (* verdicts discarded by validation/proof checking *)
}

type plan = {
  seed : int;  (* 0 = leave the solver untouched *)
  restart_base : int;
  simp : bool;
}

(* Worker 0 is the caller's own configuration.  The rest split between
   simplified and plain solving whatever the caller chose, with distinct
   phase seeds and restart cadences — diversity in where the search starts
   and how often it abandons a subtree, not in what it concludes. *)
let worker_plan ~simplify idx =
  if idx = 0 then { seed = 0; restart_base = 100; simp = simplify }
  else
    let bases = [| 64; 256; 150; 32; 512; 100; 200; 80 |] in
    {
      seed = (idx * 0x9E3779B9) land max_int;
      restart_base = bases.((idx - 1) mod Array.length bases);
      simp = (if idx land 1 = 1 then not simplify else simplify);
    }

(* Test-only fault injection: with SPECREPAIR_PORTFOLIO_CHAOS_KILL=<i>,
   worker <i> SIGKILLs itself before doing any work — a deterministic
   stand-in for losing a racer mid-run.  Unset in normal operation. *)
let chaos_kill idx =
  match Sys.getenv_opt "SPECREPAIR_PORTFOLIO_CHAOS_KILL" with
  | Some v when int_of_string_opt v = Some idx ->
      Unix.kill (Unix.getpid ()) Sys.sigkill
  | _ -> ()

let model_line model =
  String.init (Array.length model) (fun i -> if model.(i) then '1' else '0')

let model_satisfies (cnf : Dimacs.cnf) model =
  let value l =
    let v = Lit.var l in
    let b = v < Array.length model && model.(v) in
    if Lit.sign l then b else not b
  in
  List.for_all (fun c -> List.exists value c) cnf.clauses

(* {2 Worker side} *)

let child_main ~idx ~plan ~dir ~send ?max_conflicts (cnf : Dimacs.cnf) =
  chaos_kill idx;
  send "HB";
  let proof_path = Filename.concat dir (Printf.sprintf "proof_%d" idx) in
  let proof_oc = open_out proof_path in
  let sink = Proof.file_sink Proof.Text proof_oc in
  let hb () = send "HB" in
  let result, model =
    if plan.simp then begin
      let r = Simplify.solve ~proof:sink ?max_conflicts ~on_restart:hb cnf in
      (r.Simplify.result, r.Simplify.model)
    end
    else begin
      let s = Solver.create () in
      Solver.set_proof s (Some sink);
      Dimacs.load_into s cnf;
      if plan.seed <> 0 then begin
        Solver.randomize s ~seed:plan.seed;
        Solver.set_restart_base s plan.restart_base
      end;
      Solver.set_on_restart s (Some hb);
      let r = Solver.solve ?max_conflicts s in
      (r, if r = Solver.Sat then Some (Solver.model s) else None)
    end
  in
  close_out proof_oc;
  let tmp = Filename.concat dir (Printf.sprintf "res_%d.tmp" idx) in
  let oc = open_out tmp in
  (match result with
  | Solver.Sat ->
      output_string oc "SAT\n";
      output_string oc (model_line (Option.get model) ^ "\n")
  | Solver.Unsat -> output_string oc "UNSAT\n"
  | Solver.Unknown -> output_string oc "UNKNOWN\n");
  close_out oc;
  Sys.rename tmp (Filename.concat dir (Printf.sprintf "res_%d.res" idx));
  send "DONE"

(* {2 Parent side} *)

type worker = { idx : int; proc : Worker.t }

let read_result dir idx =
  let path = Filename.concat dir (Printf.sprintf "res_%d.res" idx) in
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      let line () = try Some (input_line ic) with End_of_file -> None in
      let r =
        match line () with
        | Some "SAT" -> (
            match line () with
            | Some bits ->
                let m = Array.init (String.length bits) (fun i -> bits.[i] = '1') in
                Some (Solver.Sat, Some m)
            | None -> None)
        | Some "UNSAT" -> Some (Solver.Unsat, None)
        | Some "UNKNOWN" -> Some (Solver.Unknown, None)
        | _ -> None
      in
      close_in ic;
      r

(* Replay a winner's proof file into the caller's sink, as steps only —
   the caller owns the premises, same convention as {!Simplify.solve}. *)
let replay_proof dir idx sink =
  let path = Filename.concat dir (Printf.sprintf "proof_%d" idx) in
  match open_in_bin path with
  | exception Sys_error _ -> ()
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          try
            Seq.iter
              (fun st -> sink (Proof.Step st))
              (Proof.read_steps Proof.Text ic)
          with Proof.Parse_error _ -> ())

let solve_inprocess ?proof ?max_conflicts ~simplify (cnf : Dimacs.cnf) =
  let steps_only =
    Option.map (fun sink e -> match e with Proof.Input _ -> () | e -> sink e) proof
  in
  if simplify then begin
    let r = Simplify.solve ?proof:steps_only ?max_conflicts cnf in
    (r.Simplify.result, r.Simplify.model)
  end
  else begin
    let s = Solver.create () in
    Solver.set_proof s steps_only;
    Dimacs.load_into s cnf;
    let r = Solver.solve ?max_conflicts s in
    (r, if r = Solver.Sat then Some (Solver.model s) else None)
  end

let solve ?(jobs = 4) ?(simplify = false) ?(certify = false)
    ?(heartbeat_timeout = 10.) ?proof ?max_conflicts (cnf : Dimacs.cnf) =
  let jobs = max 1 jobs in
  let dir = Filename.temp_dir "specrepair_portfolio_" "" in
  let workers : (int, worker) Hashtbl.t = Hashtbl.create jobs in
  let live () = Hashtbl.fold (fun _ w acc -> w :: acc) workers [] in
  let rejected = ref 0 in
  let accepted = ref None in
  let spawn idx =
    let plan = worker_plan ~simplify idx in
    let proc =
      Worker.spawn (fun ~recv:_ ~send ->
          try child_main ~idx ~plan ~dir ~send ?max_conflicts cnf
          with e ->
            (try send ("ERR " ^ Worker.one_line (Printexc.to_string e))
             with Unix.Unix_error _ -> ());
            raise e)
    in
    Hashtbl.replace workers proc.pid { idx; proc }
  in
  let retire w = Hashtbl.remove workers w.proc.pid in
  (* A DONE arrived (or a worker died after publishing): read, validate,
     and either accept the verdict or discard the worker and keep racing. *)
  let consider w =
    let ok =
      match read_result dir w.idx with
      | Some (Solver.Sat, Some m)
        when Array.length m >= cnf.num_vars && model_satisfies cnf m ->
          Some (Solver.Sat, Some m)
      | Some (Solver.Unsat, _) ->
          if not certify then Some (Solver.Unsat, None)
          else begin
            let path = Filename.concat dir (Printf.sprintf "proof_%d" w.idx) in
            match Drat.check_file ~cnf ~format:Proof.Text path with
            | Ok () -> Some (Solver.Unsat, None)
            | Error _ -> None
          end
      | _ -> None  (* Unknown, torn file, or a model that does not check *)
    in
    (match ok with
    | Some (result, model) ->
        (match proof with
        | Some sink when result = Solver.Unsat -> replay_proof dir w.idx sink
        | _ -> ());
        accepted := Some (result, model, w.idx);
        (* the winner has published and is exiting; reap it here — cleanup
           only sees workers still in the pool *)
        Worker.wait w.proc
    | None ->
        incr rejected;
        Worker.kill w.proc);
    retire w
  in
  let handle_line w line =
    if !accepted = None && Hashtbl.mem workers w.proc.pid then
      match String.split_on_char ' ' line with
      | "DONE" :: _ -> consider w
      | "ERR" :: _ ->
          incr rejected;
          Worker.wait w.proc;
          retire w
      | _ -> () (* HB: draining already recorded the heartbeat *)
  in
  let cleanup () =
    List.iter (fun w -> Worker.kill w.proc) (live ());
    Hashtbl.reset workers;
    try
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      Unix.rmdir dir
    with Sys_error _ | Unix.Unix_error _ -> ()
  in
  Worker.with_sigpipe_ignored @@ fun () ->
  Fun.protect ~finally:cleanup (fun () ->
      for i = 0 to jobs - 1 do
        spawn i
      done;
      while !accepted = None && Hashtbl.length workers > 0 do
        (* 1. messages: heartbeats, completions, errors *)
        let ready = Worker.select (List.map (fun w -> w.proc) (live ())) 0.05 in
        List.iter
          (fun w -> Worker.drain w.proc ~readable:ready (handle_line w))
          (live ());
        (* 2. death poll: a worker may die (or be chaos-killed) without a
           DONE; if it managed to publish a result before dying, still
           consider it — the rename made the file trustworthy *)
        if !accepted = None then
          List.iter
            (fun w ->
              if !accepted = None && Worker.reap w.proc <> None then
                if
                  Sys.file_exists
                    (Filename.concat dir (Printf.sprintf "res_%d.res" w.idx))
                then consider w
                else begin
                  incr rejected;
                  retire w
                end)
            (live ());
        (* 3. heartbeat: silent workers are presumed hung *)
        if !accepted = None then
          List.iter
            (fun w ->
              if Worker.stale w.proc ~timeout:heartbeat_timeout then begin
                incr rejected;
                Worker.kill w.proc;
                retire w
              end)
            (live ())
      done;
      match !accepted with
      | Some (result, model, winner) ->
          { result; model; winner; workers = jobs; rejected = !rejected }
      | None ->
          (* every racer died or was rejected: answer in-process *)
          let result, model = solve_inprocess ?proof ?max_conflicts ~simplify cnf in
          { result; model; winner = -1; workers = jobs; rejected = !rejected })
