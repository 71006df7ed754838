(* Request execution inside a serve worker.

   The warm state lives here: a bounded LRU mapping request digests to
   type-checked environments with their incremental oracles and
   mutation-space stores (spec requests) or memoized verdicts (sat
   requests).  A second request for the same source skips the frontend,
   the translation, BeAFix's candidate list and — via the oracle's
   digest-keyed verdict caches — most of the solving.  A repeated repair
   request never gets here: the daemon answers it from its reply memo
   ({!Replies}) and forwards the hit as a touch. *)

module Alloy = Specrepair_alloy
module Solver = Specrepair_solver
module Sat = Specrepair_sat
module Engine = Specrepair_engine
module Repair = Specrepair_repair
module Llm = Specrepair_llm
module Eval = Specrepair_eval
module Json = Specrepair_json

type warmth = Warm | Cold | Uncached

(* The store's spaces and candidate lists live and die with the entry *)
type spec_state = {
  env : Alloy.Typecheck.env;
  oracle : Solver.Oracle.t;
  spaces : Specrepair_mutation.Space.store;
}

type entry = Spec of spec_state | Cnf_verdict of string

type t = { registry : entry Registry.t }

let create ~max_sessions () = { registry = Registry.create ~max:max_sessions }
let registry_stats t = Registry.stats t.registry

let chaos_enabled () = Sys.getenv_opt "SPECREPAIR_SERVE_CHAOS" = Some "1"

let run_chaos = function
  | Some spec when chaos_enabled () -> (
      match String.split_on_char ':' spec with
      | [ "kill" ] ->
          (* simulate a worker crash mid-request: the RES line is never
             sent, the daemon's waitpid poll must notice and respawn *)
          Unix.kill (Unix.getpid ()) Sys.sigkill
      | [ "sleep"; ms ] -> (
          match float_of_string_opt ms with
          | Some ms when ms > 0. -> Unix.sleepf (ms /. 1000.)
          | _ -> ())
      | _ -> ())
  | _ -> ()

exception Reply of string

let spec_error ~id ~source diagnostics =
  ignore source;
  Protocol.error_reply ~id ~code:Protocol.Spec_error
    ~data:
      [
        ( "diagnostics",
          Json.List (List.map Alloy.Diagnostic.to_json diagnostics)
        );
      ]
    "specification rejected by the frontend"

(* The warm entry for a spec request: frontend-checked env, incremental
   oracle and space store.  Frontend failures raise a complete reply (they are not cached:
   a bad spec costs a parse on every submission, which is also the honest
   cache_misses accounting). *)
let spec_entry t ~id ~key ~file ~source =
  let build () =
    match Alloy.Frontend.check ~file source with
    | Ok ok ->
        Spec
          {
            env = ok.Alloy.Frontend.env;
            oracle = Solver.Oracle.create ok.Alloy.Frontend.env;
            spaces = Specrepair_mutation.Space.create_store ();
          }
    | Error d -> raise (Reply (spec_error ~id ~source [ d ]))
  in
  match Registry.find_or_add t.registry key build with
  | Spec state, warm -> (state, warm)
  | Cnf_verdict _, _ ->
      (* digest namespaces ("spec:"/"cnf:") make this unreachable *)
      raise
        (Reply (Protocol.error_reply ~id ~code:Protocol.Internal "cache kind clash"))

let command_label (c : Alloy.Ast.command) =
  match c.cmd_kind with
  | Alloy.Ast.Run_pred n -> "run " ^ n
  | Alloy.Ast.Run_fmla _ -> "run {...}"
  | Alloy.Ast.Check n -> "check " ^ n

let verdict_str = function
  | `Sat -> "sat"
  | `Unsat -> "unsat"
  | `Unknown -> "unknown"

let repair_result ~warm (r : Repair.Common.result) spec =
  Json.Obj
    [
      ("tool", Json.Str r.tool);
      ("repaired", Json.Bool r.repaired);
      ("candidates_tried", Json.int r.candidates_tried);
      ("iterations", Json.int r.iterations);
      ("timed_out", Json.Bool r.timed_out);
      ("warm", Json.Bool warm);
      ("spec", spec);
    ]

let stored_result reply =
  match Json.parse reply with
  | Ok j -> (
      match (Json.mem_bool "ok" j, Json.member "result" j) with
      | Some true, Some (Json.Obj fields)
        when List.assoc_opt "timed_out" fields = Some (Json.Bool false) ->
          let warm (k, v) = if k = "warm" then (k, Json.Bool true) else (k, v) in
          Some (Json.to_string (Json.Obj (List.map warm fields)))
      | _ -> None)
  | Error _ -> None

let handle_repair t ~id (p : Protocol.repair_params) =
  let key = Option.get (Protocol.cache_key (Protocol.Repair p)) in
  let { env; oracle; spaces }, warm =
    spec_entry t ~id ~key ~file:p.file ~source:p.source
  in
  let session =
    Repair.Session.create ~oracle ~spaces ~seed:p.seed
      ?deadline_ms:p.deadline_ms env
  in
  (* validated by Protocol.parse_request against the panel registry *)
  let profile = Option.get (Llm.Model.profile_of_name p.profile) in
  let task =
    Llm.Task.make ~spec_id:p.file ~domain:"serve"
      ~faulty:env.Alloy.Typecheck.spec ()
  in
  (* the tool name is validated by Protocol.parse_request against the
     same table *)
  let result =
    (List.assoc p.tool Eval.Portfolio.tools) ~session ~profile env task
  in
  let spec = Json.Str (Alloy.Pretty.spec_to_string result.final_spec) in
  ( Protocol.ok_reply ~id (repair_result ~warm result spec),
    if warm then Warm else Cold )

let handle_evaluate t ~id (p : Protocol.evaluate_params) =
  let key = Option.get (Protocol.cache_key (Protocol.Evaluate p)) in
  let { env; oracle; spaces }, warm =
    spec_entry t ~id ~key ~file:p.e_file ~source:p.e_source
  in
  let session =
    Repair.Session.create ~oracle ~spaces ?deadline_ms:p.e_deadline_ms env
  in
  let verdicts =
    List.map
      (fun (c : Alloy.Ast.command) ->
        let v = Repair.Session.command_verdict session env c in
        Json.Obj
          [
            ("command", Json.Str (command_label c));
            ("verdict", Json.Str (verdict_str v));
          ])
      env.Alloy.Typecheck.spec.commands
  in
  let passed = Repair.Common.oracle_passes session env in
  let reply =
    Protocol.ok_reply ~id
      (Json.Obj
         [
           ("passed", Json.Bool passed);
           ("commands", Json.int (List.length verdicts));
           ("timed_out", Json.Bool (Repair.Session.timed_out session));
           ("warm", Json.Bool warm);
           ("verdicts", Json.List verdicts);
         ])
  in
  (reply, if warm then Warm else Cold)

let handle_sat t ~id (p : Protocol.sat_params) =
  let key = Option.get (Protocol.cache_key (Protocol.Sat p)) in
  match Sat.Dimacs.parse p.dimacs with
  | exception Sat.Dimacs.Parse_error msg ->
      (Protocol.error_reply ~id ~code:Protocol.Cnf_error msg, Uncached)
  | cnf -> (
      let build () =
        let s = Sat.Solver.create () in
        Sat.Dimacs.load_into s cnf;
        let verdict =
          match Sat.Solver.solve s with
          | Sat.Solver.Sat -> "sat"
          | Sat.Solver.Unsat -> "unsat"
          | Sat.Solver.Unknown -> "unknown"
        in
        Cnf_verdict verdict
      in
      match Registry.find_or_add t.registry key build with
      | Cnf_verdict verdict, warm ->
          let reply =
            Protocol.ok_reply ~id
              (Json.Obj
                 [
                   ("verdict", Json.Str verdict);
                   ("vars", Json.int cnf.Sat.Dimacs.num_vars);
                   ("clauses", Json.int (List.length cnf.Sat.Dimacs.clauses));
                   ("warm", Json.Bool warm);
                 ])
          in
          (reply, if warm then Warm else Cold)
      | Spec _, _ ->
          (Protocol.error_reply ~id ~code:Protocol.Internal "cache kind clash", Uncached))

(* a request's reply, with a failure turned into its error reply *)
let guarded ~id f =
  try f () with
  | Reply r -> (r, Uncached)
  | e ->
      (Protocol.error_reply ~id ~code:Protocol.Internal (Printexc.to_string e), Uncached)

let handle t line =
  match Protocol.parse_request line with
  | Error reply -> (reply, Uncached)
  | Ok { id; call } -> (
      match call with
      | Protocol.Status ->
          (* the daemon answers status itself; a worker only sees it in
             unit tests driving the handler directly *)
          let s = Registry.stats t.registry in
          let get = Specrepair_json.Counters.get s in
          ( Protocol.ok_reply ~id
              (Json.Obj
                 [
                   ("sessions", Json.int (Registry.size t.registry));
                   ("cache_hits", Json.int (get Registry.hits));
                   ("cache_misses", Json.int (get Registry.misses));
                 ]),
            Uncached )
      | Protocol.Repair p ->
          run_chaos p.chaos;
          guarded ~id (fun () -> handle_repair t ~id p)
      | Protocol.Evaluate p ->
          run_chaos p.e_chaos;
          guarded ~id (fun () -> handle_evaluate t ~id p)
      | Protocol.Sat p ->
          run_chaos p.s_chaos;
          guarded ~id (fun () -> handle_sat t ~id p))

let serve t ~touched line =
  List.iter (Registry.touch t.registry) touched;
  let reply, warmth = handle t line in
  (reply, warmth, Registry.take_evicted t.registry)
