module Benchmarks = Specrepair_benchmarks
module Llm = Specrepair_llm

exception Corrupt_stats of string

type cell = { attempts : int; successes : int; total_ms : float }

type t = { cells : (string * string, cell) Hashtbl.t }

let empty () = { cells = Hashtbl.create 64 }
let is_empty t = Hashtbl.length t.cells = 0

let observe t ~defect_class ~technique ~repaired ~time_ms =
  let key = (defect_class, technique) in
  let prev =
    Option.value
      (Hashtbl.find_opt t.cells key)
      ~default:{ attempts = 0; successes = 0; total_ms = 0. }
  in
  Hashtbl.replace t.cells key
    {
      attempts = prev.attempts + 1;
      successes = (prev.successes + if repaired then 1 else 0);
      total_ms = prev.total_ms +. Float.max 0. time_ms;
    }

let cell t ~defect_class ~technique =
  Hashtbl.find_opt t.cells (defect_class, technique)

let cells t =
  Hashtbl.fold (fun (c, tech) v acc -> (c, tech, v) :: acc) t.cells []
  |> List.sort compare

(* {2 Defect classes} *)

(* The taxonomy of {!Benchmarks.Fault}: a multi-edit fault is "compound"
   whatever its operators; a single-edit fault is classed by the operator
   of its reverting edit. *)
let class_of_op op =
  List.find_opt
    (fun c -> List.mem op (Benchmarks.Fault.ops_of_class c))
    Benchmarks.Fault.classes

let defect_class_of_task (task : Llm.Task.t) =
  if List.length task.fault_paths > 1 then "compound"
  else
    match task.fault_classes with
    | op :: _ -> Option.value (class_of_op op) ~default:"unknown"
    | [] -> "unknown"

(* variant_id is "<domain>_<index>" ({!Benchmarks.Generate.variant_id});
   re-deriving the injected fault recovers its class for CSV rows, which
   carry no class column.  Memoized — studies repeat each variant across
   twelve techniques. *)
let class_cache : (string, string) Hashtbl.t = Hashtbl.create 256

let class_of_variant_id id =
  match Hashtbl.find_opt class_cache id with
  | Some c -> c
  | None ->
      let c =
        match String.rindex_opt id '_' with
        | None -> "unknown"
        | Some i -> (
            let dname = String.sub id 0 i in
            let index =
              int_of_string_opt (String.sub id (i + 1) (String.length id - i - 1))
            in
            match
              ( index,
                List.find_opt
                  (fun (d : Benchmarks.Domains.t) -> d.name = dname)
                  Benchmarks.Domains.all )
            with
            | Some index, Some d -> (
                try (Benchmarks.Fault.inject ~seed:42 d ~index).class_name
                with _ -> "unknown")
            | _ -> "unknown")
      in
      Hashtbl.replace class_cache id c;
      c

(* {2 Mining} *)

let add_telemetry_line t line =
  let module Json = Specrepair_json in
  match Json.parse line with
  | Error _ -> () (* a torn or foreign line: nothing to trust in it *)
  | Ok j -> (
      match (Json.mem_str "technique" j, Json.mem_str "repaired" j) with
      | Some technique, Some repaired ->
          let defect_class =
            match Json.mem_str "defect_class" j with
            | Some c -> c
            | None -> (
                (* pre-panel telemetry carries no class field; recover it
                   from the variant id *)
                match Json.mem_str "variant_id" j with
                | Some id -> class_of_variant_id id
                | None -> "unknown")
          in
          let time_ms =
            Option.value (Json.mem_num "elapsed_ms" j) ~default:0.
          in
          observe t ~defect_class ~technique ~repaired:(repaired = "true")
            ~time_ms
      | _ -> () (* scheduler summaries, serve events: not study rows *))

let add_rows t rows =
  List.iter
    (fun (r : Study.spec_result) ->
      observe t
        ~defect_class:(class_of_variant_id r.variant_id)
        ~technique:r.technique ~repaired:(r.rep = 1) ~time_ms:r.time_ms)
    rows

(* {2 Persistence}

   A line-oriented text format under an integrity digest:

     specrepair-stats v1 <md5 of payload>
     <class>|<technique>|<attempts>|<successes>|<total_ms>

   The portfolio trusts these numbers to order (and skip) repair
   techniques, so a stats file is rejected loudly — {!Corrupt_stats} —
   on any structural damage or digest mismatch rather than silently
   steering the scheduler with tampered rates. *)

let payload t =
  cells t
  |> List.map (fun (c, tech, v) ->
         Printf.sprintf "%s|%s|%d|%d|%.3f" c tech v.attempts v.successes
           v.total_ms)
  |> String.concat "\n"

let save t path =
  let body = payload t in
  let digest = Digest.to_hex (Digest.string body) in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Printf.fprintf oc "specrepair-stats v1 %s\n%s%s" digest body
    (if body = "" then "" else "\n");
  close_out oc;
  Sys.rename tmp path

let load path =
  let ic =
    try open_in path
    with Sys_error msg -> raise (Corrupt_stats ("unreadable stats: " ^ msg))
  in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let lines =
    String.split_on_char '\n' content |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> raise (Corrupt_stats "empty stats file")
  | header :: rows -> (
      match String.split_on_char ' ' header with
      | [ "specrepair-stats"; "v1"; digest ] ->
          let body = String.concat "\n" rows in
          if Digest.to_hex (Digest.string body) <> digest then
            raise
              (Corrupt_stats
                 "digest mismatch: stats file was modified after writing");
          let t = empty () in
          List.iter
            (fun row ->
              match String.split_on_char '|' row with
              | [ c; tech; attempts; successes; total_ms ] -> (
                  match
                    ( int_of_string_opt attempts,
                      int_of_string_opt successes,
                      float_of_string_opt total_ms )
                  with
                  | Some a, Some s, Some ms
                    when a >= 0 && s >= 0 && s <= a && ms >= 0. ->
                      Hashtbl.replace t.cells (c, tech)
                        { attempts = a; successes = s; total_ms = ms }
                  | _ ->
                      raise
                        (Corrupt_stats ("malformed stats row: " ^ row)))
              | _ -> raise (Corrupt_stats ("malformed stats row: " ^ row)))
            rows;
          t
      | _ -> raise (Corrupt_stats ("bad stats header: " ^ header)))

(* {2 Ranking} *)

(* Expected value per millisecond, Laplace-smoothed so one lucky hit does
   not dominate: (successes+1)/(attempts+2) divided by the technique's
   mean cost on the class (floored at 1ms). *)
let score v =
  let rate =
    float_of_int (v.successes + 1) /. float_of_int (v.attempts + 2)
  in
  let mean_ms =
    Float.max 1. (v.total_ms /. float_of_int (max 1 v.attempts))
  in
  rate /. mean_ms

let rank t ~defect_class techniques =
  List.filter_map
    (fun tech ->
      match cell t ~defect_class ~technique:(Technique.name tech) with
      | Some v when v.attempts > 0 -> Some (tech, score v)
      | _ -> None)
    techniques
  |> List.stable_sort (fun (a, sa) (b, sb) ->
         match compare sb sa with
         | 0 -> compare (Technique.name a) (Technique.name b)
         | c -> c)
