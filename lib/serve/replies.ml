(* The daemon's reply memo, one table per worker slot.  See replies.mli
   for the rules that keep it equal to a worker-side memo. *)

(* tool, seed, file and deadline_ms *)
type request = string * int * string * float option

type key = { entry : string; request : request }

let bound = 8

type slot = {
  results : (string, (request * string) list) Hashtbl.t;
      (* by entry key, newest first *)
  mutable touches : string list;  (* latest hit first, each key once *)
}

type t = { slots : slot array; no_cache : bool }

let create ~no_cache ~slots =
  {
    slots =
      Array.init (max 1 slots) (fun _ -> { results = Hashtbl.create 16; touches = [] });
    no_cache;
  }

let key ~entry = function
  | Protocol.Repair { tool; seed; file; deadline_ms; chaos = None; _ } ->
      Some { entry; request = (tool, seed, file, deadline_ms) }
  | _ -> None

let find t ~slot ~id k =
  let s = t.slots.(slot) in
  match Option.bind (Hashtbl.find_opt s.results k.entry) (List.assoc_opt k.request) with
  | Some result ->
      (* replaying the keys in the order of their latest hit leaves the
         registry's LRU order as replaying every hit would *)
      s.touches <- k.entry :: List.filter (( <> ) k.entry) s.touches;
      Some (Protocol.ok_reply_text ~id result)
  | None -> None

let touched t ~slot =
  let s = t.slots.(slot) in
  let keys = List.rev s.touches in
  s.touches <- [];
  keys

let record t ~slot k warmth ~evicted reply =
  let s = t.slots.(slot) in
  List.iter (Hashtbl.remove s.results) evicted;
  match (k, warmth) with
  | Some k, (Handler.Warm | Handler.Cold) when not t.no_cache -> (
      match Handler.stored_result reply with
      | Some result ->
          let stored = Option.value ~default:[] (Hashtbl.find_opt s.results k.entry) in
          Hashtbl.replace s.results k.entry
            (List.filteri (fun i _ -> i < bound) ((k.request, result) :: stored))
      | None -> ())
  | _ -> ()

let clear t ~slot =
  let s = t.slots.(slot) in
  Hashtbl.reset s.results;
  s.touches <- []

type answer = Memo | Worker of Handler.warmth

let local t h line =
  let lookup =
    match Protocol.parse_request line with
    | Ok { id; call } ->
        Option.bind (Protocol.cache_key call) (fun entry ->
            Option.map (fun k -> (id, k)) (key ~entry call))
    | Error _ -> None
  in
  match Option.bind lookup (fun (id, k) -> find t ~slot:0 ~id k) with
  | Some reply -> (reply, Memo)
  | None ->
      let reply, warmth, evicted = Handler.serve h ~touched:(touched t ~slot:0) line in
      record t ~slot:0 (Option.map snd lookup) warmth ~evicted reply;
      (reply, Worker warmth)
