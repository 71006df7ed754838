(* A small bounded LRU over an association list: the registry holds at
   most [--max-sessions] warm entries per worker, and lookups are rare
   (one per request) next to the solving they amortize, so O(n) list
   surgery is the simplest correct structure. *)

module Counters = Specrepair_json.Counters

let schema = Counters.schema "registry"
let hits = Counters.counter schema "hits"
let misses = Counters.counter schema "misses"
let evictions = Counters.counter schema "evictions"

type 'a t = {
  max : int;
  mutable entries : (string * 'a) list;  (* most-recently-used first *)
  mutable evicted : string list;  (* since the last [take_evicted], newest first *)
  counts : Counters.t;
}

let create ~max =
  {
    max = Stdlib.max 1 max;
    entries = [];
    evicted = [];
    counts = Counters.create schema;
  }

let promote t key value =
  t.entries <- (key, value) :: List.filter (fun (k, _) -> k <> key) t.entries

let find_or_add t key build =
  match List.assoc_opt key t.entries with
  | Some v ->
      Counters.incr t.counts hits;
      promote t key v;
      (v, true)
  | None ->
      Counters.incr t.counts misses;
      let v = build () in
      promote t key v;
      List.iteri
        (fun i (k, _) ->
          if i >= t.max then begin
            Counters.incr t.counts evictions;
            t.evicted <- k :: t.evicted
          end)
        t.entries;
      t.entries <- List.filteri (fun i _ -> i < t.max) t.entries;
      (v, false)

let touch t key =
  match List.assoc_opt key t.entries with Some v -> promote t key v | None -> ()

let take_evicted t =
  let keys = List.rev t.evicted in
  t.evicted <- [];
  keys

let size t = List.length t.entries
let stats t = Counters.copy t.counts
