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
  counts : Counters.t;
}

let create ~max =
  { max = Stdlib.max 1 max; entries = []; counts = Counters.create schema }

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
      if List.length t.entries > t.max then begin
        let keep = List.filteri (fun i _ -> i < t.max) t.entries in
        Counters.add t.counts evictions (List.length t.entries - t.max);
        t.entries <- keep
      end;
      (v, false)

let size t = List.length t.entries
let stats t = Counters.copy t.counts
