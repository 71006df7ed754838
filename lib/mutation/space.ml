module Alloy = Specrepair_alloy
module Ast = Alloy.Ast

type t = {
  mutations : Mutate.t array;
  sizes : int array;
}

let build spec =
  match Alloy.Typecheck.check_result spec with
  | Error _ -> None
  | Ok env -> (
      match Mutate.all_mutations env spec ~with_pool:true () with
      | [] -> None
      | space ->
          let mutations = Array.of_list space in
          let sizes =
            Array.map
              (fun (m : Mutate.t) -> Location.node_size m.replacement)
              mutations
          in
          Some { mutations; sizes })

type candidates = {
  plain : Mutate.t list;  (* every node's structural edits, in node order *)
  pooled : Mutate.t list Lazy.t array;
      (* each node's pool replacements, built when first reached *)
}

let to_seq c =
  Seq.append (List.to_seq c.plain)
    (Seq.concat_map
       (fun tail -> List.to_seq (Lazy.force tail))
       (Array.to_seq c.pooled))

let length c =
  Array.fold_left
    (fun n tail -> n + List.length (Lazy.force tail))
    (List.length c.plain) c.pooled

let pools_built c =
  Array.fold_left
    (fun n tail -> if Lazy.is_val tail then n + 1 else n)
    0 c.pooled

module Counters = Specrepair_json.Counters

(* the keys of [stats], described in space.mli *)
let schema = Counters.schema "spaces"
let counter = Counters.counter schema
let built = counter "built"
let reused = counter "reused"
let evicted = counter "evicted"
let lists_built = counter "lists_built"
let lists_reused = counter "lists_reused"

(* A list is the whole LRU: with two entries a lookup compares at most two
   specs, physically first.  No hashing: a structural hash of a spec
   collides across a domain's variants (they share every signature).  The
   store's two LRUs bump one set of counts, each under its own keys. *)
type ('k, 'v) lru = {
  mutable entries : (Ast.spec * 'k * 'v) list;  (* most recently used first *)
  counts : Counters.t;
  on_build : Counters.key;
  on_reuse : Counters.key;
  on_evict : Counters.key option;
}

let capacity = 2

let lru counts ~on_build ~on_reuse ~on_evict =
  { entries = []; counts; on_build; on_reuse; on_evict }

(* The value stored for ([spec], [key]), else [build ()], stored. *)
let lookup lru spec key build =
  let hit ((_, _, v) as e) =
    Counters.incr lru.counts lru.on_reuse;
    lru.entries <- e :: List.filter (fun e' -> e' != e) lru.entries;
    v
  in
  match List.find_opt (fun (s, k, _) -> s == spec && k = key) lru.entries with
  | Some e -> hit e
  | None -> (
      match
        List.find_opt
          (fun (s, k, _) -> k = key && Ast.equal_spec s spec)
          lru.entries
      with
      | Some e -> hit e
      | None ->
          let v = build () in
          Counters.incr lru.counts lru.on_build;
          let entries = (spec, key, v) :: lru.entries in
          lru.entries <-
            (if List.length entries > capacity then begin
               Option.iter (Counters.incr lru.counts) lru.on_evict;
               List.filteri (fun i _ -> i < capacity) entries
             end
             else entries);
          v)

type store = {
  spaces : (unit, t option) lru;
  lists : (Location.site list * bool, candidates) lru;
}

let create_store () =
  let counts = Counters.create schema in
  {
    spaces =
      lru counts ~on_build:built ~on_reuse:reused ~on_evict:(Some evicted);
    lists =
      lru counts ~on_build:lists_built ~on_reuse:lists_reused ~on_evict:None;
  }

let find store spec = lookup store.spaces spec () (fun () -> build spec)

let candidates store (env : Alloy.Typecheck.env) ~sites ~with_pool =
  lookup store.lists env.spec (sites, with_pool) (fun () ->
      let nodes = Mutate.candidates_by_node env ~sites ~with_pool in
      {
        plain = List.concat_map fst nodes;
        pooled = Array.of_list (List.map (fun (_, p) -> Lazy.from_fun p) nodes);
      })

let stats store = Counters.copy store.spaces.counts
let specs store = List.map (fun (s, _, _) -> s) store.spaces.entries
