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

let build_candidates (env : Alloy.Typecheck.env) ~sites ~with_pool =
  let plain, pooled =
    Mutate.all_mutations env env.spec ~sites ~with_pool ~unique:true ()
    |> List.partition (fun m -> not (Mutate.from_pool m))
  in
  plain @ pooled

(* A list is the whole LRU: with two entries a lookup compares at most two
   specs, physically first.  No hashing: a structural hash of a spec
   collides across a domain's variants (they share every signature). *)
type ('k, 'v) lru = {
  mutable entries : (Ast.spec * 'k * 'v) list;  (* most recently used first *)
  mutable built : int;
  mutable reused : int;
  mutable evicted : int;
}

let capacity = 2

let lru () = { entries = []; built = 0; reused = 0; evicted = 0 }

(* The value stored for ([spec], [key]), else [build ()], stored. *)
let lookup lru spec key build =
  let hit ((_, _, v) as e) =
    lru.reused <- lru.reused + 1;
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
          lru.built <- lru.built + 1;
          let entries = (spec, key, v) :: lru.entries in
          lru.entries <-
            (if List.length entries > capacity then begin
               lru.evicted <- lru.evicted + 1;
               List.filteri (fun i _ -> i < capacity) entries
             end
             else entries);
          v)

type store = {
  spaces : (unit, t option) lru;
  lists : (Location.site list * bool, Mutate.t list) lru;
}

type stats = {
  built : int;
  reused : int;
  evicted : int;
  lists_built : int;
  lists_reused : int;
}

let create_store () = { spaces = lru (); lists = lru () }

let find store spec = lookup store.spaces spec () (fun () -> build spec)

let candidates store (env : Alloy.Typecheck.env) ~sites ~with_pool =
  lookup store.lists env.spec (sites, with_pool) (fun () ->
      build_candidates env ~sites ~with_pool)

let stats { spaces; lists } =
  {
    built = spaces.built;
    reused = spaces.reused;
    evicted = spaces.evicted;
    lists_built = lists.built;
    lists_reused = lists.reused;
  }

let specs store = List.map (fun (s, _, _) -> s) store.spaces.entries
