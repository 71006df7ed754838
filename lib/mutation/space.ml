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

(* A list is the whole LRU: with two entries a lookup compares at most two
   specs, physically first.  No hashing: a structural hash of a spec
   collides across a domain's variants (they share every signature). *)
type entry = { spec : Ast.spec; space : t option }

type store = {
  mutable entries : entry list;  (* most recently used first *)
  mutable built : int;
  mutable reused : int;
  mutable evicted : int;
}

type stats = { built : int; reused : int; evicted : int }

let capacity = 2

let create_store () = { entries = []; built = 0; reused = 0; evicted = 0 }

let find (store : store) spec =
  let hit e =
    store.reused <- store.reused + 1;
    store.entries <- e :: List.filter (fun e' -> e' != e) store.entries;
    e.space
  in
  match List.find_opt (fun e -> e.spec == spec) store.entries with
  | Some e -> hit e
  | None -> (
      match
        List.find_opt (fun e -> Ast.equal_spec e.spec spec) store.entries
      with
      | Some e -> hit e
      | None ->
          let space = build spec in
          store.built <- store.built + 1;
          let entries = { spec; space } :: store.entries in
          store.entries <-
            (if List.length entries > capacity then begin
               store.evicted <- store.evicted + 1;
               List.filteri (fun i _ -> i < capacity) entries
             end
             else entries);
          space)

let stats (store : store) =
  { built = store.built; reused = store.reused; evicted = store.evicted }

let specs store = List.map (fun e -> e.spec) store.entries
