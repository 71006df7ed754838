(* Tests for AST locations, the typed expression pool, mutation operators
   and BeAFix's depth-1 candidate list. *)

open Specrepair_alloy
module Mutation = Specrepair_mutation
module Location = Mutation.Location
module Pool = Mutation.Pool
module Mutate = Mutation.Mutate
module Space = Mutation.Space

let spec_src =
  {|
sig Node {
  edges: set Node,
  tag: set Mark
}
sig Mark {}
fact Connected {
  all n: Node | some n.edges && n not in n.edges
}
pred reachable[a: Node, b: Node] {
  b in a.^edges
}
assert NoSelf {
  no n: Node | n in n.edges
}
check NoSelf for 3
|}

let env = lazy (Typecheck.check (Parser.parse spec_src))
let spec () = (Lazy.force env).spec

(* {2 Locations} *)

let test_sites () =
  let sites = Location.sites (spec ()) in
  Alcotest.(check int) "three sites" 3 (List.length sites);
  Alcotest.(check bool) "fact site first" true
    (List.hd sites = Location.Fact_site 0)

let test_body_roundtrip () =
  let s = spec () in
  List.iter
    (fun site ->
      let body = Location.body s site in
      let s' = Location.with_body s site body in
      Alcotest.(check bool) "with_body of same body is identity" true (s = s'))
    (Location.sites s)

let test_get_replace_identity () =
  let s = spec () in
  List.iter
    (fun site ->
      let body = Location.body s site in
      List.iter
        (fun (path, node) ->
          let body' = Location.replace body path node in
          Alcotest.(check bool)
            (Printf.sprintf "replace with self at %s is identity"
               (Location.path_to_string path))
            true (body = body'))
        (Location.subnodes body))
    (Location.sites s)

let test_subnodes_count () =
  let body = Location.body (spec ()) (Location.Fact_site 0) in
  (* all n: Node | some n.edges && n not in n.edges *)
  let nodes = Location.subnodes body in
  Alcotest.(check bool) "at least 8 nodes" true (List.length nodes >= 8);
  Alcotest.(check bool) "root is a formula" true
    (match List.assoc [] nodes with Location.F _ -> true | _ -> false)

let test_vars_at () =
  let s = spec () in
  (* inside the quantifier body, n is in scope *)
  let body = Location.body s (Location.Fact_site 0) in
  let in_body_path =
    (* Quant has children [decl bound; body]; path [1] = body *)
    [ 1 ]
  in
  (match Location.get body in_body_path with
  | Location.F _ -> ()
  | _ -> Alcotest.fail "expected a formula at the quantifier body");
  let vars =
    Location.vars_at (Lazy.force env) s (Location.Fact_site 0) in_body_path
  in
  Alcotest.(check bool) "n in scope" true (List.mem_assoc "n" vars);
  (* in the bound expression (path [0]) it is not *)
  let vars0 = Location.vars_at (Lazy.force env) s (Location.Fact_site 0) [ 0 ] in
  Alcotest.(check bool) "n not in scope in its own bound" false
    (List.mem_assoc "n" vars0);
  (* predicate parameters are in scope in the predicate body *)
  let vars_pred =
    Location.vars_at (Lazy.force env) s (Location.Pred_site "reachable") []
  in
  Alcotest.(check bool) "params in scope" true
    (List.mem_assoc "a" vars_pred && List.mem_assoc "b" vars_pred)

(* {2 Pool} *)

let test_pool_arity () =
  let e = Lazy.force env in
  List.iter
    (fun arity ->
      let exprs = Pool.exprs e ~vars:[] ~arity ~depth:2 () in
      Alcotest.(check bool)
        (Printf.sprintf "pool of arity %d non-empty" arity)
        true (exprs <> []);
      List.iter
        (fun expr ->
          Alcotest.(check int)
            (Printf.sprintf "arity of %s" (Pretty.expr_to_string expr))
            arity
            (Typecheck.expr_arity e [] expr))
        exprs)
    [ 1; 2 ]

let test_pool_dedup () =
  let e = Lazy.force env in
  let exprs = Pool.exprs e ~vars:[] ~arity:1 ~depth:2 () in
  Alcotest.(check int) "no duplicates"
    (List.length exprs)
    (List.length (List.sort_uniq compare exprs))

let test_pool_vars () =
  let e = Lazy.force env in
  let exprs = Pool.exprs e ~vars:[ ("x", 1) ] ~arity:1 ~depth:2 ~limit:500 () in
  Alcotest.(check bool) "variable appears in pool" true
    (List.mem (Ast.Rel "x") exprs)

let test_atomic_fmlas () =
  let e = Lazy.force env in
  let atoms = Pool.atomic_fmlas e ~vars:[] () in
  Alcotest.(check bool) "non-empty" true (atoms <> []);
  List.iter
    (fun f ->
      match f with
      | Ast.Cmp _ | Ast.Multf _ -> ()
      | _ -> Alcotest.fail "atomic pool should contain only cmp/mult formulas")
    atoms

(* {2 Mutations} *)

let test_mutations_well_typed () =
  let e = Lazy.force env in
  let all = Mutate.all_mutations e (spec ()) ~with_pool:true () in
  Alcotest.(check bool) "large mutation space" true (List.length all > 100);
  let bad =
    List.filter
      (fun m ->
        match Mutate.apply (spec ()) m with
        | s -> not (Mutate.well_typed e s)
        | exception _ -> true)
      all
  in
  (* pool replacements are arity-correct by construction, so every mutant
     must type-check *)
  Alcotest.(check int) "all mutants type-check" 0 (List.length bad)

let test_mutations_change_spec () =
  let e = Lazy.force env in
  let all = Mutate.all_mutations e (spec ()) ~with_pool:false () in
  List.iter
    (fun m ->
      match Mutate.apply (spec ()) m with
      | s ->
          Alcotest.(check bool)
            (Format.asprintf "%a is not a no-op" Mutate.pp m)
            false
            (Ast.equal_spec s (spec ()))
      | exception _ -> Alcotest.fail "mutation application failed")
    all

let test_quant_swap_present () =
  let e = Lazy.force env in
  let all = Mutate.all_mutations e (spec ()) ~with_pool:false () in
  let ops = List.sort_uniq compare (List.map (fun (m : Mutate.t) -> m.op) all) in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " generated") true
        (List.mem expected ops))
    [ "quant-swap"; "cmpop-swap"; "fmult-swap"; "junct-drop"; "negation-add" ]

(* {2 Determinism}

   The fuzzer replays failures from a seed alone, which only works if the
   candidate streams under the seed are bit-reproducible: the unseeded
   pool/mutation enumeration must be stable across calls, and the seeded
   sampling on top of it must depend on nothing but the seed. *)

let test_pool_deterministic () =
  let e = Lazy.force env in
  let stream () =
    Pool.exprs e ~vars:[ ("n", 1) ] ~arity:1 ~depth:2 ()
    |> List.map Pretty.expr_to_string
  in
  Alcotest.(check (list string)) "pool stream stable" (stream ()) (stream ());
  let muts () =
    Mutate.all_mutations e (spec ()) ()
    |> List.map (Format.asprintf "%a" Mutate.pp)
  in
  Alcotest.(check (list string)) "mutation stream stable" (muts ()) (muts ())

let test_seeded_stream_deterministic () =
  let e = Lazy.force env in
  let candidates seed =
    let rng = Specrepair_fuzz.Rng.of_context ~seed [ "mutants" ] in
    Specrepair_fuzz.Rng.sample rng 8 (Mutate.all_mutations e (spec ()) ())
    |> List.map (fun m -> Pretty.spec_to_string (Mutate.apply (spec ()) m))
  in
  Alcotest.(check (list string))
    "same seed, byte-identical candidates" (candidates 3) (candidates 3);
  Alcotest.(check bool) "different seeds sample differently" true
    (List.exists (fun s -> candidates s <> candidates 3) [ 4; 5; 6; 7 ])

(* {2 Pool sharing}

   [all_mutations] shares each replacement pool between the nodes of one
   build that ask for it.  The space must be exactly the per-node
   enumeration, where every node asks {!Pool} afresh. *)

let per_node_mutations env spec ?(sites = Location.sites spec) ~with_pool () =
  List.concat_map
    (fun site ->
      List.concat_map
        (fun (path, _) -> Mutate.mutations_at env spec site path ~with_pool ())
        (Location.subnodes (Location.body spec site)))
    sites

let check_per_node label env spec =
  List.iter
    (fun with_pool ->
      let shared = Mutate.all_mutations env spec ~with_pool () in
      if shared <> per_node_mutations env spec ~with_pool () then
        Alcotest.failf "%s (with_pool %b): space differs from per-node" label
          with_pool)
    [ false; true ]

(* Nodes in different quantifier scopes see different variables, so a pool
   shared by arity alone would offer one scope's variables in another. *)
let scoped_src =
  {|
sig A { r: set B }
sig B { s: set A }
fact OneScope {
  all x: A | some x.r
}
fact TwoScopes {
  all y: B, z: A | y in z.r implies some y.s
}
pred P[p: A] {
  some q: B | q in p.r && no q.s
}
run P for 3
|}

let test_shared_pools_scoped () =
  let e = Typecheck.check (Parser.parse scoped_src) in
  let spec = e.spec in
  let scopes =
    List.concat_map
      (fun site ->
        List.map
          (fun (path, _) -> Location.vars_at e spec site path)
          (Location.subnodes (Location.body spec site)))
      (Location.sites spec)
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "nodes bind at least four variable sets" true
    (List.length scopes >= 4);
  check_per_node "scoped" e spec;
  (* a subset of sites, in a different order, as BeAFix's sweep asks *)
  let sites = List.rev (Location.sites spec) in
  Alcotest.(check bool) "reordered sites" true
    (Mutate.all_mutations e spec ~sites ~with_pool:true ()
    = per_node_mutations e spec ~sites ~with_pool:true ())

let test_shared_pools_corpus () =
  let module B = Specrepair_benchmarks in
  List.iter
    (fun (d : B.Domains.t) -> check_per_node d.name (B.Domains.env d) (B.Domains.spec d))
    B.Domains.all;
  let variants =
    List.filter_map
      (fun (v : B.Generate.variant) ->
        match Typecheck.check_result v.injected.faulty with
        | Ok e -> Some (v.id, e)
        | Error _ -> None)
      (B.Generate.sample ~per_domain:5 ())
  in
  Alcotest.(check bool) "at least 50 fault variants" true
    (List.length variants >= 50);
  List.iter (fun (id, (e : Typecheck.env)) -> check_per_node id e e.spec) variants

(* {2 BeAFix's depth-1 candidate list}

   The list used to be built by deduplicating the whole enumeration on
   (site, path, replacement) in a polymorphic hash table, then stable-
   sorting the structural edits before the pool replacements.  That
   pipeline is kept here as the reference: the per-node dedup and the
   lazily built pool replacements must give the same list, in the same
   order, and the same length. *)

let reference_candidates (env : Typecheck.env) ~sites ~with_pool =
  let seen = Hashtbl.create 64 in
  let is_pool_op (m : Mutate.t) =
    match m.op with
    | "expr-replace" | "junct-add-and" | "junct-add-or" -> true
    | _ -> false
  in
  Mutate.all_mutations env env.spec ~sites ~with_pool ()
  |> List.filter (fun (m : Mutate.t) ->
         let key = (m.site, m.path, m.replacement) in
         if Hashtbl.mem seen key then false
         else begin
           Hashtbl.add seen key ();
           true
         end)
  |> List.stable_sort (fun a b -> compare (is_pool_op a) (is_pool_op b))

(* The sites BeAFix sweeps: constraint roots other than true and false,
   at most [n] of them in textual order *)
let beafix_sites spec n =
  Location.sites spec
  |> List.filter (fun site ->
         match Location.body spec site with
         | Ast.True | Ast.False -> false
         | _ -> true)
  |> List.filteri (fun i _ -> i < n)

(* A list built outside any store a test looks in *)
let fresh_list env ~sites ~with_pool =
  Space.candidates (Space.create_store ()) env ~sites ~with_pool

let elements list = List.of_seq (Space.to_seq list)

let test_candidates_match_reference () =
  let module B = Specrepair_benchmarks in
  let variants = B.Generate.sample ~seed:7 ~per_domain:3 () in
  let domains =
    List.sort_uniq compare
      (List.map (fun (v : B.Generate.variant) -> v.domain.name) variants)
  in
  Alcotest.(check int) "every domain" (List.length B.Domains.all)
    (List.length domains);
  let dropped = ref 0 in
  List.iter
    (fun (v : B.Generate.variant) ->
      match Typecheck.check_result v.injected.faulty with
      | Error _ -> ()
      | Ok env ->
          List.iter
            (fun (n, with_pool) ->
              let sites = beafix_sites env.spec n in
              let expected = reference_candidates env ~sites ~with_pool in
              let list = fresh_list env ~sites ~with_pool in
              if elements list <> expected then
                Alcotest.failf "%s (%d sites, with_pool %b): list differs" v.id
                  n with_pool;
              if Space.length list <> List.length expected then
                Alcotest.failf "%s (%d sites, with_pool %b): length differs"
                  v.id n with_pool;
              dropped :=
                !dropped
                + List.length
                    (Mutate.all_mutations env env.spec ~sites ~with_pool ())
                - Space.length list)
            [ (5, false); (5, true); (6, true); (max_int, false) ])
    variants;
  (* the dedup has something to do *)
  Alcotest.(check bool) "some repeats dropped" true (!dropped > 0)

let test_candidates_store () =
  let e = Lazy.force env in
  let sites = Location.sites e.spec in
  let store = Space.create_store () in
  let lists () =
    let st = Space.stats store in
    Specrepair_json.Counters.(find st "lists_built", find st "lists_reused")
  in
  let first = Space.candidates store e ~sites ~with_pool:true in
  Alcotest.(check (pair int int)) "cold: one build" (1, 0) (lists ());
  Alcotest.(check bool) "a build is the fresh list" true
    (elements first = elements (fresh_list e ~sites ~with_pool:true));
  Alcotest.(check bool) "a hit is the stored list" true
    (Space.candidates store e ~sites ~with_pool:true == first);
  (* a structurally equal spec from a second parse hits too *)
  let e' = Typecheck.check (Parser.parse spec_src) in
  Alcotest.(check bool) "a second parse is physically distinct" true
    (e'.spec != e.spec);
  Alcotest.(check bool) "an equal spec hits" true
    (Space.candidates store e' ~sites ~with_pool:true == first);
  Alcotest.(check (pair int int)) "warm: reuses only" (1, 2) (lists ());
  (* the sites and the pool switch are part of the key *)
  let plain = Space.candidates store e ~sites ~with_pool:false in
  Alcotest.(check bool) "without pool" true
    (elements plain = elements (fresh_list e ~sites ~with_pool:false));
  ignore (Space.candidates store e ~sites:(List.tl sites) ~with_pool:true);
  Alcotest.(check (pair int int)) "other keys build" (3, 2) (lists ());
  (* two lists at most: the first key was least recently used *)
  ignore (Space.candidates store e ~sites ~with_pool:true);
  Alcotest.(check (pair int int)) "evicted key rebuilds" (4, 2) (lists ());
  Alcotest.(check int) "no space built" 0 (Specrepair_json.Counters.find (Space.stats store) "built")

let () =
  Alcotest.run "mutation"
    [
      ( "location",
        [
          Alcotest.test_case "sites" `Quick test_sites;
          Alcotest.test_case "with_body identity" `Quick test_body_roundtrip;
          Alcotest.test_case "replace-with-self identity" `Quick
            test_get_replace_identity;
          Alcotest.test_case "subnodes" `Quick test_subnodes_count;
          Alcotest.test_case "vars_at" `Quick test_vars_at;
        ] );
      ( "pool",
        [
          Alcotest.test_case "arity" `Quick test_pool_arity;
          Alcotest.test_case "dedup" `Quick test_pool_dedup;
          Alcotest.test_case "variables" `Quick test_pool_vars;
          Alcotest.test_case "atomic formulas" `Quick test_atomic_fmlas;
          Alcotest.test_case "deterministic streams" `Quick
            test_pool_deterministic;
          Alcotest.test_case "seeded sampling deterministic" `Quick
            test_seeded_stream_deterministic;
        ] );
      ( "mutate",
        [
          Alcotest.test_case "well-typed" `Quick test_mutations_well_typed;
          Alcotest.test_case "no no-ops" `Quick test_mutations_change_spec;
          Alcotest.test_case "operator coverage" `Quick test_quant_swap_present;
          Alcotest.test_case "shared pools across scopes" `Quick
            test_shared_pools_scoped;
          Alcotest.test_case "shared pools over the corpus" `Quick
            test_shared_pools_corpus;
        ] );
      ( "candidates",
        [
          Alcotest.test_case "equal the reference pipeline" `Quick
            test_candidates_match_reference;
          Alcotest.test_case "store hits equal fresh builds" `Quick
            test_candidates_store;
        ] );
    ]
