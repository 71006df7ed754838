module Alloy = Specrepair_alloy
module Mutation = Specrepair_mutation
module Aunit = Specrepair_aunit.Aunit
module Location = Mutation.Location
module Ast = Alloy.Ast

type location = { site : Location.site; path : Location.path; score : float }

let pp_location ppf l =
  Format.fprintf ppf "%s[%s] %.3f"
    (Location.site_to_string l.site)
    (Location.path_to_string l.path)
    l.score

let candidate_locations spec ~sites =
  List.concat_map
    (fun site ->
      let body = Location.body spec site in
      List.filter_map
        (fun (path, node) ->
          match node with
          | Location.F (Ast.True | Ast.False) -> None
          | Location.F _ -> Some (site, path)
          | Location.E _ -> None)
        (Location.subnodes body))
    sites

(* The two relaxations of a location: node replaced by true and by false. *)
let relaxations spec (site, path) =
  List.filter_map
    (fun replacement ->
      let body = Location.body spec site in
      match Location.replace body path replacement with
      | body' -> Some (Location.with_body spec site body')
      | exception _ -> None)
    [ Location.F Ast.True; Location.F Ast.False ]

let env_of spec =
  match Alloy.Typecheck.check_result spec with
  | Ok env -> Some env
  | Error _ -> None

(* Sort best-first; ties: smaller subtree first, then textual position. *)
let order spec locations =
  List.stable_sort
    (fun a b ->
      match compare b.score a.score with
      | 0 ->
          let size l =
            Location.node_size (Location.get (Location.body spec l.site) l.path)
          in
          compare (size a, a.site, a.path) (size b, b.site, b.path)
      | c -> c)
    locations

let rank_by_tests (env : Alloy.Typecheck.env) tests ?sites () =
  let spec = env.spec in
  let sites =
    match sites with Some s -> s | None -> Location.sites spec
  in
  let baseline = Aunit.run_suite env tests in
  let n_failing = List.length baseline.failing in
  if n_failing = 0 then []
  else
    let score_loc (site, path) =
      let best =
        List.fold_left
          (fun best relaxed ->
            match env_of relaxed with
            | None -> best
            | Some env' ->
                let fixed =
                  List.length
                    (List.filter (Aunit.run_test env') baseline.failing)
                in
                let newly_broken =
                  List.length
                    (List.filter
                       (fun t -> not (Aunit.run_test env' t))
                       baseline.passing)
                in
                let s =
                  (float_of_int fixed /. float_of_int n_failing)
                  -. (0.3
                    *. float_of_int newly_broken
                    /. float_of_int (max 1 (List.length baseline.passing)))
                in
                max best s)
          0. (relaxations spec (site, path))
      in
      { site; path; score = best }
    in
    let locations = List.map score_loc (candidate_locations spec ~sites) in
    order spec (List.filter (fun l -> l.score > 0.) locations)

let goal_of_assert name (env : Alloy.Typecheck.env) =
  match Ast.find_assert env.spec name with
  | Some a -> Ast.Not a.assert_body
  | None -> Ast.True

let rank_by_instances (env : Alloy.Typecheck.env) ~goal_of ~counterexamples
    ~witnesses ?sites () =
  let spec = env.spec in
  let sites = match sites with Some s -> s | None -> Location.sites spec in
  (* classification of an instance under a (possibly relaxed) spec; the
     goal formula is re-read from that spec so relaxations of assertion
     bodies are visible *)
  let classify env' memo =
    match
      ( Alloy.Eval.facts_hold_memo env' memo,
        Alloy.Eval.fmla env' (Alloy.Eval.instance memo) [] (goal_of env') )
    with
    | facts, g -> (facts, g)
    | exception Alloy.Eval.Eval_error _ -> (false, false)
  in
  (* every relaxation shares all but one site with [env]: the instances'
     memos replay the rest *)
  let counterexamples = List.map Alloy.Eval.memo counterexamples in
  let witnesses = List.map Alloy.Eval.memo witnesses in
  let cex_baseline = List.map (classify env) counterexamples in
  let wit_baseline = List.map (classify env) witnesses in
  let score_loc (site, path) =
    let relaxed_envs =
      List.filter_map env_of (relaxations spec (site, path))
    in
    (* fraction of instances whose classification changes under some
       relaxation of the node *)
    let fraction_changed insts baseline =
      match (insts, relaxed_envs) with
      | [], _ | _, [] -> 0.
      | _ ->
          let changed inst base =
            List.exists (fun env' -> classify env' inst <> base) relaxed_envs
          in
          let n =
            List.length
              (List.filter Fun.id (List.map2 changed insts baseline))
          in
          float_of_int n /. float_of_int (List.length insts)
    in
    let cex_relevance = fraction_changed counterexamples cex_baseline in
    let wit_disturbance = fraction_changed witnesses wit_baseline in
    { site; path; score = cex_relevance -. (0.3 *. wit_disturbance) }
  in
  let locations = List.map score_loc (candidate_locations spec ~sites) in
  order spec (List.filter (fun l -> l.score > 0.) locations)
