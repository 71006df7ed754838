module Alloy = Specrepair_alloy
module Solver = Specrepair_solver
module Ast = Alloy.Ast
module Mutation = Specrepair_mutation
module Faultloc = Specrepair_faultloc.Faultloc
module Telemetry = Specrepair_engine.Telemetry

(* Admission of an instance as a counterexample of assertion [name]:
   the facts hold and the assertion body does not. *)
let admits_cex (env : Alloy.Typecheck.env) name memo =
  match Ast.find_assert env.spec name with
  | None -> false
  | Some a -> (
      match
        Alloy.Eval.facts_hold_memo env memo
        && not (Alloy.Eval.fmla env (Alloy.Eval.instance memo) [] a.assert_body)
      with
      | v -> v
      | exception Alloy.Eval.Eval_error _ -> false)

(* Does the candidate behave differently from the original on any collected
   instance?  Candidates indistinguishable on every instance are pruned
   (BeAFix's non-equivalence pruning, sample-based). *)
let distinguishable env0 env' memos =
  List.exists
    (fun memo ->
      let inst = Alloy.Eval.instance memo in
      let v0 =
        match Alloy.Eval.facts_hold_memo env0 memo with
        | v -> v
        | exception Alloy.Eval.Eval_error _ -> false
      in
      let v1 =
        match Alloy.Eval.facts_hold_memo env' memo with
        | v -> v
        | exception Alloy.Eval.Eval_error _ -> false
      in
      v0 <> v1
      || List.exists
           (fun (a : Ast.assert_decl) ->
             let e0 =
               match Alloy.Eval.fmla env0 inst [] a.assert_body with
               | v -> v
               | exception Alloy.Eval.Eval_error _ -> false
             in
             let e1 =
               match
                 Alloy.Eval.fmla env' inst []
                   (match Ast.find_assert env'.Alloy.Typecheck.spec a.assert_name with
                   | Some a' -> a'.assert_body
                   | None -> a.assert_body)
               with
               | v -> v
               | exception Alloy.Eval.Eval_error _ -> false
             in
             e0 <> e1)
           env0.Alloy.Typecheck.spec.asserts)
    memos

let repair ?session (env0 : Alloy.Typecheck.env) =
  (* one incremental session shared by the whole bounded-exhaustive sweep *)
  let session =
    match session with Some s -> s | None -> Session.create env0
  in
  let budget = Session.budget session in
  let telemetry = Session.telemetry session in
  let max_conflicts = budget.Session.max_conflicts in
  if Common.oracle_passes ~max_conflicts session env0 then
    Common.result ~tool:"BeAFix" ~repaired:true env0.spec ~candidates:0
      ~iterations:0
  else begin
    let failing = Common.failing_checks ~max_conflicts session env0 in
    let scope_of_cmd (c : Ast.command) = Solver.Bounds.scope_of_command c in
    let cexs =
      List.concat_map
        (fun (c, name, _) ->
          List.map
            (fun i -> (name, i))
            (Common.counterexamples_for ~limit:3 session env0 name
               (scope_of_cmd c)))
        failing
    in
    let witnesses =
      List.concat_map
        (fun (c, name, _) ->
          Common.witnesses_for ~limit:3 session env0 name (scope_of_cmd c))
        failing
    in
    (* one memo per collected instance, shared by every candidate (and by
       [env0], which [distinguishable] re-evaluates for each of them) *)
    let cexs = List.map (fun (name, i) -> (name, Alloy.Eval.memo i)) cexs in
    let all_instances =
      List.map snd cexs @ List.map Alloy.Eval.memo witnesses
    in
    (* BeAFix performs no fault localization: it sweeps the marked
       suspicious locations — here, every constraint — in textual order,
       relying on pruning and the bounded-exhaustive sweep. *)
    let locations =
      Faultloc.candidate_locations env0.spec
        ~sites:(Mutation.Location.sites env0.spec)
      (* top-level constraint roots only: the sweep descends through every
         node of each root's subtree *)
      |> List.filter (fun (_, path) -> path = [])
    in
    let top_locations =
      List.filteri (fun i _ -> i < budget.Session.locations) locations
    in
    let tried = ref 0 in
    let verify env' = Common.oracle_passes ~max_conflicts session env' in
    let mutation f = Session.time session "mutation" f in
    let depth1 =
      (* candidate stream: depth 1 = single mutations at every node of the
         suspicious subtrees, kept with the session's spaces; depth 2 =
         pairs across distinct locations *)
      mutation (fun () ->
          Mutation.Space.candidates (Session.spaces session) env0
            ~sites:(List.map fst top_locations)
            ~with_pool:budget.Session.use_pool)
    in
    (* the count builds every pool replacement; a caller that reports it
       settles it *)
    Session.defer session (fun () ->
        mutation (fun () ->
            Telemetry.record_pool telemetry (Mutation.Space.length depth1)));
    let try_candidate spec' =
      incr tried;
      Telemetry.(incr telemetry candidates_evaluated);
      match Common.env_of_spec spec' with
      | None -> None
      | Some env' ->
          (* pruning: must kill every known counterexample *)
          let kills_cexs =
            List.for_all (fun (name, i) -> not (admits_cex env' name i)) cexs
          in
          if not kills_cexs then None
          else if
            all_instances <> [] && not (distinguishable env0 env' all_instances)
          then None
          else if verify env' then Some spec'
          else None
    in
    (* a step can build a node's pool replacements *)
    let rec search1 seq =
      match mutation seq with
      | Seq.Nil -> None
      | Seq.Cons (m, rest) ->
          if !tried >= budget.Session.max_candidates || Session.expired session
          then None
          else begin
            match try_candidate (Mutation.Mutate.apply env0.spec m) with
            | Some s -> Some s
            | None -> search1 rest
          end
    in
    let result1 = search1 (Mutation.Space.to_seq depth1) in
    let result =
      match result1 with
      | Some s -> Some s
      | None when budget.Session.max_depth >= 2 ->
          (* Depth 2: compose pairs of mutations at distinct locations.
             Enumerate by anti-diagonals (wavefront) so pairs of two
             early-ranked mutations are tried long before pairs involving a
             late one — a plain nested loop would spend the whole budget on
             pairs anchored at index 0. *)
          let ms =
            mutation (fun () ->
                Array.of_seq (Seq.take 150 (Mutation.Space.to_seq depth1)))
          in
          let n = Array.length ms in
          let found = ref None in
          (try
             for s = 1 to (2 * n) - 3 do
               for i = max 0 (s - n + 1) to (s - 1) / 2 do
                 let j = s - i in
                 if j > i && j < n then begin
                   let m1 = ms.(i) and m2 = ms.(j) in
                   if (m1.Mutation.Mutate.site, m1.path) <> (m2.site, m2.path)
                   then begin
                     if
                       !tried >= budget.Session.max_candidates
                       || Session.expired session
                     then raise Exit;
                     match
                       Mutation.Mutate.apply
                         (Mutation.Mutate.apply env0.spec m1)
                         m2
                     with
                     | spec' -> (
                         match try_candidate spec' with
                         | Some s ->
                             found := Some s;
                             raise Exit
                         | None -> ())
                     | exception _ -> ()
                   end
                 end
               done
             done
           with Exit -> ());
          !found
      | None -> None
    in
    match result with
    | Some s ->
        Common.result ~tool:"BeAFix" ~repaired:true s ~candidates:!tried
          ~iterations:1
    | None ->
        Common.result ~tool:"BeAFix" ~repaired:false
          ~timed_out:(Session.timed_out session) env0.spec ~candidates:!tried
          ~iterations:1
  end
