open Specrepair_sat
module Alloy = Specrepair_alloy
module Ast = Alloy.Ast
module Pool = Specrepair_mutation.Pool
module Bounds = Specrepair_solver.Bounds

(* {2 CNF} *)

let cnf rng =
  let num_vars = Rng.range rng 1 10 in
  let n_clauses = Rng.int rng 36 in
  let clauses =
    List.init n_clauses (fun _ ->
        let len = Rng.range rng 1 4 in
        List.init len (fun _ -> Lit.make (Rng.int rng num_vars) (Rng.bool rng)))
  in
  { Dimacs.num_vars; clauses }

let assumptions rng ~num_vars =
  let n = Rng.int rng 4 in
  List.init n (fun _ -> Lit.make (Rng.int rng num_vars) (Rng.bool rng))

(* {2 Formulas} *)

let intcmps = [ Ast.Ilt; Ast.Ile; Ast.Ieq; Ast.Ineq; Ast.Ige; Ast.Igt ]
let quants = [ Ast.Qall; Ast.Qsome; Ast.Qno; Ast.Qlone; Ast.Qone ]

let atomic rng (env : Alloy.Typecheck.env) vars =
  let pool = Pool.atomic_fmlas env ~vars ~limit:120 () in
  let choices =
    [ `Pool; `Pool; `Pool; `Pool; `Card; `Const ]
    @ (if env.spec.preds <> [] then [ `Call ] else [])
  in
  match Rng.choose rng choices with
  | `Const -> if Rng.bool rng then Ast.True else Ast.False
  | `Card -> (
      let arity = Rng.range rng 1 2 in
      match Pool.exprs env ~vars ~arity ~depth:2 ~limit:40 () with
      | [] -> Ast.True
      | exprs -> Ast.Card (Rng.choose rng intcmps, Rng.choose rng exprs, Rng.int rng 3))
  | `Call -> (
      let p = Rng.choose rng env.spec.preds in
      let args =
        List.map
          (fun _ ->
            match Pool.exprs env ~vars ~arity:1 ~depth:1 ~limit:20 () with
            | [] -> Ast.Univ
            | exprs -> Rng.choose rng exprs)
          p.Ast.pred_params
      in
      Ast.Call (p.Ast.pred_name, args))
  | `Pool -> ( match pool with [] -> Ast.True | _ -> Rng.choose rng pool)

let fmla rng (env : Alloy.Typecheck.env) ~vars ~depth =
  let fresh = ref 0 in
  let rec go vars depth =
    if depth <= 0 then atomic rng env vars
    else
      match Rng.int rng 9 with
      | 0 | 1 -> atomic rng env vars
      | 2 -> Ast.Not (go vars (depth - 1))
      | 3 -> Ast.And (go vars (depth - 1), go vars (depth - 1))
      | 4 -> Ast.Or (go vars (depth - 1), go vars (depth - 1))
      | 5 -> Ast.Implies (go vars (depth - 1), go vars (depth - 1))
      | 6 -> Ast.Iff (go vars (depth - 1), go vars (depth - 1))
      | 7 when env.spec.sigs <> [] ->
          let s = Rng.choose rng env.spec.sigs in
          let v = Printf.sprintf "v%d" !fresh in
          incr fresh;
          Ast.Quant
            ( Rng.choose rng quants,
              [ (v, Ast.Rel s.Ast.sig_name) ],
              go ((v, 1) :: vars) (depth - 1) )
      | _ -> atomic rng env vars
  in
  go vars depth

(* {2 Specifications} *)

let gen_field rng targets idx =
  let target = Rng.choose rng targets in
  let mult =
    Rng.choose rng [ Ast.Mset; Ast.Mset; Ast.Mset; Ast.Mlone; Ast.Mone ]
  in
  {
    Ast.fld_name = Printf.sprintf "f%d" idx;
    fld_cols = [ Ast.Rel target ];
    fld_mult = mult;
  }

let build_spec rng ~with_commands =
  let n_top = Rng.range rng 1 2 in
  let top_names = List.filteri (fun i _ -> i < n_top) [ "A"; "B" ] in
  let with_sub = Rng.chance rng 0.4 in
  let sub_parent = List.hd top_names in
  let all_names = top_names @ if with_sub then [ "C" ] else [] in
  (* fields: 0-2 binary fields over random owners/targets *)
  let n_fields = Rng.int rng 3 in
  let fields =
    List.init n_fields (fun i ->
        (Rng.choose rng all_names, gen_field rng all_names i))
  in
  let sig_mult rng =
    if Rng.chance rng 0.15 then Rng.choose rng [ Ast.Mone; Ast.Mlone; Ast.Msome ]
    else Ast.Mset
  in
  let mk_sig name parent =
    {
      Ast.sig_name = name;
      sig_parent = parent;
      sig_abstract = (parent = None && with_sub && name = sub_parent && Rng.chance rng 0.25);
      sig_mult = sig_mult rng;
      sig_fields =
        List.filter_map
          (fun (owner, f) -> if owner = name then Some f else None)
          fields;
    }
  in
  let sigs =
    List.map (fun n -> mk_sig n None) top_names
    @ (if with_sub then [ mk_sig "C" (Some sub_parent) ] else [])
  in
  (* the declaration-only env drives the typed pool for constraint bodies *)
  let env0 = Alloy.Typecheck.check { Ast.empty_spec with sigs } in
  let n_facts = Rng.int rng 3 in
  let facts =
    List.init n_facts (fun i ->
        {
          Ast.fact_name = (if Rng.bool rng then Some (Printf.sprintf "F%d" i) else None);
          fact_body = fmla rng env0 ~vars:[] ~depth:(Rng.range rng 1 3);
        })
  in
  let preds =
    if Rng.chance rng 0.4 then
      let params =
        if Rng.bool rng then
          [ ("x", Ast.Rel (Rng.choose rng all_names)) ]
        else []
      in
      let vars = List.map (fun (n, _) -> (n, 1)) params in
      [
        {
          Ast.pred_name = "p";
          pred_params = params;
          pred_body = fmla rng env0 ~vars ~depth:2;
        };
      ]
    else []
  in
  let asserts =
    if Rng.chance rng 0.4 then
      [ { Ast.assert_name = "q"; assert_body = fmla rng env0 ~vars:[] ~depth:2 } ]
    else []
  in
  let commands =
    if not with_commands then []
    else
      let kinds =
        [ `Fmla; `Fmla ]
        @ (if preds <> [] then [ `Pred ] else [])
        @ if asserts <> [] then [ `Check ] else []
      in
      List.init (Rng.range rng 1 2) (fun _ ->
          let cmd_kind =
            match Rng.choose rng kinds with
            | `Fmla -> Ast.Run_fmla (fmla rng env0 ~vars:[] ~depth:2)
            | `Pred -> Ast.Run_pred "p"
            | `Check -> Ast.Check "q"
          in
          {
            Ast.cmd_kind;
            cmd_scope = (if Rng.chance rng 0.2 then 1 else 2);
            cmd_scopes =
              (if with_sub && Rng.chance rng 0.2 then [ ("C", Rng.int rng 2) ]
               else if Rng.chance rng 0.2 then [ (List.hd top_names, Rng.range rng 1 2) ]
               else []);
          })
  in
  { Ast.empty_spec with sigs; facts; preds; asserts; commands }

let spec ?(with_commands = false) rng =
  let rec attempt n =
    let candidate = build_spec rng ~with_commands in
    match Alloy.Typecheck.check_result candidate with
    | Ok env -> env
    | Error _ when n > 0 -> attempt (n - 1)
    | Error msg ->
        invalid_arg
          (Printf.sprintf "Gen.spec: generator produced an ill-typed spec: %s" msg)
  in
  attempt 5

(* {2 Scopes} *)

let scope ?(child_caps = true) rng (env : Alloy.Typecheck.env) =
  let default = if Rng.chance rng 0.15 then 1 else 2 in
  let overrides = ref [] in
  if env.top_sigs <> [] && Rng.chance rng 0.3 then begin
    let top = Rng.choose rng env.top_sigs in
    overrides := [ (top, Rng.range rng 1 2) ]
  end;
  let subs =
    List.filter (fun s -> not (List.mem s env.top_sigs)) env.sig_order
  in
  if child_caps && subs <> [] && Rng.chance rng 0.25 then
    overrides := (Rng.choose rng subs, Rng.int rng 2) :: !overrides;
  { Bounds.default; overrides = !overrides }

(* {2 Instances} *)

let instance rng (bounds : Bounds.t) =
  let env = bounds.Bounds.env in
  let spec = env.spec in
  let tuples_of name = List.map fst (Hashtbl.find bounds.Bounds.rel_vars name) in
  (* signature memberships, parents before children so containment holds *)
  let chosen : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun name ->
      let s = Option.get (Ast.find_sig spec name) in
      let members =
        match s.Ast.sig_parent with
        | None ->
            (* the bounds break symmetry by forcing top-level pools to be
               used in index order, so a pinnable membership must be a pool
               prefix; up to isomorphism this loses nothing, since specs
               cannot name atoms *)
            let pool =
              List.map (fun (t : Alloy.Instance.Tuple.t) -> t.(0)) (tuples_of name)
            in
            let k = Rng.int rng (List.length pool + 1) in
            List.filteri (fun i _ -> i < k) pool
        | Some p ->
            List.filter (fun _ -> Rng.chance rng 0.55) (Hashtbl.find chosen p)
      in
      Hashtbl.replace chosen name members)
    env.sig_order;
  let sigs =
    List.map (fun (s : Ast.sig_decl) -> (s.Ast.sig_name, Hashtbl.find chosen s.sig_name)) spec.sigs
  in
  let fields =
    List.concat_map
      (fun (s : Ast.sig_decl) ->
        List.map
          (fun (f : Ast.field) ->
            ( f.Ast.fld_name,
              Alloy.Instance.Tuple_set.of_list
                (List.filter (fun _ -> Rng.chance rng 0.3) (tuples_of f.Ast.fld_name)) ))
          s.Ast.sig_fields)
      spec.sigs
  in
  { Alloy.Instance.sigs; fields }
