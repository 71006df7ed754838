open Ast
module TS = Instance.Tuple_set

exception Eval_error of string

type bindings = (string * TS.t) list

let err fmt = Format.kasprintf (fun msg -> raise (Eval_error msg)) fmt

let head (t : Instance.Tuple.t) = t.(0)
let last (t : Instance.Tuple.t) = t.(Array.length t - 1)

let join_tuples (t1 : Instance.Tuple.t) (t2 : Instance.Tuple.t) =
  let n1 = Array.length t1 and n2 = Array.length t2 in
  let r = Array.make (n1 + n2 - 2) "" in
  Array.blit t1 0 r 0 (n1 - 1);
  Array.blit t2 1 r (n1 - 1) (n2 - 1);
  r

let join a b =
  TS.fold
    (fun t1 acc ->
      TS.fold
        (fun t2 acc ->
          if last t1 = head t2 && Array.length t1 + Array.length t2 > 2 then
            TS.add (join_tuples t1 t2) acc
          else acc)
        b acc)
    a TS.empty

let product a b =
  TS.fold
    (fun t1 acc ->
      TS.fold (fun t2 acc -> TS.add (Array.append t1 t2) acc) b acc)
    a TS.empty

let transpose a = TS.map (fun t -> [| t.(1); t.(0) |]) a

(* Transitive closure of a binary relation, by iterated squaring against the
   accumulated result. *)
let closure a =
  let rec fixpoint acc =
    let next = TS.union acc (join acc a) in
    if TS.equal next acc then acc else fixpoint next
  in
  fixpoint a

let override a b =
  let overridden_heads =
    TS.fold (fun t acc -> TS.add [| head t |] acc) b TS.empty
  in
  let kept = TS.filter (fun t -> not (TS.mem [| head t |] overridden_heads)) a in
  TS.union kept b

let rec expr env inst bindings e =
  match e with
  | Rel name -> (
      match List.assoc_opt name bindings with
      | Some v -> v
      | None -> (
          match List.assoc_opt name inst.Instance.fields with
          | Some v -> v
          | None -> (
              match List.assoc_opt name inst.Instance.sigs with
              | Some atoms -> Instance.tuples_of_atoms atoms
              | None -> (
                  match Ast.find_fun env.Typecheck.spec name with
                  | Some f -> derived_relation env inst f
                  | None ->
                      (* atom references (Node$0) denote singletons *)
                      if List.mem name (Instance.universe inst) then
                        TS.singleton [| name |]
                      else err "unknown relation %s" name))))
  | Univ -> Instance.tuples_of_atoms (Instance.universe inst)
  | Iden ->
      List.fold_left
        (fun acc a -> TS.add [| a; a |] acc)
        TS.empty (Instance.universe inst)
  | None_ -> TS.empty
  | Unop (Transpose, e) -> transpose (expr env inst bindings e)
  | Unop (Closure, e) -> closure (expr env inst bindings e)
  | Unop (Rclosure, e) ->
      let c = closure (expr env inst bindings e) in
      List.fold_left
        (fun acc a -> TS.add [| a; a |] acc)
        c (Instance.universe inst)
  | Binop (Join, a, b) -> join (expr env inst bindings a) (expr env inst bindings b)
  | Binop (Product, a, b) ->
      product (expr env inst bindings a) (expr env inst bindings b)
  | Binop (Union, a, b) ->
      TS.union (expr env inst bindings a) (expr env inst bindings b)
  | Binop (Diff, a, b) ->
      TS.diff (expr env inst bindings a) (expr env inst bindings b)
  | Binop (Inter, a, b) ->
      TS.inter (expr env inst bindings a) (expr env inst bindings b)
  | Binop (Override, a, b) ->
      override (expr env inst bindings a) (expr env inst bindings b)
  | Binop (Domrestr, s, e) ->
      let dom = expr env inst bindings s in
      TS.filter (fun t -> TS.mem [| head t |] dom) (expr env inst bindings e)
  | Binop (Ranrestr, e, s) ->
      let ran = expr env inst bindings s in
      TS.filter (fun t -> TS.mem [| last t |] ran) (expr env inst bindings e)
  | Ite (c, a, b) ->
      if fmla env inst bindings c then expr env inst bindings a
      else expr env inst bindings b
  | Compr (decls, body) ->
      (* enumerate assignments of the declared variables; keep the tuples
         whose assignment satisfies the body *)
      let rec expand bindings tuple_prefix = function
        | [] ->
            if fmla env inst bindings body then
              TS.singleton (Array.of_list (List.rev tuple_prefix))
            else TS.empty
        | (name, bound) :: rest ->
            TS.fold
              (fun t acc ->
                let b = (name, TS.singleton t) :: bindings in
                TS.union acc (expand b (t.(0) :: tuple_prefix) rest))
              (expr env inst bindings bound)
              TS.empty
      in
      expand bindings [] decls

(* The relation a function denotes: parameter tuples prepended to the
   tuples of the body evaluated under them. *)
and derived_relation env inst (f : Ast.fun_decl) =
  let rec expand bindings prefix = function
    | [] ->
        TS.fold
          (fun t acc ->
            TS.add (Array.append (Array.of_list (List.rev prefix)) t) acc)
          (expr env inst bindings f.fun_body)
          TS.empty
    | (name, bound) :: rest ->
        TS.fold
          (fun t acc ->
            let b = (name, TS.singleton t) :: bindings in
            TS.union acc (expand b (t.(0) :: prefix) rest))
          (expr env inst bindings bound)
          TS.empty
  in
  expand [] [] f.fun_params

and fmla env inst bindings f =
  match f with
  | True -> true
  | False -> false
  | Cmp (op, a, b) -> (
      let va = expr env inst bindings a and vb = expr env inst bindings b in
      match op with
      | Cin -> TS.subset va vb
      | Cnotin -> not (TS.subset va vb)
      | Ceq -> TS.equal va vb
      | Cneq -> not (TS.equal va vb))
  | Multf (m, e) -> (
      let v = expr env inst bindings e in
      match m with
      | Fno -> TS.is_empty v
      | Fsome -> not (TS.is_empty v)
      | Flone -> TS.cardinal v <= 1
      | Fone -> TS.cardinal v = 1)
  | Card (op, e, k) -> (
      let n = TS.cardinal (expr env inst bindings e) in
      match op with
      | Ilt -> n < k
      | Ile -> n <= k
      | Ieq -> n = k
      | Ineq -> n <> k
      | Ige -> n >= k
      | Igt -> n > k)
  | Not f -> not (fmla env inst bindings f)
  | And (a, b) -> fmla env inst bindings a && fmla env inst bindings b
  | Or (a, b) -> fmla env inst bindings a || fmla env inst bindings b
  | Implies (a, b) -> (not (fmla env inst bindings a)) || fmla env inst bindings b
  | Iff (a, b) -> fmla env inst bindings a = fmla env inst bindings b
  | Quant (q, decls, body) -> quantified env inst bindings q decls body
  | Let (name, value, body) ->
      let v = expr env inst bindings value in
      fmla env inst ((name, v) :: bindings) body
  | Call (name, args) -> (
      match Ast.find_pred env.Typecheck.spec name with
      | None -> err "call to unknown predicate %s" name
      | Some p ->
          let values = List.map (expr env inst bindings) args in
          let params = List.map2 (fun (n, _) v -> (n, v)) p.pred_params values in
          fmla env inst params p.pred_body)

and quantified env inst bindings q decls body =
  (* Expand declarations left to right; later bounds may reference earlier
     variables.  Count satisfying assignments lazily for all/some/no, fully
     for lone/one. *)
  let rec assignments bindings = function
    | [] -> [ bindings ]
    | (name, bound) :: rest ->
        let atoms = expr env inst bindings bound in
        TS.fold
          (fun t acc ->
            let b = (name, TS.singleton t) :: bindings in
            assignments b rest @ acc)
          atoms []
  in
  match q with
  | Qall ->
      List.for_all (fun b -> fmla env inst b body) (assignments bindings decls)
  | Qsome ->
      List.exists (fun b -> fmla env inst b body) (assignments bindings decls)
  | Qno ->
      not (List.exists (fun b -> fmla env inst b body) (assignments bindings decls))
  | Qlone ->
      let n =
        List.length
          (List.filter (fun b -> fmla env inst b body) (assignments bindings decls))
      in
      n <= 1
  | Qone ->
      let n =
        List.length
          (List.filter (fun b -> fmla env inst b body) (assignments bindings decls))
      in
      n = 1

(* {2 Per-instance memo}

   A verdict is the outcome of one evaluation: a truth value or the message
   of the [Eval_error] it raised.  Evaluation is deterministic, so a verdict
   can be replayed whenever everything the evaluation read is unchanged.
   The instance is fixed by the memo; of the environment, [fmla] reads only
   [spec.preds] (calls) and [spec.funs] (relation names no binding, field or
   signature resolves), and the implicit constraints derive from
   [spec.sigs]. *)

type verdict = Holds of bool | Fails of string

let decide f = match f () with v -> Holds v | exception Eval_error msg -> Fails msg
let replay = function Holds v -> v | Fails msg -> raise (Eval_error msg)

(* Can evaluating [e] or [f] call a predicate?  Formulas enter expressions
   only through [Ite] and [Compr]. *)
let rec expr_calls = function
  | Rel _ | Univ | Iden | None_ -> false
  | Unop (_, e) -> expr_calls e
  | Binop (_, a, b) -> expr_calls a || expr_calls b
  | Ite (c, a, b) -> fmla_calls c || expr_calls a || expr_calls b
  | Compr (decls, body) -> decls_call decls || fmla_calls body

and fmla_calls = function
  | True | False -> false
  | Call _ -> true
  | Cmp (_, a, b) -> expr_calls a || expr_calls b
  | Multf (_, e) | Card (_, e, _) -> expr_calls e
  | Not f -> fmla_calls f
  | And (a, b) | Or (a, b) | Implies (a, b) | Iff (a, b) ->
      fmla_calls a || fmla_calls b
  | Quant (_, decls, body) -> decls_call decls || fmla_calls body
  | Let (_, e, body) -> expr_calls e || fmla_calls body

and decls_call decls = List.exists (fun (_, e) -> expr_calls e) decls

(* The implicit constraints read field columns and may fall through to
   functions; only when one of those can call a predicate does their
   verdict depend on [spec.preds]. *)
let implicit_reads_preds (spec : spec) =
  List.exists
    (fun s -> List.exists (fun f -> List.exists expr_calls f.fld_cols) s.sig_fields)
    spec.sigs
  || List.exists
       (fun f -> decls_call f.fun_params || expr_calls f.fun_body)
       spec.funs

type implicit_entry = {
  i_sigs : sig_decl list;
  i_funs : fun_decl list;
  i_preds : pred_decl list option;  (** [Some] when the verdict reads them *)
  i_verdict : verdict;
}

type fact_entry = {
  f_body : fmla;
  f_preds : pred_decl list;
  f_funs : fun_decl list;
  f_verdict : verdict;
}

type memo = {
  inst : Instance.t;
  counted : bool;  (* does its work move the process-wide totals? *)
  mutable implicit : implicit_entry list;  (* newest first *)
  mutable n_implicit : int;
  mutable facts : fact_entry list;  (* newest first *)
  mutable n_facts : int;
}

let implicit_capacity = 8
let fact_capacity = 64

let memo ?(counted = true) inst =
  { inst; counted; implicit = []; n_implicit = 0; facts = []; n_facts = 0 }
let instance m = m.inst

module Counters = Specrepair_json.Counters

let schema = Counters.schema "eval"
let implicit_evaluated = Counters.counter schema "implicit_evaluated"
let implicit_memoized = Counters.counter schema "implicit_memoized"
let facts_evaluated = Counters.counter schema "facts_evaluated"
let facts_memoized = Counters.counter schema "facts_memoized"
let totals = Counters.create schema
let count m key = if m.counted then Counters.incr totals key
let counters () = Counters.copy totals

let same ~structural a b = a == b || (structural && a = b)

(* Declarations are matched physically first: candidates derived by
   mutation share their base's lists.  Candidates re-parsed from text (LLM
   proposals) only match structurally. *)
let find_implicit ~structural (spec : spec) entries =
  List.find_opt
    (fun e ->
      same ~structural e.i_sigs spec.sigs
      && same ~structural e.i_funs spec.funs
      &&
      match e.i_preds with
      | None -> true
      | Some preds -> same ~structural preds spec.preds)
    entries

let implicit_verdict env m =
  let spec = env.Typecheck.spec in
  match
    match find_implicit ~structural:false spec m.implicit with
    | Some _ as hit -> hit
    | None -> find_implicit ~structural:true spec m.implicit
  with
  | Some e ->
      count m implicit_memoized;
      e.i_verdict
  | None ->
      let v =
        decide (fun () ->
            List.for_all (fun f -> fmla env m.inst [] f) (Implicit.constraints env))
      in
      count m implicit_evaluated;
      if m.n_implicit >= implicit_capacity then begin
        m.implicit <- [];
        m.n_implicit <- 0
      end;
      let i_preds = if implicit_reads_preds spec then Some spec.preds else None in
      m.implicit <-
        { i_sigs = spec.sigs; i_funs = spec.funs; i_preds; i_verdict = v }
        :: m.implicit;
      m.n_implicit <- m.n_implicit + 1;
      v

let rec find_fact body preds funs = function
  | [] -> None
  | e :: rest ->
      if e.f_body == body && e.f_preds == preds && e.f_funs == funs then Some e
      else find_fact body preds funs rest

let fact_verdict env m body =
  let spec = env.Typecheck.spec in
  match find_fact body spec.preds spec.funs m.facts with
  | Some e ->
      count m facts_memoized;
      e.f_verdict
  | None ->
      let v = decide (fun () -> fmla env m.inst [] body) in
      count m facts_evaluated;
      if m.n_facts >= fact_capacity then begin
        m.facts <- [];
        m.n_facts <- 0
      end;
      m.facts <-
        { f_body = body; f_preds = spec.preds; f_funs = spec.funs; f_verdict = v }
        :: m.facts;
      m.n_facts <- m.n_facts + 1;
      v

let facts_hold_memo env m =
  replay (implicit_verdict env m)
  && List.for_all
       (fun fact -> replay (fact_verdict env m fact.fact_body))
       env.Typecheck.spec.facts

let facts_hold env inst = facts_hold_memo env (memo inst)

let pred_sat env inst (p : Ast.pred_decl) =
  match p.pred_params with
  | [] -> fmla env inst [] p.pred_body
  | params -> fmla env inst [] (Quant (Qsome, params, p.pred_body))
