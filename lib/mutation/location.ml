module Ast = Specrepair_alloy.Ast
open Ast

type site = Fact_site of int | Pred_site of string | Assert_site of string
type path = int list
type node = F of Ast.fmla | E of Ast.expr

let site_to_string = function
  | Fact_site i -> Printf.sprintf "fact#%d" i
  | Pred_site n -> Printf.sprintf "pred %s" n
  | Assert_site n -> Printf.sprintf "assert %s" n

let path_to_string p = String.concat "." (List.map string_of_int p)

let sites spec =
  List.mapi (fun i _ -> Fact_site i) spec.facts
  @ List.map (fun p -> Pred_site p.pred_name) spec.preds
  @ List.map (fun a -> Assert_site a.assert_name) spec.asserts

let body spec = function
  | Fact_site i -> (List.nth spec.facts i).fact_body
  | Pred_site n -> (
      match find_pred spec n with Some p -> p.pred_body | None -> raise Not_found)
  | Assert_site n -> (
      match find_assert spec n with
      | Some a -> a.assert_body
      | None -> raise Not_found)

let with_body spec site new_body =
  match site with
  | Fact_site i ->
      {
        spec with
        facts =
          List.mapi
            (fun j f -> if i = j then { f with fact_body = new_body } else f)
            spec.facts;
      }
  | Pred_site n ->
      {
        spec with
        preds =
          List.map
            (fun p ->
              if p.pred_name = n then { p with pred_body = new_body } else p)
            spec.preds;
      }
  | Assert_site n ->
      {
        spec with
        asserts =
          List.map
            (fun a ->
              if a.assert_name = n then { a with assert_body = new_body } else a)
            spec.asserts;
      }

let children = function
  | F f -> (
      match f with
      | True | False -> []
      | Cmp (_, a, b) -> [ E a; E b ]
      | Multf (_, e) -> [ E e ]
      | Card (_, e, _) -> [ E e ]
      | Not g -> [ F g ]
      | And (a, b) | Or (a, b) | Implies (a, b) | Iff (a, b) -> [ F a; F b ]
      | Quant (_, decls, fbody) -> List.map (fun (_, e) -> E e) decls @ [ F fbody ]
      | Call (_, args) -> List.map (fun e -> E e) args
      | Let (_, value, fbody) -> [ E value; F fbody ])
  | E e -> (
      match e with
      | Rel _ | Univ | Iden | None_ -> []
      | Unop (_, inner) -> [ E inner ]
      | Binop (_, a, b) -> [ E a; E b ]
      | Ite (c, a, b) -> [ F c; E a; E b ]
      | Compr (decls, body) ->
          List.map (fun (_, e) -> E e) decls @ [ F body ])

let subnodes root =
  let rec walk path node acc =
    let acc = (List.rev path, node) :: acc in
    List.fold_left
      (fun (i, acc) child -> (i + 1, walk (i :: path) child acc))
      (0, acc) (children node)
    |> snd
  in
  List.rev (walk [] (F root) [])

let get root path =
  let rec go node = function
    | [] -> node
    | i :: rest -> (
        match List.nth_opt (children node) i with
        | Some child -> go child rest
        | None -> raise Not_found)
  in
  go (F root) path

let with_child node i child =
  let f () = match child with F f -> f | E _ -> invalid_arg "Location.replace: expected a formula" in
  let e () = match child with E e -> e | F _ -> invalid_arg "Location.replace: expected an expression" in
  match node with
  | F fm -> (
      F
        (match (fm, i) with
        | Cmp (op, _, b), 0 -> Cmp (op, e (), b)
        | Cmp (op, a, _), 1 -> Cmp (op, a, e ())
        | Multf (m, _), 0 -> Multf (m, e ())
        | Card (op, _, k), 0 -> Card (op, e (), k)
        | Not _, 0 -> Not (f ())
        | And (_, b), 0 -> And (f (), b)
        | And (a, _), 1 -> And (a, f ())
        | Or (_, b), 0 -> Or (f (), b)
        | Or (a, _), 1 -> Or (a, f ())
        | Implies (_, b), 0 -> Implies (f (), b)
        | Implies (a, _), 1 -> Implies (a, f ())
        | Iff (_, b), 0 -> Iff (f (), b)
        | Iff (a, _), 1 -> Iff (a, f ())
        | Quant (q, decls, fbody), _ ->
            let n = List.length decls in
            if i < n then
              Quant
                ( q,
                  List.mapi
                    (fun j (name, bound) ->
                      if j = i then (name, e ()) else (name, bound))
                    decls,
                  fbody )
            else if i = n then Quant (q, decls, f ())
            else raise Not_found
        | Call (name, args), _ ->
            if i < List.length args then
              Call
                (name, List.mapi (fun j a -> if j = i then e () else a) args)
            else raise Not_found
        | Let (name, _, fbody), 0 -> Let (name, e (), fbody)
        | Let (name, value, _), 1 -> Let (name, value, f ())
        | Let _, _ -> raise Not_found
        | (True | False), _ -> raise Not_found
        | (Cmp _ | Multf _ | Card _ | Not _ | And _ | Or _ | Implies _ | Iff _), _
          ->
            raise Not_found))
  | E ex -> (
      E
        (match (ex, i) with
        | Unop (op, _), 0 -> Unop (op, e ())
        | Binop (op, _, b), 0 -> Binop (op, e (), b)
        | Binop (op, a, _), 1 -> Binop (op, a, e ())
        | Ite (_, a, b), 0 -> Ite (f (), a, b)
        | Ite (c, _, b), 1 -> Ite (c, e (), b)
        | Ite (c, a, _), 2 -> Ite (c, a, e ())
        | Compr (decls, body), _ ->
            let n = List.length decls in
            if i < n then
              Compr
                ( List.mapi
                    (fun j (name, bound) ->
                      if j = i then (name, e ()) else (name, bound))
                    decls,
                  body )
            else if i = n then Compr (decls, f ())
            else raise Not_found
        | (Rel _ | Univ | Iden | None_), _ -> raise Not_found
        | (Unop _ | Binop _ | Ite _), _ -> raise Not_found))

let replace root path replacement =
  let rec go node = function
    | [] -> replacement
    | i :: rest ->
        let kids = children node in
        let child =
          match List.nth_opt kids i with
          | Some c -> c
          | None -> raise Not_found
        in
        with_child node i (go child rest)
  in
  match go (F root) path with
  | F f -> f
  | E _ -> invalid_arg "Location.replace: root must be a formula"

let vars_at (env : Specrepair_alloy.Typecheck.env) spec site path =
  let arity_of vars e =
    match Specrepair_alloy.Typecheck.expr_arity env vars e with
    | a -> a
    | exception Specrepair_alloy.Typecheck.Type_error _ -> 1
  in
  let initial =
    match site with
    | Pred_site n -> (
        match find_pred spec n with
        | Some p -> List.map (fun (name, _) -> (name, 1)) p.pred_params
        | None -> raise Not_found)
    | Fact_site _ | Assert_site _ -> []
  in
  let rec go vars node = function
    | [] -> vars
    | i :: rest ->
        let vars =
          match node with
          | E (Compr (decls, _)) ->
              let n = List.length decls in
              if i = n then
                List.map (fun (name, _) -> (name, 1)) decls @ vars
              else
                List.filteri (fun j _ -> j < i) decls
                |> List.map (fun (name, _) -> (name, 1))
                |> fun earlier -> earlier @ vars
          | F (Let (name, value, _)) ->
              if i = 1 then (name, arity_of vars value) :: vars else vars
          | F (Quant (_, decls, _)) ->
              let n = List.length decls in
              if i = n then
                (* descending into the body: all declared vars in scope *)
                List.map (fun (name, _) -> (name, 1)) decls @ vars
              else
                (* descending into bound i: earlier declarations in scope *)
                List.filteri (fun j _ -> j < i) decls
                |> List.map (fun (name, _) -> (name, 1))
                |> fun earlier -> earlier @ vars
          | _ -> vars
        in
        let child =
          match List.nth_opt (children node) i with
          | Some c -> c
          | None -> raise Not_found
        in
        go vars child rest
  in
  go initial (F (body spec site)) path

let node_size = function
  | F f -> Ast.fmla_size f
  | E e -> Ast.expr_size e
