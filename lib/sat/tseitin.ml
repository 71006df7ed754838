(* A structural key: the connective's tag and the literals of its children,
   in order.  Hashing reads every literal, so lookups cost O(arity) with no
   deep compare of formulas. *)
module Key = struct
  type t = { tag : int; lits : Lit.t array }

  let equal a b =
    a.tag = b.tag
    &&
    let n = Array.length a.lits in
    n = Array.length b.lits
    &&
    let rec same i = i = n || (Lit.equal a.lits.(i) b.lits.(i) && same (i + 1)) in
    same 0

  let hash k =
    Array.fold_left
      (fun h l -> ((h * 65599) + Lit.to_int l) land max_int)
      k.tag k.lits
end

module Key_tbl = Hashtbl.Make (Key)

type t = {
  solver : Solver.t;
  defs : Lit.t Formula.Phys_tbl.t;
  shared : Lit.t Key_tbl.t option;
  mutable definitions : int;
  mutable definitions_shared : int;
}

let make solver shared =
  {
    solver;
    defs = Formula.Phys_tbl.create 256;
    shared;
    definitions = 0;
    definitions_shared = 0;
  }

let create solver = make solver None
let create_shared solver = make solver (Some (Key_tbl.create 1024))
let definitions t = t.definitions
let definitions_shared t = t.definitions_shared

let tag (f : Formula.t) =
  match f with
  | And _ -> 0
  | Or _ -> 1
  | Iff _ -> 2
  | Ite _ -> 3
  | True | False | Var _ | Not _ -> assert false

let rec node_lit t (f : Formula.t) =
  match f with
  | True | False -> invalid_arg "Tseitin.lit_of: constant"
  | Var v -> Lit.pos v
  | Not g -> Lit.negate (node_lit t g)
  | And _ | Or _ | Iff _ | Ite _ -> (
      match Formula.Phys_tbl.find_opt t.defs f with
      | Some l -> l
      | None ->
          let l = define t f in
          Formula.Phys_tbl.add t.defs f l;
          l)

(* A literal [x] with clauses encoding x <=> f.  Unshared, [x] is allocated
   before the children (pre-order); shared, the children come first, and
   their literals with the connective form the lookup key. *)
and define t (f : Formula.t) =
  t.definitions <- t.definitions + 1;
  match t.shared with
  | None ->
      let x = Lit.pos (Solver.new_var t.solver) in
      emit t x f (children t f);
      x
  | Some tbl -> (
      let key = { Key.tag = tag f; lits = children t f } in
      match Key_tbl.find_opt tbl key with
      | Some x ->
          t.definitions_shared <- t.definitions_shared + 1;
          x
      | None ->
          let x = Lit.pos (Solver.new_var t.solver) in
          emit t x f key.lits;
          Key_tbl.add tbl key x;
          x)

(* the children's literals, left to right *)
and children t (f : Formula.t) =
  match f with
  | And fs | Or fs -> Array.map (node_lit t) fs
  | Iff (a, b) ->
      let la = node_lit t a in
      let lb = node_lit t b in
      [| la; lb |]
  | Ite (c, th, el) ->
      let lc = node_lit t c in
      let lt = node_lit t th in
      let le = node_lit t el in
      [| lc; lt; le |]
  | True | False | Var _ | Not _ -> assert false

and emit t x (f : Formula.t) ls =
  let nx = Lit.negate x in
  match f with
  | True | False | Var _ | Not _ -> assert false
  | And _ ->
      Array.iter (fun l -> Solver.add_clause t.solver [ nx; l ]) ls;
      Solver.add_clause t.solver
        (x :: Array.to_list (Array.map Lit.negate ls))
  | Or _ ->
      Array.iter (fun l -> Solver.add_clause t.solver [ x; Lit.negate l ]) ls;
      Solver.add_clause t.solver (nx :: Array.to_list ls)
  | Iff _ ->
      let la = ls.(0) and lb = ls.(1) in
      let nla = Lit.negate la and nlb = Lit.negate lb in
      Solver.add_clause t.solver [ nx; nla; lb ];
      Solver.add_clause t.solver [ nx; la; nlb ];
      Solver.add_clause t.solver [ x; la; lb ];
      Solver.add_clause t.solver [ x; nla; nlb ]
  | Ite _ ->
      let lc = ls.(0) and lt = ls.(1) and le = ls.(2) in
      let nlc = Lit.negate lc and nlt = Lit.negate lt and nle = Lit.negate le in
      Solver.add_clause t.solver [ nx; nlc; lt ];
      Solver.add_clause t.solver [ nx; lc; le ];
      Solver.add_clause t.solver [ x; nlc; nlt ];
      Solver.add_clause t.solver [ x; lc; nle ]

let rec assert_node t (f : Formula.t) =
  match f with
  | True -> ()
  | False -> Solver.add_clause t.solver []
  | And fs -> Array.iter (assert_node t) fs
  | Or fs ->
      (* a top-level clause: clausify disjuncts to literals *)
      let ls = Array.to_list (Array.map (node_lit t) fs) in
      Solver.add_clause t.solver ls
  | Var _ | Not _ | Iff _ | Ite _ -> Solver.add_clause t.solver [ node_lit t f ]

(* A shared clausifier's structural table already answers for every node it
   defined, so its physical memo only needs to last one top-level call. *)
let end_call t =
  match t.shared with
  | Some _ -> Formula.Phys_tbl.reset t.defs
  | None -> ()

let lit_of t f =
  let l = node_lit t f in
  end_call t;
  l

let assert_formula t f =
  assert_node t f;
  end_call t
