(* Tests for the bounded model finder: command outcomes on known specs,
   validity of extracted instances against the reference evaluator, and a
   solver/evaluator agreement property over random formulas. *)

open Specrepair_alloy
module Solver = Specrepair_solver
module Counters = Specrepair_json.Counters
module TS = Instance.Tuple_set

let parse_env src = Typecheck.check (Parser.parse src)

let scope n = { Solver.Bounds.default = n; overrides = [] }

let graph_env =
  lazy
    (parse_env
       {|
sig Node {
  edges: set Node
}
fact NoSelfLoops {
  all n: Node | n not in n.edges
}
pred hasEdge {
  some edges
}
assert Acyclic {
  no n: Node | n in n.^edges
}
run hasEdge for 3
check Acyclic for 3
|})

let test_run_sat () =
  let env = Lazy.force graph_env in
  match Solver.Analyzer.run_pred env (scope 3) "hasEdge" with
  | Sat inst ->
      Alcotest.(check bool) "instance satisfies facts" true
        (Eval.facts_hold env inst);
      Alcotest.(check bool) "instance has an edge" true
        (not (TS.is_empty (Instance.field_tuples inst "edges")))
  | Unsat | Unknown -> Alcotest.fail "expected an instance"

let test_check_counterexample () =
  (* the fact forbids self loops but cycles of length > 1 remain *)
  let env = Lazy.force graph_env in
  match Solver.Analyzer.check_assert env (scope 3) "Acyclic" with
  | Sat cex ->
      Alcotest.(check bool) "cex satisfies facts" true (Eval.facts_hold env cex);
      let assert_body =
        (Option.get (Ast.find_assert env.spec "Acyclic")).assert_body
      in
      Alcotest.(check bool) "cex violates the assertion" false
        (Eval.fmla env cex [] assert_body)
  | Unsat | Unknown -> Alcotest.fail "expected a counterexample"

let test_check_valid () =
  let env =
    parse_env
      {|
sig Node {
  edges: set Node
}
fact Acyclicity {
  no n: Node | n in n.^edges
}
assert NoSelfLoop {
  all n: Node | n not in n.edges
}
check NoSelfLoop for 3
|}
  in
  match Solver.Analyzer.check_assert env (scope 3) "NoSelfLoop" with
  | Unsat -> ()
  | Sat _ -> Alcotest.fail "assertion should hold within scope"
  | Unknown -> Alcotest.fail "unexpected unknown"

let test_one_sig_and_hierarchy () =
  let env =
    parse_env
      {|
abstract sig Person {}
sig Teacher extends Person {}
sig Student extends Person {}
one sig School {
  head: one Teacher
}
run { some Student } for 3
|}
  in
  match Solver.Analyzer.solve_fmla env (scope 3) (Parser.parse_fmla "some Student") with
  | Sat inst ->
      Alcotest.(check bool) "facts hold" true (Eval.facts_hold env inst);
      Alcotest.(check int) "exactly one school" 1
        (List.length (Instance.sig_atoms inst "School"));
      let teachers = Instance.sig_atoms inst "Teacher" in
      let students = Instance.sig_atoms inst "Student" in
      let persons = Instance.sig_atoms inst "Person" in
      Alcotest.(check bool) "some student" true (students <> []);
      Alcotest.(check bool) "head is one teacher" true
        (TS.cardinal (Instance.field_tuples inst "head") = 1);
      Alcotest.(check bool) "teachers and students partition persons" true
        (List.sort compare (teachers @ students) = List.sort compare persons)
  | Unsat | Unknown -> Alcotest.fail "expected an instance"

let test_scope_respected () =
  let env = Lazy.force graph_env in
  match
    Solver.Analyzer.solve_fmla env (scope 2) (Parser.parse_fmla "#Node = 3")
  with
  | Unsat -> ()
  | Sat _ -> Alcotest.fail "3 nodes cannot fit in scope 2"
  | Unknown -> Alcotest.fail "unexpected unknown"

let test_scope_override () =
  let env =
    parse_env
      {|
sig A {}
sig B {}
run { #A = 4 && #B = 1 } for 2 but 4 A
|}
  in
  let cmd = List.hd env.spec.commands in
  (match Solver.Analyzer.run_command env cmd with
  | Sat _ -> ()
  | _ -> Alcotest.fail "override should allow 4 As");
  match
    Solver.Analyzer.solve_fmla env
      { Solver.Bounds.default = 2; overrides = [] }
      (Parser.parse_fmla "#A = 4")
  with
  | Unsat -> ()
  | _ -> Alcotest.fail "without override 4 As must not fit"

let test_ternary_field () =
  let env =
    parse_env
      {|
sig Room {}
sig Guest {}
one sig Desk {
  occupant: Room -> lone Guest
}
run { some Desk.occupant } for 2
|}
  in
  match
    Solver.Analyzer.solve_fmla env (scope 2)
      (Parser.parse_fmla "some Desk.occupant")
  with
  | Sat inst ->
      Alcotest.(check bool) "facts hold (incl. lone mult)" true
        (Eval.facts_hold env inst);
      Alcotest.(check bool) "occupant non-empty" true
        (not (TS.is_empty (Instance.field_tuples inst "occupant")))
  | Unsat | Unknown -> Alcotest.fail "expected an instance"

let test_enumerate () =
  let env =
    parse_env {|
sig A {}
run { some A } for 2
|}
  in
  let instances =
    Solver.Analyzer.enumerate ~limit:100 env (scope 2)
      (Parser.parse_fmla "some A")
  in
  (* with symmetry breaking the pool is used in order: {A$0}, {A$0, A$1} *)
  Alcotest.(check int) "two distinct instances" 2 (List.length instances);
  let distinct =
    List.for_all
      (fun i ->
        List.length (List.filter (fun j -> Instance.equal i j) instances) = 1)
      instances
  in
  Alcotest.(check bool) "all distinct" true distinct

let test_comprehension_translation () =
  let env =
    parse_env
      {|
sig Node {
  edges: set Node
}
run { some edges } for 3
|}
  in
  (* the set of nodes with no outgoing edge, via a comprehension *)
  let f =
    Parser.parse_fmla "some { n: Node | no n.edges } && some edges"
  in
  match Solver.Analyzer.solve_fmla env (scope 3) f with
  | Sat inst ->
      Alcotest.(check bool) "instance satisfies the formula per evaluator"
        true
        (Eval.fmla env inst [] f)
  | Unsat | Unknown -> Alcotest.fail "expected an instance"

let test_fun_translation () =
  let env =
    parse_env
      {|
sig Person {
  parent: lone Person
}
fun ancestors[p: Person]: set Person {
  p.^parent
}
fact NoSelfAncestor {
  all p: Person | p not in ancestors[p]
}
assert Irreflexive {
  no p: Person | p in ancestors[p]
}
check Irreflexive for 3
run { some parent } for 3
|}
  in
  (match Solver.Analyzer.check_assert env (scope 3) "Irreflexive" with
  | Unsat -> ()
  | Sat _ -> Alcotest.fail "assertion should follow from the fact"
  | Unknown -> Alcotest.fail "unexpected unknown");
  match
    Solver.Analyzer.solve_fmla env (scope 3) (Parser.parse_fmla "some parent")
  with
  | Sat inst ->
      Alcotest.(check bool) "facts hold on extracted instance" true
        (Eval.facts_hold env inst)
  | Unsat | Unknown -> Alcotest.fail "expected an instance"

let test_let_translation () =
  let env =
    parse_env
      {|
sig Node {
  edges: set Node
}
fact F {
  all n: Node | let succ = n.edges | n not in succ
}
run { some edges } for 3
|}
  in
  match
    Solver.Analyzer.solve_fmla env (scope 3) (Parser.parse_fmla "some edges")
  with
  | Sat inst ->
      Alcotest.(check bool) "let-constrained facts hold" true
        (Eval.facts_hold env inst);
      Alcotest.(check bool) "no self loops" true
        (Instance.Tuple_set.for_all
           (fun t -> t.(0) <> t.(1))
           (Instance.field_tuples inst "edges"))
  | Unsat | Unknown -> Alcotest.fail "expected an instance"

let test_unknown_budget () =
  let env = Lazy.force graph_env in
  match
    Solver.Analyzer.solve_fmla ~max_conflicts:0 env (scope 4)
      (Parser.parse_fmla "some n: Node | Node in n.^edges && #edges = 4")
  with
  | Unknown | Unsat | Sat _ -> ()
(* any outcome is fine; this only exercises the budget path *)

let test_symmetry_breaking () =
  (* atom pools are consumed in index order: an instance with A$1 but not
     A$0 must never be produced *)
  let env = parse_env "sig A {} run { some A } for 3" in
  let instances =
    Solver.Analyzer.enumerate ~limit:50 env (scope 3) (Parser.parse_fmla "some A")
  in
  Alcotest.(check int) "three sizes" 3 (List.length instances);
  List.iter
    (fun inst ->
      let atoms = Instance.sig_atoms inst "A" in
      let expected = List.init (List.length atoms) (Instance.atom_name "A") in
      Alcotest.(check (list string)) "prefix of the pool" expected
        (List.sort compare atoms))
    instances

let test_contradictory_facts () =
  let env =
    parse_env "sig A {} fact F { some A } fact G { no A } run { no none } for 3"
  in
  match Solver.Analyzer.solve_fmla env (scope 3) Ast.True with
  | Unsat -> ()
  | Sat _ -> Alcotest.fail "contradictory facts must be unsat"
  | Unknown -> Alcotest.fail "unexpected unknown"

let test_one_sig_exactness () =
  let env = parse_env "one sig S {} sig A {} run { some A } for 3" in
  let instances =
    Solver.Analyzer.enumerate ~limit:50 env (scope 3) Ast.True
  in
  Alcotest.(check bool) "instances exist" true (instances <> []);
  List.iter
    (fun inst ->
      Alcotest.(check int) "S always a singleton" 1
        (List.length (Instance.sig_atoms inst "S")))
    instances

(* {2 Agreement property}

   For a fixed two-signature vocabulary, enumerate every instance of the
   facts within scope 2 (exhaustively), then compare: the model finder says
   Sat for a random formula iff some enumerated instance satisfies it per
   the reference evaluator. *)

let vocab_env =
  lazy
    (parse_env
       {|
sig Node {
  edges: set Node,
  tag: set Mark
}
sig Mark {}
fact SmallEdges { #edges <= 2 }
|})

let all_instances =
  lazy
    (let env = Lazy.force vocab_env in
     let instances =
       Solver.Analyzer.enumerate ~limit:100000 env (scope 2) Ast.True
     in
     (* the enumeration must be exhaustive for the property to be sound *)
     assert (List.length instances < 100000);
     instances)

let gen_vocab_fmla =
  let open QCheck2.Gen in
  let unary = oneofl [ Ast.Rel "Node"; Rel "Mark"; Univ; None_ ] in
  let binary = oneofl [ Ast.Rel "edges"; Rel "tag"; Iden ] in
  let rec e1 n =
    if n = 0 then unary
    else
      frequency
        [
          (2, unary);
          ( 2,
            map3
              (fun op a b -> Ast.Binop (op, a, b))
              (oneofl [ Ast.Union; Diff; Inter ])
              (e1 (n - 1)) (e1 (n - 1)) );
          (2, map2 (fun a b -> Ast.Binop (Join, a, b)) (e1 (n - 1)) (e2 (n - 1)));
          (1, map2 (fun s e -> Ast.Binop (Domrestr, s, e)) (e1 (n - 1)) (e1 (n - 1)));
        ]
  and e2 n =
    if n = 0 then binary
    else
      frequency
        [
          (3, binary);
          ( 2,
            map3
              (fun op a b -> Ast.Binop (op, a, b))
              (oneofl [ Ast.Union; Diff; Inter ])
              (e2 (n - 1)) (e2 (n - 1)) );
          (1, map (fun e -> Ast.Unop (Closure, e)) (fun_of_e2 (n - 1)));
          (1, map2 (fun a b -> Ast.Binop (Product, a, b)) (e1 (n - 1)) (e1 (n - 1)));
        ]
  and fun_of_e2 n = map (fun e -> e) (e2_edges n)
  and e2_edges n =
    (* closure only over homogeneous Node->Node expressions *)
    if n = 0 then oneofl [ Ast.Rel "edges"; Iden ]
    else
      frequency
        [
          (3, oneofl [ Ast.Rel "edges"; Iden ]);
          ( 1,
            map3
              (fun op a b -> Ast.Binop (op, a, b))
              (oneofl [ Ast.Union; Inter; Diff ])
              (e2_edges (n - 1)) (e2_edges (n - 1)) );
        ]
  in
  let cmp =
    let* op = oneofl [ Ast.Cin; Ceq ] in
    let* two = bool in
    if two then map2 (fun a b -> Ast.Cmp (op, a, b)) (e2 1) (e2 1)
    else map2 (fun a b -> Ast.Cmp (op, a, b)) (e1 1) (e1 1)
  in
  let multf =
    map2
      (fun m e -> Ast.Multf (m, e))
      (oneofl [ Ast.Fno; Fsome; Flone; Fone ])
      (oneof [ e1 1; e2 1 ])
  in
  let card =
    map3
      (fun op e k -> Ast.Card (op, e, k))
      (oneofl [ Ast.Ile; Ieq; Ige ])
      (oneof [ e1 1; e2 1 ])
      (int_bound 3)
  in
  let rec f n =
    if n = 0 then oneof [ cmp; multf; card ]
    else
      frequency
        [
          (3, oneof [ cmp; multf; card ]);
          (1, map (fun g -> Ast.Not g) (f (n - 1)));
          (2, map2 (fun a b -> Ast.And (a, b)) (f (n - 1)) (f (n - 1)));
          (2, map2 (fun a b -> Ast.Or (a, b)) (f (n - 1)) (f (n - 1)));
          ( 1,
            map3
              (fun q x body -> Ast.Quant (q, [ (x, Ast.Rel "Node") ], body))
              (oneofl [ Ast.Qall; Qsome; Qno; Qone ])
              (oneofl [ "x"; "y" ])
              (f (n - 1)) );
        ]
  in
  f 2

(* Matrix operations on constant matrices must coincide with the
   evaluator's tuple-set operations. *)
let prop_matrix_ops_agree =
  let open QCheck2 in
  let atoms = [| "a"; "b"; "c" |] in
  let gen_pairs =
    Gen.(
      list_size (int_bound 6)
        (map2 (fun i j -> [| atoms.(i mod 3); atoms.(j mod 3) |]) (int_bound 2) (int_bound 2)))
  in
  Test.make ~count:200 ~name:"matrix ops agree with tuple-set ops"
    Gen.(pair gen_pairs gen_pairs)
    (fun (ts1, ts2) ->
      let module M = Specrepair_solver.Matrix in
      let module F = Specrepair_sat.Formula in
      let set1 = TS.of_list ts1 and set2 = TS.of_list ts2 in
      (* matrices hold tuple codes over the atoms' indices *)
      let index a = Option.get (Array.find_index (String.equal a) atoms) in
      let code t = M.encode ~n:3 (Array.map index t) in
      let tuple c = Array.map (fun i -> atoms.(i)) (M.decode ~n:3 2 c) in
      let m1 = M.constant ~n:3 2 (List.map code (TS.elements set1)) in
      let m2 = M.constant ~n:3 2 (List.map code (TS.elements set2)) in
      let to_set m =
        List.fold_left
          (fun acc (c, f) -> if F.is_true f then TS.add (tuple c) acc else acc)
          TS.empty (M.support m)
      in
      let check_op name mop sop =
        let got = to_set (mop m1 m2) in
        let want = sop set1 set2 in
        if TS.equal got want then true
        else QCheck2.Test.fail_reportf "%s disagrees" name
      in
      check_op "union" M.union TS.union
      && check_op "inter" M.inter TS.inter
      && check_op "diff" M.diff TS.diff
      &&
      (* unary: transpose and closure against the evaluator's versions *)
      let trans_got = to_set (M.transpose m1) in
      let trans_want = TS.map (fun t -> [| t.(1); t.(0) |]) set1 in
      TS.equal trans_got trans_want
      &&
      let inst =
        { Instance.sigs = [ ("A", Array.to_list atoms) ]; fields = [ ("r", set1) ] }
      in
      let env =
        Typecheck.check (Parser.parse "sig A { r: set A }")
      in
      let closure_want = Eval.expr env inst [] (Parser.parse_expr "^r") in
      TS.equal (to_set (M.closure m1)) closure_want)

(* {2 The indexed matrix kernel against string tuples}

   [Matrix] keys its cells on tuple codes over the interned universe.  The
   reference below is the kernel it replaced, keyed on string tuples, with
   the same folds in the same order: every operator of the two must visit
   cells in the same order and build structurally equal formulas, which is
   what keeps the clauses a solver sees unchanged. *)

module Tuple_matrix = struct
  module F = Specrepair_sat.Formula
  module Tuple_map = Map.Make (Instance.Tuple)

  type t = { arity : int; cells : F.t Tuple_map.t }

  let add_cell cells tuple f =
    if F.is_false f then cells
    else
      Tuple_map.update tuple
        (function None -> Some f | Some g -> Some (F.or2 g f))
        cells

  let of_cells arity cells =
    {
      arity;
      cells =
        List.fold_left (fun m (t, f) -> add_cell m t f) Tuple_map.empty cells;
    }

  let cell m tuple =
    Option.value ~default:F.fls (Tuple_map.find_opt tuple m.cells)

  let support m = Tuple_map.bindings m.cells

  let merge_with op a b =
    Tuple_map.merge
      (fun _ fa fb ->
        let fa = Option.value ~default:F.fls fa in
        let fb = Option.value ~default:F.fls fb in
        let f = op fa fb in
        if F.is_false f then None else Some f)
      a b

  let union a b = { a with cells = merge_with F.or2 a.cells b.cells }
  let inter a b = { a with cells = merge_with F.and2 a.cells b.cells }

  let diff a b =
    {
      a with
      cells = merge_with (fun fa fb -> F.and2 fa (F.not_ fb)) a.cells b.cells;
    }

  let head (t : Instance.Tuple.t) = t.(0)
  let last (t : Instance.Tuple.t) = t.(Array.length t - 1)

  (* per head atom, the cells (or what [pick] keeps of them) newest first *)
  let by_head pick m =
    let tbl = Hashtbl.create 16 in
    Tuple_map.iter
      (fun t f ->
        let h = head t in
        Hashtbl.replace tbl h
          (pick (t, f) :: Option.value ~default:[] (Hashtbl.find_opt tbl h)))
      m.cells;
    tbl

  let join a b =
    let by_head = by_head Fun.id b in
    let cells =
      Tuple_map.fold
        (fun t1 f1 acc ->
          match Hashtbl.find_opt by_head (last t1) with
          | None -> acc
          | Some matches ->
              List.fold_left
                (fun acc (t2, f2) ->
                  let n1 = Array.length t1 and n2 = Array.length t2 in
                  let r =
                    Array.append (Array.sub t1 0 (n1 - 1)) (Array.sub t2 1 (n2 - 1))
                  in
                  add_cell acc r (F.and2 f1 f2))
                acc matches)
        a.cells Tuple_map.empty
    in
    { arity = a.arity + b.arity - 2; cells }

  let product a b =
    let cells =
      Tuple_map.fold
        (fun t1 f1 acc ->
          Tuple_map.fold
            (fun t2 f2 acc -> add_cell acc (Array.append t1 t2) (F.and2 f1 f2))
            b.cells acc)
        a.cells Tuple_map.empty
    in
    { arity = a.arity + b.arity; cells }

  let transpose a =
    {
      a with
      cells =
        Tuple_map.fold
          (fun t f acc -> add_cell acc [| t.(1); t.(0) |] f)
          a.cells Tuple_map.empty;
    }

  let closure a =
    let atoms = Hashtbl.create 16 in
    Tuple_map.iter
      (fun t _ -> Array.iter (fun x -> Hashtbl.replace atoms x ()) t)
      a.cells;
    let n_atoms = max 1 (Hashtbl.length atoms) in
    let rec go acc len =
      if len >= n_atoms then acc else go (union acc (join acc acc)) (2 * len)
    in
    go a 1

  let override a b =
    let by_head = by_head snd b in
    let kept =
      Tuple_map.fold
        (fun t f acc ->
          let overridden =
            match Hashtbl.find_opt by_head (head t) with
            | None -> F.fls
            | Some fs -> F.or_ fs
          in
          add_cell acc t (F.and2 f (F.not_ overridden)))
        a.cells Tuple_map.empty
    in
    { a with cells = merge_with F.or2 kept b.cells }

  let restrict pick s e =
    {
      e with
      cells =
        Tuple_map.fold
          (fun t f acc -> add_cell acc t (F.and2 f (cell s [| pick t |])))
          e.cells Tuple_map.empty;
    }

  let dom_restrict s e = restrict head s e
  let ran_restrict e s = restrict last s e
  let ite c a b = { a with cells = merge_with (F.ite c) a.cells b.cells }
  let formulas m = List.map snd (Tuple_map.bindings m.cells)

  let subset a b =
    F.and_
      (Tuple_map.fold (fun t f acc -> F.imp f (cell b t) :: acc) a.cells [])
end

let prop_matrix_kernel_agrees =
  let open QCheck2 in
  let module M = Specrepair_solver.Matrix in
  let module F = Specrepair_sat.Formula in
  let module C = Specrepair_sat.Card in
  let module R = Tuple_matrix in
  (* names whose String.compare order is not their numeric order *)
  let atoms = [| "N$0"; "N$1"; "N$10"; "N$2" |] in
  let n = Array.length atoms in
  let gen_cell =
    Gen.(
      oneof
        [
          return F.tru;
          map F.var (int_bound 5);
          map2
            (fun a b -> F.and2 (F.var a) (F.not_ (F.var b)))
            (int_bound 5) (int_bound 5);
        ])
  in
  let gen_matrix arity =
    Gen.(
      list_size (int_bound 8)
        (pair (list_repeat arity (int_bound (n - 1))) gen_cell))
  in
  let names t = Array.map (fun i -> atoms.(i)) t in
  let both arity cells =
    ( M.of_cells ~n arity
        (List.map (fun (t, f) -> (M.encode ~n (Array.of_list t), f)) cells),
      R.of_cells arity
        (List.map (fun (t, f) -> (names (Array.of_list t), f)) cells) )
  in
  Test.make ~count:300 ~name:"indexed matrices equal string-tuple matrices"
    Gen.(
      tup4 (gen_matrix 1) (gen_matrix 2) (gen_matrix 2)
        (pair (gen_matrix 3) gen_cell))
    (fun (s, p, q, (r, c)) ->
      let s, s' = both 1 s and p, p' = both 2 p in
      let q, q' = both 2 q and r, r' = both 3 r in
      let same name (m : M.t) (m' : R.t) =
        let decoded =
          List.map
            (fun (code, f) -> (names (M.decode ~n m.arity code), f))
            (M.support m)
        in
        (m.arity = m'.arity && decoded = R.support m')
        || Test.fail_reportf "%s: cells differ" name
      in
      let same_fmla name f f' =
        f = f' || Test.fail_reportf "%s: formulas differ" name
      in
      same "union" (M.union p q) (R.union p' q')
      && same "inter" (M.inter p q) (R.inter p' q')
      && same "diff" (M.diff p q) (R.diff p' q')
      && same "join p.q" (M.join p q) (R.join p' q')
      && same "join s.p" (M.join s p) (R.join s' p')
      && same "join p.s" (M.join p s) (R.join p' s')
      && same "join r.p" (M.join r p) (R.join r' p')
      && same "join p.r" (M.join p r) (R.join p' r')
      && same "product" (M.product s p) (R.product s' p')
      && same "product r" (M.product p r) (R.product p' r')
      && same "transpose" (M.transpose p) (R.transpose p')
      && same "closure" (M.closure p) (R.closure p')
      && same "override" (M.override p q) (R.override p' q')
      && same "override r" (M.override r r) (R.override r' r')
      && same "dom_restrict" (M.dom_restrict s p) (R.dom_restrict s' p')
      && same "ran_restrict" (M.ran_restrict r s) (R.ran_restrict r' s')
      && same "ite" (M.ite c p q) (R.ite c p' q')
      && same_fmla "some" (M.some p) (F.or_ (R.formulas p'))
      && same_fmla "lone" (M.lone r) (C.at_most 1 (R.formulas r'))
      && same_fmla "one" (M.one s) (C.exactly 1 (R.formulas s'))
      && same_fmla "subset" (M.subset p q) (R.subset p' q')
      && same_fmla "card"
           (M.card_compare `Ge q 2)
           (C.compare_const `Ge (R.formulas q') 2))

(* {2 Oracle equivalence}

   The incremental oracle must be invisible: over the benchmark domains'
   injected faulty variants (the exact candidate population of the study),
   every verdict equals a fresh [Analyzer.run_command], asking again hits
   the cache with the same answer, and instance queries return the
   analyzer's instances verbatim. *)

let outcome_tag = function
  | Solver.Analyzer.Sat _ -> `Sat
  | Solver.Analyzer.Unsat -> `Unsat
  | Solver.Analyzer.Unknown -> `Unknown

let test_oracle_matches_fresh () =
  let domains =
    List.filteri (fun i _ -> i < 4) Specrepair_benchmarks.Domains.all
  in
  List.iter
    (fun d ->
      let base = Specrepair_benchmarks.Domains.env d in
      let oracle = Solver.Oracle.create base in
      let candidates =
        base
        :: List.filter_map
             (fun index ->
               match Specrepair_benchmarks.Fault.inject ~seed:3 d ~index with
               | inj -> (
                   match Typecheck.check_result inj.faulty with
                   | Ok env -> Some env
                   | Error _ -> None)
               | exception Failure _ -> None)
             (List.init 6 Fun.id)
      in
      List.iter
        (fun (env : Typecheck.env) ->
          Alcotest.(check bool)
            (d.name ^ ": variant compatible with its domain oracle")
            true
            (Solver.Oracle.compatible oracle env);
          List.iter
            (fun c ->
              let fresh = outcome_tag (Solver.Analyzer.run_command env c) in
              let incremental = Solver.Oracle.command_verdict oracle env c in
              let label verdict =
                match verdict with
                | `Sat -> "sat"
                | `Unsat -> "unsat"
                | `Unknown -> "unknown"
              in
              Alcotest.(check string)
                (d.name ^ ": incremental verdict = fresh analyzer")
                (label fresh) (label incremental);
              let cached = Solver.Oracle.command_verdict oracle env c in
              Alcotest.(check string)
                (d.name ^ ": cached = uncached")
                (label incremental) (label cached))
            env.spec.commands)
        candidates)
    domains

let test_oracle_instances_verbatim () =
  let d = List.hd Specrepair_benchmarks.Domains.all in
  let env = Specrepair_benchmarks.Domains.env d in
  let oracle = Solver.Oracle.create env in
  List.iter
    (fun (c : Ast.command) ->
      let fresh = Solver.Analyzer.run_command env c in
      let via_oracle = Solver.Oracle.run_command oracle env c in
      let again = Solver.Oracle.run_command oracle env c in
      let same a b =
        match (a, b) with
        | Solver.Analyzer.Sat i, Solver.Analyzer.Sat j -> Instance.equal i j
        | Solver.Analyzer.Unsat, Solver.Analyzer.Unsat -> true
        | Solver.Analyzer.Unknown, Solver.Analyzer.Unknown -> true
        | _ -> false
      in
      Alcotest.(check bool) "oracle instance = analyzer instance" true
        (same fresh via_oracle);
      Alcotest.(check bool) "memoized replay identical" true
        (same via_oracle again))
    env.spec.commands;
  let scope_ = scope 3 in
  let f = Ast.True in
  let fresh = Solver.Analyzer.enumerate ~limit:5 env scope_ f in
  let memo = Solver.Oracle.enumerate ~limit:5 oracle env scope_ f in
  Alcotest.(check bool) "enumeration identical, in order" true
    (List.length fresh = List.length memo
    && List.for_all2 Instance.equal fresh memo);
  let stats = Solver.Oracle.stats oracle in
  Alcotest.(check bool) "instance cache saw hits" true (Counters.find stats "instance_hits" > 0)

(* {2 Sig-incompatible fallback}

   Candidates that declare other signatures or fields than the oracle's
   base cannot share its variable allocation: each first query is a fresh
   analyzer solve, counted in [fallback_queries], and a repeat is served
   from the verdict cache.  Mutation-based engines never produce such
   candidates; an outside caller can. *)

let fallback_candidates =
  let body =
    {|
fact NoSelfLoops {
  all n: Node | n not in n.edges
}
pred hasEdge {
  some edges
}
assert Acyclic {
  no n: Node | n in n.^edges
}
assert NoSelf {
  no n: Node | n in n.edges
}
run hasEdge for 3
check Acyclic for 3
check NoSelf for 3
|}
  in
  lazy
    [
      (* a field added to the base's sig *)
      parse_env ("sig Node {\n  edges: set Node,\n  label: lone Node\n}" ^ body);
      (* a sig added beside it *)
      parse_env ("sig Node {\n  edges: set Node\n}\nsig Extra {}" ^ body);
    ]

let test_oracle_fallback () =
  let base = Lazy.force graph_env in
  let check_oracle ~certify =
    let oracle = Solver.Oracle.create ~certify base in
    let count key = Counters.find (Solver.Oracle.stats oracle) key in
    let delta key f =
      let before = count key in
      let v = f () in
      (v, count key - before)
    in
    let unsat = ref 0 in
    List.iter
      (fun (env : Typecheck.env) ->
        Alcotest.(check bool) "candidate is sig-incompatible" false
          (Solver.Oracle.compatible oracle env);
        List.iter
          (fun c ->
            let fresh = outcome_tag (Solver.Analyzer.run_command env c) in
            if fresh = `Unsat then incr unsat;
            let first, fallbacks =
              delta "fallback_queries" (fun () ->
                  Solver.Oracle.command_verdict oracle env c)
            in
            Alcotest.(check bool) "fallback verdict = analyzer's" true
              (first = fresh);
            Alcotest.(check int) "first query is one fallback" 1 fallbacks;
            let again, hits =
              delta "verdict_hits" (fun () ->
                  Solver.Oracle.command_verdict oracle env c)
            in
            Alcotest.(check bool) "repeat = first" true (again = first);
            Alcotest.(check int) "repeat is one verdict hit" 1 hits)
          env.spec.commands)
      (Lazy.force fallback_candidates);
    Alcotest.(check bool) "some fallback verdict is unsat" true (!unsat > 0);
    let stats = Solver.Oracle.stats oracle in
    Alcotest.(check int) "no incremental query" 0
      (Counters.find stats "verdict_misses");
    Alcotest.(check int) "certified unsat verdicts"
      (if certify then !unsat else 0)
      (Counters.get stats Solver.Oracle.certified);
    Alcotest.(check int) "no certificate failures" 0
      (Counters.get stats Solver.Oracle.certificate_failures)
  in
  check_oracle ~certify:false;
  check_oracle ~certify:true

(* {2 Oracle keys}

   Cache keys are built from a memo of per-declaration digests matched by
   physical identity.  Over each domain's ground truth, its sample-1
   faulty variant, a spread of single mutations of the ground truth (many
   of them deep inside a declaration, where the memo's structural bucket
   hash cannot tell them from the original) and printed-and-re-parsed
   copies (equal bytes, no shared node), one warm oracle's keys must split
   the specs exactly as their printed bytes do and equal the keys a cold
   oracle builds; and the warm oracle must answer every candidate's
   commands with a fresh oracle's verdicts and with exactly the verdict
   cache hits and misses the printed bytes predict. *)

module Bench = Specrepair_benchmarks

let key_pool (v : Bench.Generate.variant) =
  let truth = Bench.Domains.env v.domain in
  let faulty = v.injected.faulty in
  let mutants = Specrepair_mutation.Mutate.all_mutations truth truth.spec () in
  let stride = max 1 (List.length mutants / 24) in
  let mutated =
    List.filteri (fun i _ -> i mod stride = 0 && i / stride < 24) mutants
    |> List.filter_map (fun m ->
           match Specrepair_mutation.Mutate.apply truth.spec m with
           | spec -> Some spec
           | exception _ -> None)
  in
  let reparse spec = Parser.parse (Pretty.spec_to_string spec) in
  (truth.spec :: faulty :: mutated) @ [ reparse truth.spec; reparse faulty ]
  |> List.filter_map (fun spec ->
         match Typecheck.check_result spec with
         | Ok env -> Some env
         | Error _ -> None)

let key_pools =
  lazy
    (List.map
       (fun (v : Bench.Generate.variant) -> (v.domain, key_pool v))
       (Bench.Generate.sample ~per_domain:1 ()))

let test_oracle_keys_match_prints () =
  List.iter
    (fun ((d : Bench.Domains.t), pool) ->
      let truth = Bench.Domains.env d in
      let warm = Solver.Oracle.create truth in
      let keyed =
        List.map
          (fun (env : Typecheck.env) ->
            let key = Solver.Oracle.spec_key warm env.spec in
            Alcotest.(check string)
              (d.name ^ ": warm key = cold key")
              (Solver.Oracle.spec_key (Solver.Oracle.create truth) env.spec)
              key;
            (key, Digest.string (Pretty.spec_to_string env.spec)))
          pool
      in
      List.iteri
        (fun i (ki, pi) ->
          List.iteri
            (fun j (kj, pj) ->
              if i < j && ki = kj <> (pi = pj) then
                Alcotest.failf "%s: specs %d and %d: keys %s, prints %s" d.name
                  i j
                  (if ki = kj then "equal" else "differ")
                  (if pi = pj then "equal" else "differ"))
            keyed)
        keyed)
    (Lazy.force key_pools)

let test_oracle_keys_warm_equals_fresh () =
  let label = function
    | `Sat -> "sat"
    | `Unsat -> "unsat"
    | `Unknown -> "unknown"
  in
  List.iter
    (fun ((d : Bench.Domains.t), pool) ->
      let truth = Bench.Domains.env d in
      let warm = Solver.Oracle.create truth in
      let seen = Hashtbl.create 64 in
      List.iter
        (fun (env : Typecheck.env) ->
          let fresh = Solver.Oracle.create truth in
          let printed = Pretty.spec_to_string env.spec in
          let before = Solver.Oracle.stats warm in
          let want_hits = ref 0 and want_solved = ref 0 in
          List.iter
            (fun (c : Ast.command) ->
              let id =
                ( printed,
                  Pretty.spec_to_string { Ast.empty_spec with commands = [ c ] }
                )
              in
              if Hashtbl.mem seen id then incr want_hits
              else begin
                Hashtbl.add seen id ();
                incr want_solved
              end;
              let v = Solver.Oracle.command_verdict fresh env c in
              Alcotest.(check string)
                (d.name ^ ": warm verdict = fresh oracle's")
                (label v)
                (label (Solver.Oracle.command_verdict warm env c));
              (* the repeat, as [oracle_passes] makes it, is a hit *)
              incr want_hits;
              Alcotest.(check string)
                (d.name ^ ": repeat verdict")
                (label v)
                (label (Solver.Oracle.command_verdict warm env c)))
            env.spec.commands;
          let after = Solver.Oracle.stats warm in
          Alcotest.(check (pair int int))
            (d.name ^ ": verdict hits, solves as the prints predict")
            (!want_hits, !want_solved)
            (let delta key = Counters.(find after key - find before key) in
             ( delta "verdict_hits",
               delta "verdict_misses" + delta "fallback_queries" )))
        pool;
      let s = Solver.Oracle.stats warm in
      if Counters.find s "keys_reused" = 0 then
        Alcotest.failf "%s: the warm oracle reused no key digest" d.name)
    (Lazy.force key_pools)

(* {2 What the oracle already found}

   A verdict query can be answered by a stored witness ([Sat]) or a stored
   assumption core ([Unsat]) without a solve.  Over every corpus domain, a
   stream of mutants of the ground truth must get the same verdicts from
   an oracle using both stores as from one created under
   SPECREPAIR_NO_CACHE=1, which stores nothing and solves every query, and
   from a certifying oracle, which never answers from a core. *)

let with_no_cache value f =
  let old = Option.value ~default:"" (Sys.getenv_opt "SPECREPAIR_NO_CACHE") in
  Unix.putenv "SPECREPAIR_NO_CACHE" value;
  Fun.protect ~finally:(fun () -> Unix.putenv "SPECREPAIR_NO_CACHE" old) f

let mutant_stream (truth : Typecheck.env) n =
  let mutants = Specrepair_mutation.Mutate.all_mutations truth truth.spec () in
  let stride = max 1 (List.length mutants / n) in
  truth
  :: (List.filteri (fun i _ -> i mod stride = 0) mutants
     |> List.filter_map (fun m ->
            match
              Typecheck.check_result
                (Specrepair_mutation.Mutate.apply truth.spec m)
            with
            | Ok env -> Some env
            | Error _ | (exception _) -> None))

let test_oracle_stores_match_bypass () =
  let label = function
    | `Sat -> "sat"
    | `Unsat -> "unsat"
    | `Unknown -> "unknown"
  in
  let count o key = Counters.find (Solver.Oracle.stats o) key in
  let answered =
    List.map
      (fun (d : Bench.Domains.t) ->
        let truth = Bench.Domains.env d in
        let stored = with_no_cache "" (fun () -> Solver.Oracle.create truth) in
        let bypass = with_no_cache "1" (fun () -> Solver.Oracle.create truth) in
        let certified =
          with_no_cache "" (fun () -> Solver.Oracle.create ~certify:true truth)
        in
        List.iter
          (fun (env : Typecheck.env) ->
            List.iter
              (fun c ->
                let want = label (Solver.Oracle.command_verdict bypass env c) in
                Alcotest.(check string)
                  (d.name ^ ": stored answers = solves")
                  want
                  (label (Solver.Oracle.command_verdict stored env c));
                Alcotest.(check string)
                  (d.name ^ ": certifying oracle = solves")
                  want
                  (label (Solver.Oracle.command_verdict certified env c)))
              env.spec.commands)
          (mutant_stream truth 40);
        Alcotest.(check (list int))
          (d.name ^ ": the bypass stores and answers nothing")
          [ 0; 0; 0; 0 ]
          (List.map (count bypass)
             [ "witnesses_stored"; "witness_hits"; "cores_stored"; "core_hits" ]);
        Alcotest.(check int)
          (d.name ^ ": a certifying oracle answers from no core")
          0
          (count certified "core_hits");
        Alcotest.(check int)
          (d.name ^ ": no certificate failures")
          0
          (count certified "certificate_failures");
        (count stored "witness_hits", count stored "core_hits"))
      Bench.Domains.all
  in
  Alcotest.(check bool)
    "stored witnesses answered queries" true
    (List.exists (fun (w, _) -> w > 0) answered);
  Alcotest.(check bool)
    "stored cores answered queries" true
    (List.exists (fun (_, c) -> c > 0) answered)

let prop_solver_agrees_with_eval =
  QCheck2.Test.make ~count:150 ~name:"model finder agrees with evaluator"
    ~print:Pretty.fmla_to_string gen_vocab_fmla
    (fun f ->
      let env = Lazy.force vocab_env in
      let instances = Lazy.force all_instances in
      let eval_sat =
        List.exists (fun inst -> Eval.fmla env inst [] f) instances
      in
      match Solver.Analyzer.solve_fmla env (scope 2) f with
      | Sat inst -> eval_sat && Eval.fmla env inst [] f && Eval.facts_hold env inst
      | Unsat -> not eval_sat
      | Unknown -> false)

(* {2 Model streams}

   Instance queries read one model stream per (spec, scope, goal).  Over
   every corpus domain's commands, an oracle's [run_command] and
   [enumerate] (limits 1, 3 and 4, asked in both orders, with no budget,
   a one-conflict budget and budgets one conflict either side of what the
   first solve took) must equal fresh [Analyzer] queries, on a fresh
   oracle per budget and on one oracle asked under every budget in turn. *)

let same_outcome a b =
  match (a, b) with
  | Solver.Analyzer.Sat i, Solver.Analyzer.Sat j -> Instance.equal i j
  | Solver.Analyzer.Unsat, Solver.Analyzer.Unsat
  | Solver.Analyzer.Unknown, Solver.Analyzer.Unknown ->
      true
  | _ -> false

let same_models a b =
  List.length a = List.length b && List.for_all2 Instance.equal a b

let test_streams_match_fresh () =
  let reused = ref 0 in
  List.iter
    (fun (d : Bench.Domains.t) ->
      let env = Bench.Domains.env d in
      let oracle () = with_no_cache "" (fun () -> Solver.Oracle.create env) in
      List.iter
        (fun (c : Ast.command) ->
          let goal =
            match c.cmd_kind with
            | Ast.Check name ->
                Option.map
                  (fun (a : Ast.assert_decl) -> Ast.Not a.assert_body)
                  (Ast.find_assert env.spec name)
            | Ast.Run_fmla f -> Some f
            | Ast.Run_pred _ -> None
          in
          match goal with
          | None -> ()
          | Some goal ->
              let scope = Solver.Bounds.scope_of_command c in
              let first = ref 0 in
              ignore
                (Solver.Analyzer.run_command
                   ~spent:(fun s -> first := Specrepair_sat.Solver.n_conflicts s)
                   env c);
              (* one conflict first, so the later budgets of the shared
                 oracle meet a stream that gave up *)
              let budgets =
                [ Some 1; None; Some (!first - 1); Some !first; Some (!first + 1) ]
              in
              let queries = [ `Run; `Enum 1; `Enum 3; `Enum 4 ] in
              let fresh =
                List.map
                  (fun max_conflicts ->
                    ( max_conflicts,
                      ( Solver.Analyzer.run_command ?max_conflicts env c,
                        List.map
                          (fun limit ->
                            ( limit,
                              Solver.Analyzer.enumerate ~limit ?max_conflicts
                                env scope goal ))
                          [ 1; 3; 4 ] ) ))
                  budgets
              in
              let ask oracle max_conflicts query =
                let outcome, enums = List.assoc max_conflicts fresh in
                let label =
                  Printf.sprintf "%s, %s, budget %s" d.name
                    (match query with
                    | `Run -> "run_command"
                    | `Enum k -> Printf.sprintf "enumerate %d" k)
                    (match max_conflicts with
                    | None -> "none"
                    | Some b -> string_of_int b)
                in
                Alcotest.(check bool) label true
                  (match query with
                  | `Run ->
                      same_outcome outcome
                        (Solver.Oracle.run_command ?max_conflicts oracle env c)
                  | `Enum limit ->
                      same_models (List.assoc limit enums)
                        (Solver.Oracle.enumerate ~limit ?max_conflicts oracle
                           env scope goal))
              in
              List.iter
                (fun order ->
                  let shared = oracle () in
                  List.iter
                    (fun max_conflicts ->
                      let own = oracle () in
                      List.iter (ask own max_conflicts) order;
                      List.iter (ask shared max_conflicts) order;
                      reused :=
                        !reused
                        + Counters.find (Solver.Oracle.stats own)
                            "stream_models_reused")
                    budgets)
                [ queries; List.rev queries ])
        env.spec.commands)
    Bench.Domains.all;
  Alcotest.(check bool) "streams served models already found" true (!reused > 0)

(* A stream's load must hand the solver the clauses a fresh load does,
   translations read from the oracle's table included: its first solve
   then takes exactly the fresh solve's conflicts, decisions and
   propagations.  The spec repeats a fact, whose second occurrence a load
   must translate afresh: one physical formula for both would let the
   unshared clausifier define it once.  Verdict queries first fill the
   translation table. *)
let test_stream_load_is_fresh_load () =
  let env =
    parse_env
      {|
sig Node {
  edges: set Node
}
fact Loopless {
  all n: Node | n not in n.^edges
}
fact Loopless2 {
  all n: Node | n not in n.^edges
}
assert Sink {
  some n: Node | no n.edges
}
assert Linear {
  all n: Node | lone n.edges
}
check Sink for 3
check Linear for 3
|}
  in
  let oracle = with_no_cache "" (fun () -> Solver.Oracle.create env) in
  List.iter
    (fun (c : Ast.command) -> ignore (Solver.Oracle.command_verdict oracle env c))
    env.spec.commands;
  List.iter
    (fun (c : Ast.command) ->
      let fresh = ref [] in
      let want =
        Solver.Analyzer.run_command
          ~spent:(fun s ->
            fresh :=
              Specrepair_sat.Solver.
                [ n_conflicts s; n_decisions s; n_propagations s ])
          env c
      in
      let before = Solver.Oracle.fresh_sat_stats oracle in
      let got = Solver.Oracle.run_command oracle env c in
      let spent = Counters.since ~base:before (Solver.Oracle.fresh_sat_stats oracle) in
      Alcotest.(check bool) "same outcome" true (same_outcome want got);
      Alcotest.(check (list int)) "same search as a fresh load" !fresh
        (List.map (Counters.find spent) [ "conflicts"; "decisions"; "propagations" ]))
    env.spec.commands;
  Alcotest.(check bool) "translations were read back" true
    (Counters.find (Solver.Oracle.stats oracle) "translations_reused" > 0)

let () =
  Alcotest.run "solver"
    [
      ( "analyzer",
        [
          Alcotest.test_case "run finds instance" `Quick test_run_sat;
          Alcotest.test_case "check finds counterexample" `Quick
            test_check_counterexample;
          Alcotest.test_case "check valid assertion" `Quick test_check_valid;
          Alcotest.test_case "one sig + hierarchy" `Quick
            test_one_sig_and_hierarchy;
          Alcotest.test_case "scope respected" `Quick test_scope_respected;
          Alcotest.test_case "scope override" `Quick test_scope_override;
          Alcotest.test_case "ternary field" `Quick test_ternary_field;
          Alcotest.test_case "enumeration" `Quick test_enumerate;
          Alcotest.test_case "comprehension" `Quick test_comprehension_translation;
          Alcotest.test_case "fun translation" `Quick test_fun_translation;
          Alcotest.test_case "let translation" `Quick test_let_translation;
          Alcotest.test_case "symmetry breaking" `Quick test_symmetry_breaking;
          Alcotest.test_case "contradictory facts" `Quick test_contradictory_facts;
          Alcotest.test_case "one sig exactness" `Quick test_one_sig_exactness;
          Alcotest.test_case "budget path" `Quick test_unknown_budget;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "verdicts match fresh analyzer" `Quick
            test_oracle_matches_fresh;
          Alcotest.test_case "instances served verbatim" `Quick
            test_oracle_instances_verbatim;
          Alcotest.test_case "sig-incompatible fallback" `Quick
            test_oracle_fallback;
        ] );
      ( "oracle keys",
        [
          Alcotest.test_case "keys split specs as prints do" `Quick
            test_oracle_keys_match_prints;
          Alcotest.test_case "warm oracle answers as fresh ones" `Quick
            test_oracle_keys_warm_equals_fresh;
        ] );
      ( "oracle stores",
        [
          Alcotest.test_case "stored answers equal solves" `Quick
            test_oracle_stores_match_bypass;
        ] );
      ( "oracle streams",
        [
          Alcotest.test_case "streamed instances equal fresh ones" `Quick
            test_streams_match_fresh;
          Alcotest.test_case "a stream loads what a fresh solve loads" `Quick
            test_stream_load_is_fresh_load;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_matrix_ops_agree;
          QCheck_alcotest.to_alcotest prop_matrix_kernel_agrees;
          QCheck_alcotest.to_alcotest prop_solver_agrees_with_eval;
        ] );
    ]
