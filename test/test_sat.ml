(* Tests for the SAT substrate: solver vs. brute force on random CNFs,
   classic hard instances, Tseitin faithfulness, cardinality encodings. *)

open Specrepair_sat

let lit v sign = if sign then Lit.pos v else Lit.neg v

(* Brute-force satisfiability of [clauses] over [n] variables. *)
let brute_force n clauses =
  let rec try_assignment mask =
    if mask >= 1 lsl n then false
    else
      let value l =
        let v = Lit.var l in
        let b = mask land (1 lsl v) <> 0 in
        if Lit.sign l then b else not b
      in
      if List.for_all (fun c -> List.exists value c) clauses then true
      else try_assignment (mask + 1)
  in
  try_assignment 0

let solve_clauses n clauses =
  let s = Solver.create () in
  ignore (Solver.new_vars s n);
  List.iter (Solver.add_clause s) clauses;
  Solver.solve s

let check_sat msg expected actual =
  let to_str = function
    | Solver.Sat -> "sat"
    | Solver.Unsat -> "unsat"
    | Solver.Unknown -> "unknown"
  in
  Alcotest.(check string) msg (to_str expected) (to_str actual)

(* {2 Unit tests} *)

let test_empty () = check_sat "empty problem" Sat (solve_clauses 0 [])

let test_unit_conflict () =
  check_sat "x & !x" Unsat (solve_clauses 1 [ [ lit 0 true ]; [ lit 0 false ] ])

let test_simple_sat () =
  let r =
    solve_clauses 3
      [
        [ lit 0 true; lit 1 true ];
        [ lit 0 false; lit 2 true ];
        [ lit 1 false; lit 2 false ];
      ]
  in
  check_sat "3-var sat" Sat r

let test_model_valid () =
  let s = Solver.create () in
  ignore (Solver.new_vars s 4);
  let clauses =
    [
      [ lit 0 true; lit 1 true ];
      [ lit 1 false; lit 2 true ];
      [ lit 2 false; lit 3 false ];
      [ lit 0 false; lit 3 true ];
    ]
  in
  List.iter (Solver.add_clause s) clauses;
  (match Solver.solve s with
  | Sat -> ()
  | _ -> Alcotest.fail "expected sat");
  let value l = if Lit.sign l then Solver.value s (Lit.var l) else not (Solver.value s (Lit.var l)) in
  List.iter
    (fun c ->
      Alcotest.(check bool) "clause satisfied by model" true (List.exists value c))
    clauses

(* Pigeonhole principle: n+1 pigeons in n holes is unsatisfiable; shared
   generator adapted to this file's (nvars, clauses) shape. *)
let pigeonhole n =
  let cnf = Hard_cnf.pigeonhole n in
  (cnf.Dimacs.num_vars, cnf.Dimacs.clauses)

let test_pigeonhole () =
  let nvars, clauses = pigeonhole 5 in
  check_sat "php(6,5)" Unsat (solve_clauses nvars clauses)

let test_assumptions () =
  let s = Solver.create () in
  ignore (Solver.new_vars s 2);
  Solver.add_clause s [ lit 0 false; lit 1 true ];
  check_sat "assume x0 -> sat" Sat (Solver.solve ~assumptions:[ lit 0 true ] s);
  Alcotest.(check bool) "x1 forced" true (Solver.value s 1);
  Solver.add_clause s [ lit 1 false ];
  check_sat "assume x0 now unsat" Unsat (Solver.solve ~assumptions:[ lit 0 true ] s);
  check_sat "without assumption still sat" Sat (Solver.solve s);
  Alcotest.(check bool) "x0 must be false" false (Solver.value s 0)

(* A clause holding a literal and its complement is dropped, however its
   literals are ordered; duplicates are removed and the clause kept. *)
let test_tautology_and_duplicates () =
  let s = Solver.create () in
  ignore (Solver.new_vars s 4);
  Solver.add_clause s [ lit 2 true; lit 0 false; lit 3 true; lit 2 false ];
  Solver.add_clause s [ lit 1 true; lit 1 false ];
  Alcotest.(check int) "tautologies dropped" 0 (Solver.n_clauses s);
  Solver.add_clause s [ lit 3 true; lit 1 false; lit 3 true; lit 1 false ];
  Alcotest.(check int) "duplicates kept once" 1 (Solver.n_clauses s);
  (* the kept clause is (x1 -> x3), watched on both of its literals *)
  check_sat "x1 forces x3" Sat (Solver.solve ~assumptions:[ lit 1 true ] s);
  Alcotest.(check bool) "x3 forced" true (Solver.value s 3);
  check_sat "not x3 forces not x1" Sat
    (Solver.solve ~assumptions:[ lit 3 false ] s);
  Alcotest.(check bool) "x1 forced false" false (Solver.value s 1);
  check_sat "both contradict it" Unsat
    (Solver.solve ~assumptions:[ lit 1 true; lit 3 false ] s)

let test_incremental_blocking () =
  (* enumerate all 4 models of an unconstrained 2-var problem *)
  let s = Solver.create () in
  ignore (Solver.new_vars s 2);
  Solver.add_clause s [ lit 0 true; lit 0 false ];
  let count = ref 0 in
  let rec loop () =
    match Solver.solve s with
    | Sat ->
        incr count;
        let blocking =
          List.init 2 (fun v -> lit v (not (Solver.value s v)))
        in
        Solver.add_clause s blocking;
        if !count < 10 then loop ()
    | Unsat -> ()
    | Unknown -> Alcotest.fail "unexpected unknown"
  in
  loop ();
  Alcotest.(check int) "model count" 4 !count

let test_budget () =
  let nvars, clauses = pigeonhole 8 in
  let s = Solver.create () in
  ignore (Solver.new_vars s nvars);
  List.iter (Solver.add_clause s) clauses;
  match Solver.solve ~max_conflicts:10 s with
  | Unknown | Unsat -> ()
  | Sat -> Alcotest.fail "php(9,8) cannot be sat"

(* {2 Incremental solving under assumptions}

   The oracle's pattern: a hard subproblem guarded by an activation
   literal, toggled on and off by assumptions against one long-lived
   solver. *)

let guarded_pigeonhole s n =
  let nvars, clauses = pigeonhole n in
  ignore (Solver.new_vars s nvars);
  let act = Lit.pos (Solver.new_var s) in
  List.iter (fun c -> Solver.add_clause s (Lit.negate act :: c)) clauses;
  act

let test_assumption_flips () =
  let s = Solver.create () in
  let act = guarded_pigeonhole s 3 in
  for i = 1 to 3 do
    check_sat
      (Printf.sprintf "round %d: php enabled" i)
      Unsat
      (Solver.solve ~assumptions:[ act ] s);
    Alcotest.(check bool) "ok survives assumption-unsat" true (Solver.ok s);
    check_sat
      (Printf.sprintf "round %d: php disabled" i)
      Sat
      (Solver.solve ~assumptions:[ Lit.negate act ] s);
    check_sat (Printf.sprintf "round %d: unconstrained" i) Sat (Solver.solve s)
  done

let test_unsat_assumptions_core () =
  let s = Solver.create () in
  ignore (Solver.new_vars s 3);
  Solver.add_clause s [ lit 0 false; lit 1 false ];
  check_sat "conflicting pair" Unsat
    (Solver.solve ~assumptions:[ lit 0 true; lit 1 true; lit 2 true ] s);
  let core = Solver.unsat_assumptions s in
  Alcotest.(check bool) "core nonempty" true (core <> []);
  Alcotest.(check bool)
    "irrelevant assumption not in core" true
    (List.for_all (fun l -> Lit.var l <> 2) core);
  (* an assumption already false at level 0 is itself the core *)
  let s2 = Solver.create () in
  ignore (Solver.new_vars s2 1);
  Solver.add_clause s2 [ lit 0 false ];
  check_sat "assumption contradicts unit" Unsat
    (Solver.solve ~assumptions:[ lit 0 true ] s2);
  (match Solver.unsat_assumptions s2 with
  | [ l ] -> Alcotest.(check int) "core is the assumption" 0 (Lit.var l)
  | core ->
      Alcotest.fail
        (Printf.sprintf "expected a singleton core, got %d literals"
           (List.length core)));
  Alcotest.(check bool) "solver still usable" true (Solver.ok s2);
  check_sat "sat without the assumption" Sat (Solver.solve s2)

let test_learned_clauses_persist () =
  let s = Solver.create () in
  let act = guarded_pigeonhole s 4 in
  let c0 = Solver.n_conflicts s in
  check_sat "first run" Unsat (Solver.solve ~assumptions:[ act ] s);
  let first = Solver.n_conflicts s - c0 in
  Alcotest.(check bool) "first run had to search" true (first > 0);
  Alcotest.(check bool) "learnt clauses retained" true (Solver.n_learnts s > 0);
  let c1 = Solver.n_conflicts s in
  check_sat "second run" Unsat (Solver.solve ~assumptions:[ act ] s);
  let second = Solver.n_conflicts s - c1 in
  Alcotest.(check bool)
    (Printf.sprintf "second run cheaper (%d vs %d conflicts)" second first)
    true (second < first)

let test_per_call_budget () =
  (* regression: the budget bounds each call's conflicts, not the lifetime
     total — after an expensive call, a small budget must still suffice for
     an easy query on the same solver *)
  let s = Solver.create () in
  let act = guarded_pigeonhole s 4 in
  check_sat "expensive call" Unsat (Solver.solve ~assumptions:[ act ] s);
  Alcotest.(check bool) "conflicts accumulated" true (Solver.n_conflicts s > 5);
  check_sat "easy query within a small budget" Sat
    (Solver.solve ~max_conflicts:5 ~assumptions:[ Lit.negate act ] s)

(* {2 Formula / Tseitin} *)

let test_formula_simplify () =
  let open Formula in
  Alcotest.(check bool) "and [] = true" true (is_true (and_ []));
  Alcotest.(check bool) "or [] = false" true (is_false (or_ []));
  Alcotest.(check bool) "and [false] = false" true (is_false (and_ [ fls ]));
  Alcotest.(check bool) "not not x = x" true (not_ (not_ (var 3)) = var 3);
  Alcotest.(check bool) "imp false x = true" true (is_true (imp fls (var 0)));
  Alcotest.(check bool) "ite true a b = a" true (ite tru (var 1) (var 2) = var 1)

let random_formula rand n_vars depth =
  let rec go depth =
    if depth = 0 || QCheck2.Gen.generate1 ~rand QCheck2.Gen.(int_bound 4) = 0 then
      Formula.var (QCheck2.Gen.generate1 ~rand QCheck2.Gen.(int_bound (n_vars - 1)))
    else
      match QCheck2.Gen.generate1 ~rand QCheck2.Gen.(int_bound 4) with
      | 0 -> Formula.not_ (go (depth - 1))
      | 1 -> Formula.and_ [ go (depth - 1); go (depth - 1) ]
      | 2 -> Formula.or_ [ go (depth - 1); go (depth - 1) ]
      | 3 -> Formula.iff (go (depth - 1)) (go (depth - 1))
      | _ -> Formula.ite (go (depth - 1)) (go (depth - 1)) (go (depth - 1))
  in
  go depth

(* Tseitin clauses are equisatisfiable with the asserted formula: for every
   total assignment of the primary variables that satisfies the formula, the
   solver must find a model agreeing on primaries; conversely when the solver
   says unsat, no assignment satisfies the formula. *)
let test_tseitin_equisat () =
  let rand = Random.State.make [| 17 |] in
  for _ = 1 to 120 do
    let n = 4 in
    let f = random_formula rand n 4 in
    let s = Solver.create () in
    ignore (Solver.new_vars s n);
    let ts = Tseitin.create s in
    Tseitin.assert_formula ts f;
    let brute =
      let rec try_mask m =
        if m >= 1 lsl n then false
        else if Formula.eval (fun v -> m land (1 lsl v) <> 0) f then true
        else try_mask (m + 1)
      in
      try_mask 0
    in
    match (Solver.solve s, brute) with
    | Sat, true ->
        (* the model restricted to primaries must satisfy f *)
        Alcotest.(check bool)
          "model satisfies formula" true
          (Formula.eval (fun v -> Solver.value s v) f)
    | Unsat, false -> ()
    | Sat, false -> Alcotest.fail "solver sat but formula unsatisfiable"
    | Unsat, true -> Alcotest.fail "solver unsat but formula satisfiable"
    | Unknown, _ -> Alcotest.fail "unexpected unknown"
  done

(* The structurally sharing clausifier against [Formula.eval], on inputs
   that hold physically distinct copies of one subformula.  [copy seed n]
   rebuilds the same formula from its seed on every call, with a compound
   root.  The third input puts the same children under [And] and under [Or],
   which only the connective in the sharing key keeps apart. *)
let test_tseitin_shared () =
  let copy seed n () =
    let rand = Random.State.make [| seed |] in
    let a = random_formula rand n 3 in
    Formula.iff a (random_formula rand n 3)
  in
  for seed = 1 to 150 do
    let n = 4 + (seed mod 2) in
    let c = copy seed n and d = copy (seed + 1000) n in
    List.iter
      (fun (label, make) ->
        let f = make () in
        let vars_after create =
          let s = Solver.create () in
          ignore (Solver.new_vars s n);
          let ts = create s in
          ignore (Tseitin.lit_of ts f);
          Solver.n_vars s
        in
        let s = Solver.create () in
        ignore (Solver.new_vars s n);
        let ts = Tseitin.create_shared s in
        let l = Tseitin.lit_of ts f in
        for m = 0 to (1 lsl n) - 1 do
          let env v = m land (1 lsl v) <> 0 in
          let assumptions = List.init n (fun v -> Lit.make v (env v)) in
          match Solver.solve ~assumptions s with
          | Sat ->
              let value = Solver.value s (Lit.var l) = Lit.sign l in
              if value <> Formula.eval env f then
                Alcotest.failf "seed %d, %s, mask %d: shared literal is %b"
                  seed label m value
          | Unsat | Unknown ->
              Alcotest.failf "seed %d, %s, mask %d: definitions refuted" seed
                label m
        done;
        (* a later call finds the whole circuit in the structural table *)
        let vars = Solver.n_vars s in
        if Tseitin.lit_of ts (make ()) <> l || Solver.n_vars s <> vars then
          Alcotest.failf "seed %d, %s: a second copy was defined again" seed
            label;
        if vars_after Tseitin.create_shared >= vars_after Tseitin.create then
          Alcotest.failf "seed %d, %s: sharing allocated no fewer variables"
            seed label)
      [
        ("conjoined copies", fun () -> Formula.and_ [ c (); c () ]);
        ("disjoined copies", fun () -> Formula.or_ [ c (); c () ]);
        ( "and/or over equal children",
          fun () ->
            Formula.iff (Formula.and_ [ c (); d () ]) (Formula.or_ [ c (); d () ])
        );
      ]
  done

(* {2 Cardinality} *)

let test_card_semantics () =
  let n = 5 in
  let fs = List.init n Formula.var in
  for k = 0 to n + 1 do
    let al = Card.at_least k fs in
    let am = Card.at_most k fs in
    let ex = Card.exactly k fs in
    for m = 0 to (1 lsl n) - 1 do
      let env v = m land (1 lsl v) <> 0 in
      let pop =
        List.length (List.filter (fun v -> env v) (List.init n Fun.id))
      in
      Alcotest.(check bool)
        (Printf.sprintf "at_least %d, pop %d" k pop)
        (pop >= k) (Formula.eval env al);
      Alcotest.(check bool)
        (Printf.sprintf "at_most %d, pop %d" k pop)
        (pop <= k) (Formula.eval env am);
      Alcotest.(check bool)
        (Printf.sprintf "exactly %d, pop %d" k pop)
        (pop = k) (Formula.eval env ex)
    done
  done

let test_compare_const () =
  let fs = List.init 4 Formula.var in
  let env_of m v = m land (1 lsl v) <> 0 in
  let pop m = List.length (List.filter (env_of m) (List.init 4 Fun.id)) in
  List.iter
    (fun (op, f_op) ->
      for k = 0 to 5 do
        let f = Card.compare_const op fs k in
        for m = 0 to 15 do
          Alcotest.(check bool)
            "compare_const agrees with arithmetic" (f_op (pop m) k)
            (Formula.eval (env_of m) f)
        done
      done)
    [ (`Lt, ( < )); (`Le, ( <= )); (`Eq, ( = )); (`Ne, ( <> )); (`Ge, ( >= )); (`Gt, ( > )) ]

(* {2 Random CNF property} *)

let gen_cnf =
  QCheck2.Gen.(
    let* n = int_range 1 8 in
    let* n_clauses = int_range 1 30 in
    let gen_lit = map2 (fun v s -> (v mod n, s)) (int_bound (n - 1)) bool in
    let gen_clause = list_size (int_range 1 4) gen_lit in
    let* clauses = list_repeat n_clauses gen_clause in
    return (n, clauses))

let prop_matches_brute_force =
  QCheck2.Test.make ~count:300 ~name:"solver agrees with brute force" gen_cnf
    (fun (n, raw) ->
      let clauses = List.map (List.map (fun (v, s) -> lit v s)) raw in
      let expected = brute_force n clauses in
      match solve_clauses n clauses with
      | Sat -> expected
      | Unsat -> not expected
      | Unknown -> false)

let prop_dimacs_roundtrip =
  QCheck2.Test.make ~count:100 ~name:"dimacs print/parse roundtrip" gen_cnf
    (fun (n, raw) ->
      let clauses = List.map (List.map (fun (v, s) -> lit v s)) raw in
      let cnf = { Dimacs.num_vars = n; clauses } in
      let text = Format.asprintf "%a" Dimacs.print cnf in
      let cnf' = Dimacs.parse text in
      cnf'.Dimacs.clauses = cnf.Dimacs.clauses)

(* Malformed input must raise the named [Dimacs.Parse_error], never
   silently misread. *)
let test_dimacs_rejects () =
  let rejects label text =
    match Dimacs.parse text with
    | _ -> Alcotest.failf "%s: accepted %S" label text
    | exception Dimacs.Parse_error _ -> ()
  in
  rejects "missing p-line" "1 -2 0\n";
  rejects "bad header arity" "p cnf 2\n1 0\n";
  rejects "non-numeric header" "p cnf two 1\n1 0\n";
  rejects "negative var count" "p cnf -2 1\n1 0\n";
  rejects "duplicate header" "p cnf 2 1\np cnf 2 1\n1 0\n";
  rejects "bad token" "p cnf 2 1\n1 x 0\n";
  rejects "literal beyond header" "p cnf 2 1\n3 0\n";
  rejects "unterminated clause" "p cnf 2 1\n1 -2\n";
  rejects "clause before header" "1 0\np cnf 2 1\n";
  (* and the happy path still parses *)
  let cnf = Dimacs.parse "c comment\np cnf 3 2\n1 -2 0\n3 0\n" in
  Alcotest.(check int) "num_vars" 3 cnf.Dimacs.num_vars;
  Alcotest.(check int) "clauses" 2 (List.length cnf.Dimacs.clauses)

(* {2 Containers} *)

let test_vec_basics () =
  let v = Vec.create ~dummy:(-1) in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Vec.set v 42 (-42);
  Alcotest.(check int) "set" (-42) (Vec.get v 42);
  Alcotest.(check int) "pop" 99 (Vec.pop v);
  Alcotest.(check int) "last after pop" 98 (Vec.last v);
  Vec.shrink v 10;
  Alcotest.(check int) "shrink" 10 (Vec.length v);
  Alcotest.(check (list int)) "to_list" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (Vec.to_list v);
  Vec.swap_remove v 0;
  Alcotest.(check int) "swap_remove moves last" 9 (Vec.get v 0);
  Alcotest.(check int) "swap_remove shrinks" 9 (Vec.length v);
  Vec.clear v;
  Alcotest.(check bool) "clear" true (Vec.is_empty v)

let test_vec_fold_exists () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "fold sum" 10 (Vec.fold ( + ) 0 v);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 3) v);
  Alcotest.(check bool) "not exists" false (Vec.exists (fun x -> x = 9) v);
  let w = Vec.copy v in
  Vec.set w 0 99;
  Alcotest.(check int) "copy is independent" 1 (Vec.get v 0)

let test_order_heap () =
  let activities = [| 5.; 1.; 9.; 3.; 7. |] in
  let h = Order_heap.create ~activity:(fun v -> activities.(v)) in
  List.iter (Order_heap.insert h) [ 0; 1; 2; 3; 4 ];
  Alcotest.(check int) "size" 5 (Order_heap.size h);
  Alcotest.(check bool) "in_heap" true (Order_heap.in_heap h 3);
  let order = List.init 5 (fun _ -> Order_heap.remove_max h) in
  Alcotest.(check (list int)) "max-activity order" [ 2; 4; 0; 3; 1 ] order;
  Alcotest.(check bool) "empty after drain" true (Order_heap.is_empty h);
  (* increase restores order *)
  List.iter (Order_heap.insert h) [ 0; 1; 2 ];
  activities.(1) <- 100.;
  Order_heap.increase h 1;
  Alcotest.(check int) "bumped var first" 1 (Order_heap.remove_max h)

let prop_heap_sorted =
  QCheck2.Test.make ~count:200 ~name:"order heap drains in activity order"
    QCheck2.Gen.(list_size (int_range 1 30) (float_bound_exclusive 100.))
    (fun acts ->
      let arr = Array.of_list acts in
      let h = Order_heap.create ~activity:(fun v -> arr.(v)) in
      Array.iteri (fun i _ -> Order_heap.insert h i) arr;
      let drained = List.init (Array.length arr) (fun _ -> Order_heap.remove_max h) in
      let values = List.map (fun i -> arr.(i)) drained in
      values = List.sort (fun a b -> compare b a) values)

let () =
  Alcotest.run "sat"
    [
      ( "solver",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "unit conflict" `Quick test_unit_conflict;
          Alcotest.test_case "simple sat" `Quick test_simple_sat;
          Alcotest.test_case "model validity" `Quick test_model_valid;
          Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole;
          Alcotest.test_case "assumptions" `Quick test_assumptions;
          Alcotest.test_case "tautologies and duplicates" `Quick
            test_tautology_and_duplicates;
          Alcotest.test_case "incremental blocking" `Quick test_incremental_blocking;
          Alcotest.test_case "conflict budget" `Quick test_budget;
          Alcotest.test_case "assumption flips" `Quick test_assumption_flips;
          Alcotest.test_case "unsat assumption core" `Quick
            test_unsat_assumptions_core;
          Alcotest.test_case "learned clauses persist" `Quick
            test_learned_clauses_persist;
          Alcotest.test_case "per-call conflict budget" `Quick
            test_per_call_budget;
        ] );
      ( "formula",
        [
          Alcotest.test_case "smart constructors" `Quick test_formula_simplify;
          Alcotest.test_case "tseitin equisatisfiable" `Quick test_tseitin_equisat;
          Alcotest.test_case "tseitin structural sharing" `Quick
            test_tseitin_shared;
        ] );
      ( "cardinality",
        [
          Alcotest.test_case "counter semantics" `Quick test_card_semantics;
          Alcotest.test_case "compare_const" `Quick test_compare_const;
        ] );
      ( "containers",
        [
          Alcotest.test_case "vec basics" `Quick test_vec_basics;
          Alcotest.test_case "vec fold/exists/copy" `Quick test_vec_fold_exists;
          Alcotest.test_case "order heap" `Quick test_order_heap;
          QCheck_alcotest.to_alcotest prop_heap_sorted;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_dimacs_roundtrip;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "rejects malformed input" `Quick
            test_dimacs_rejects;
        ] );
    ]
