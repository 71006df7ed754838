(* Tests for the Mini-Alloy language layer: lexer, parser, pretty printer
   round-trips, type checker, and the ground-instance evaluator. *)

open Specrepair_alloy

let graph_src =
  {|
module graph

sig Node {
  edges: set Node
}

fact NoSelfLoops {
  all n: Node | n not in n.edges
}

pred connected {
  all a: Node, b: Node | a != b => b in a.^edges
}

assert Acyclic {
  no n: Node | n in n.^edges
}

run connected for 3
check Acyclic for 3
|}

let classroom_src =
  {|
abstract sig Person {}
sig Teacher extends Person {}
sig Student extends Person {
  teacher: lone Teacher
}
one sig School {
  enrolled: set Student
}

fact AllEnrolled {
  all s: Student | s in School.enrolled
}

assert TeachersTeach {
  no t: Teacher | t in Student.teacher && t not in Teacher
}

check TeachersTeach for 3
|}

let parse_ok src =
  match Parser.parse src with
  | spec -> spec
  | exception Diagnostic.Error d ->
      Alcotest.fail ("parse error: " ^ Diagnostic.render d)

(* {2 Lexer} *)

let test_lexer_basic () =
  let tokens = Lexer.tokenize "sig A { f: set B } // comment\n check X for 3" in
  let kinds = Array.to_list (Array.map fst tokens) in
  Alcotest.(check bool)
    "token stream" true
    (kinds
    = [
        Token.Tsig;
        Tident "A";
        Tlbrace;
        Tident "f";
        Tcolon;
        Tset;
        Tident "B";
        Trbrace;
        Tcheck;
        Tident "X";
        Tfor;
        Tint 3;
        Teof;
      ])

let test_lexer_operators () =
  let tokens = Lexer.tokenize "++ -> <: :> != <= >= && || => <=> ^ ~ * #" in
  let kinds = Array.to_list (Array.map fst tokens) in
  Alcotest.(check bool)
    "operators" true
    (kinds
    = [
        Token.Tplusplus;
        Tarrow;
        Tdomres;
        Tranres;
        Tneq;
        Tle;
        Tge;
        Tampamp;
        Tbarbar;
        Tfatarrow;
        Tiffarrow;
        Tcaret;
        Ttilde;
        Tstar;
        Thash;
        Teof;
      ])

let test_lexer_positions () =
  (* spans are 1-based [file:line:col]; end_col is one past the last char *)
  let tokens = Lexer.tokenize ~file:"t.als" "sig A\n  { }" in
  let span_of i = snd tokens.(i) in
  let s0 = span_of 0 in
  Alcotest.(check string) "file" "t.als" s0.Loc.file;
  Alcotest.(check (pair int int)) "sig starts at 1:1" (1, 1)
    (s0.Loc.start_line, s0.Loc.start_col);
  Alcotest.(check int) "sig ends past col 3" 4 s0.Loc.end_col;
  let brace = span_of 2 in
  Alcotest.(check (pair int int)) "brace at 2:3" (2, 3)
    (brace.Loc.start_line, brace.Loc.start_col)

let test_lexer_comments () =
  let tokens = Lexer.tokenize "a /* block\ncomment */ b -- line\nc" in
  Alcotest.(check int) "three idents + eof" 4 (Array.length tokens)

(* {2 Parser} *)

let test_parse_graph () =
  let spec = parse_ok graph_src in
  Alcotest.(check (option string)) "module name" (Some "graph") spec.module_name;
  Alcotest.(check int) "one sig" 1 (List.length spec.sigs);
  Alcotest.(check int) "one fact" 1 (List.length spec.facts);
  Alcotest.(check int) "one pred" 1 (List.length spec.preds);
  Alcotest.(check int) "one assert" 1 (List.length spec.asserts);
  Alcotest.(check int) "two commands" 2 (List.length spec.commands)

let test_parse_classroom () =
  let spec = parse_ok classroom_src in
  Alcotest.(check int) "four sigs" 4 (List.length spec.sigs);
  let school = Option.get (Ast.find_sig spec "School") in
  Alcotest.(check bool) "School is one" true (school.sig_mult = Ast.Mone);
  let student = Option.get (Ast.find_sig spec "Student") in
  Alcotest.(check (option string))
    "Student extends Person" (Some "Person") student.sig_parent;
  match student.sig_fields with
  | [ f ] ->
      Alcotest.(check string) "field name" "teacher" f.fld_name;
      Alcotest.(check bool) "field mult lone" true (f.fld_mult = Ast.Mlone)
  | _ -> Alcotest.fail "expected one field on Student"

let test_parse_precedence () =
  (* join binds tighter than product, product tighter than &, etc. *)
  let e = Parser.parse_expr "a.b -> c & d + e" in
  let expected =
    Ast.Binop
      ( Union,
        Binop
          ( Inter,
            Binop (Product, Binop (Join, Rel "a", Rel "b"), Rel "c"),
            Rel "d" ),
        Rel "e" )
  in
  Alcotest.(check bool) "expression precedence" true (Ast.equal_expr e expected);
  (* ! > && > => > <=> > || *)
  let f = Parser.parse_fmla "some a || some b && some c" in
  let expected =
    Ast.Or (Multf (Fsome, Rel "a"), And (Multf (Fsome, Rel "b"), Multf (Fsome, Rel "c")))
  in
  Alcotest.(check bool) "formula precedence" true (Ast.equal_fmla f expected)

let test_parse_quantifiers () =
  let f = Parser.parse_fmla "all x, y: A, z: B | x != y || z in A" in
  match f with
  | Ast.Quant (Qall, [ ("x", Rel "A"); ("y", Rel "A"); ("z", Rel "B") ], _) -> ()
  | _ -> Alcotest.fail "unexpected quantifier structure"

let test_parse_box_join () =
  let f = Parser.parse_fmla "k in lastKey[r]" in
  let expected =
    Ast.Cmp (Cin, Rel "k", Binop (Join, Rel "r", Rel "lastKey"))
  in
  Alcotest.(check bool) "box join" true (Ast.equal_fmla f expected)

let test_parse_pred_call () =
  let f = Parser.parse_fmla "checkIn[g, r]" in
  let expected = Ast.Call ("checkIn", [ Rel "g"; Rel "r" ]) in
  Alcotest.(check bool) "pred call" true (Ast.equal_fmla f expected)

let test_parse_implies_else () =
  let f = Parser.parse_fmla "some a => some b else some c" in
  let sa = Ast.Multf (Ast.Fsome, Rel "a") in
  let sb = Ast.Multf (Ast.Fsome, Rel "b") in
  let sc = Ast.Multf (Ast.Fsome, Rel "c") in
  Alcotest.(check bool)
    "else desugars" true
    (Ast.equal_fmla f (Or (And (sa, sb), And (Not sa, sc))))

let test_parse_comprehension () =
  let e = Parser.parse_expr "{ x: A | x in B }" in
  (match e with
  | Ast.Compr ([ ("x", Rel "A") ], Cmp (Cin, Rel "x", Rel "B")) -> ()
  | _ -> Alcotest.fail "unexpected comprehension structure");
  let e2 = Parser.parse_expr "{ x: A, y: B | x != y }" in
  (match e2 with
  | Ast.Compr ([ ("x", Rel "A"); ("y", Rel "B") ], _) -> ()
  | _ -> Alcotest.fail "binary comprehension structure");
  (* comprehension opening a comparison in formula position *)
  let f = Parser.parse_fmla "{ x: A | some x.f } = B" in
  match f with
  | Ast.Cmp (Ceq, Compr _, Rel "B") -> ()
  | _ -> Alcotest.fail "comprehension comparison"

let test_eval_comprehension () =
  let env =
    Typecheck.check
      (Parser.parse
         {|
sig Node {
  edges: set Node
}
fact F { some { n: Node | some n.edges } }
|})
  in
  let inst =
    {
      Instance.sigs = [ ("Node", [ "Node$0"; "Node$1"; "Node$2" ]) ];
      fields =
        [
          ( "edges",
            Instance.Tuple_set.of_list [ [| "Node$0"; "Node$1" |] ] );
        ];
    }
  in
  let v = Eval.expr env inst [] (Parser.parse_expr "{ n: Node | some n.edges }") in
  Alcotest.(check int) "one node has edges" 1 (Instance.Tuple_set.cardinal v);
  Alcotest.(check bool) "it is Node$0" true
    (Instance.Tuple_set.mem [| "Node$0" |] v);
  let pairs =
    Eval.expr env inst []
      (Parser.parse_expr "{ a: Node, b: Node | b in a.edges }")
  in
  Alcotest.(check int) "edge pairs" 1 (Instance.Tuple_set.cardinal pairs);
  Alcotest.(check bool) "the pair" true
    (Instance.Tuple_set.mem [| "Node$0"; "Node$1" |] pairs)

let test_fun_and_let () =
  let src =
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

fact LetUse {
  all p: Person | let a = p.^parent | p not in a
}
|}
  in
  let spec = parse_ok src in
  Alcotest.(check int) "one function" 1 (List.length spec.funs);
  let f = List.hd spec.funs in
  Alcotest.(check string) "fun name" "ancestors" f.fun_name;
  (* type-checks, with the function registered at arity 2 (1 param + set) *)
  let env = Typecheck.check spec in
  Alcotest.(check int) "fun arity" 2 (Hashtbl.find env.arity "ancestors");
  (* evaluation: function application is join *)
  let inst =
    {
      Instance.sigs = [ ("Person", [ "Person$0"; "Person$1"; "Person$2" ]) ];
      fields =
        [
          ( "parent",
            Instance.Tuple_set.of_list
              [ [| "Person$0"; "Person$1" |]; [| "Person$1"; "Person$2" |] ] );
        ];
    }
  in
  let anc =
    Eval.expr env inst [] (Parser.parse_expr "ancestors[Person$0]")
  in
  Alcotest.(check int) "two ancestors" 2 (Instance.Tuple_set.cardinal anc);
  Alcotest.(check bool) "facts hold" true (Eval.facts_hold env inst);
  (* round trip *)
  let spec2 = parse_ok (Pretty.spec_to_string spec) in
  Alcotest.(check bool) "fun round trip" true (Ast.equal_spec spec spec2)

let test_fun_rejects_recursion () =
  let src =
    {|
sig A {
  r: set A
}
fun f[x: A]: set A {
  f[x]
}
|}
  in
  match Typecheck.check_result (parse_ok src) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "recursive function must be rejected"

let test_parse_errors () =
  let fails src =
    match Parser.parse src with
    | _ -> Alcotest.fail ("expected parse error for: " ^ src)
    | exception Diagnostic.Error d ->
        (* every rejection carries a real position *)
        Alcotest.(check bool)
          ("diagnostic has a position for: " ^ src)
          false
          (Loc.is_none d.Diagnostic.span)
  in
  fails "sig {}";
  fails "sig A { f }";
  fails "fact { all | x }";
  fails "pred p { some }";
  fails "check";
  fails "sig A {} garbage"

let test_diagnostic_json () =
  let module Json = Specrepair_json in
  let text = "q\"b\\s\rr\nn\tt\001c" in
  let d = Diagnostic.error ~notes:[ text; "in fact F" ] Loc.none "%s" text in
  let line = Json.to_string (Diagnostic.to_json d) in
  Alcotest.(check bool) "one line" false (String.contains line '\n');
  match Json.parse line with
  | Error (pos, msg) -> Alcotest.failf "not JSON (byte %d: %s)" pos msg
  | Ok j ->
      Alcotest.(check (option string)) "message" (Some text)
        (Json.mem_str "message" j);
      Alcotest.(check (option (list string)))
        "notes"
        (Some [ text; "in fact F" ])
        (Option.bind (Json.member "notes" j) Json.to_list
        |> Option.map (List.filter_map Json.to_str));
      Alcotest.(check (option int)) "line" (Some 0) (Json.mem_int "line" j)

let test_lexer_atom_names () =
  let tokens = Lexer.tokenize "Node$0 x' _under" in
  let kinds = Array.to_list (Array.map fst tokens) in
  Alcotest.(check bool) "atoms, primes, underscores lex as idents" true
    (kinds = [ Token.Tident "Node$0"; Tident "x'"; Tident "_under"; Teof ])

let test_lexer_errors () =
  (match Lexer.tokenize "sig A % B" with
  | _ -> Alcotest.fail "expected lex error"
  | exception Diagnostic.Error d ->
      Alcotest.(check int) "error on line 1" 1 d.Diagnostic.span.Loc.start_line;
      Alcotest.(check int) "error at column 7" 7 d.Diagnostic.span.Loc.start_col);
  match Lexer.tokenize "a\n/* never closed" with
  | _ -> Alcotest.fail "expected unterminated-comment error"
  | exception Diagnostic.Error d ->
      Alcotest.(check int) "points at the comment opener" 2
        d.Diagnostic.span.Loc.start_line

let test_parse_scope_overrides () =
  let spec = parse_ok "sig A {} sig B {} run { some A } for 3 but 5 A, 2 B" in
  match spec.commands with
  | [ c ] ->
      Alcotest.(check int) "default scope" 3 c.cmd_scope;
      Alcotest.(check bool) "overrides" true
        (c.cmd_scopes = [ ("A", 5); ("B", 2) ])
  | _ -> Alcotest.fail "expected one command"

let test_parse_default_scope () =
  let spec = parse_ok "sig A {} run { some A }" in
  Alcotest.(check int) "scope defaults to 3" 3 (List.hd spec.commands).cmd_scope

let test_parse_fact_anonymous () =
  let spec = parse_ok "sig A {} fact { some A } fact Named { no A }" in
  (match spec.facts with
  | [ f1; f2 ] ->
      Alcotest.(check (option string)) "anonymous" None f1.fact_name;
      Alcotest.(check (option string)) "named" (Some "Named") f2.fact_name
  | _ -> Alcotest.fail "expected two facts")

let test_typecheck_scope_errors () =
  let rejects src =
    match Typecheck.check_result (parse_ok src) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("expected a type error for: " ^ src)
  in
  rejects "sig A {} run { some A } for 0";
  (* scope must be >= 1 *)
  rejects "sig A {} run { some A } for 3 but 2 Unknown";
  (* unknown sig in override *)
  rejects "sig A {} pred p[x: A -> A] { some x }"
  (* higher-arity parameter *)

(* {2 Pretty round trips} *)

let roundtrip_spec src () =
  let spec = parse_ok src in
  let printed = Pretty.spec_to_string spec in
  let spec' = parse_ok printed in
  if not (Ast.equal_spec spec spec') then
    Alcotest.failf "round trip changed the spec:@.%s@.reprinted:@.%s" printed
      (Pretty.spec_to_string spec')

(* Random well-formed formula generator over a fixed vocabulary, used for
   the print/parse round-trip property. *)
let gen_fmla =
  let open QCheck2.Gen in
  let unary = oneofl [ Ast.Rel "A"; Rel "B"; Univ; None_ ] in
  let binary = oneofl [ Ast.Rel "f"; Rel "g"; Iden ] in
  let rec expr1 n =
    if n = 0 then unary
    else
      frequency
        [
          (2, unary);
          ( 2,
            map2
              (fun op (a, b) -> Ast.Binop (op, a, b))
              (oneofl [ Ast.Union; Diff; Inter ])
              (pair (expr1 (n - 1)) (expr1 (n - 1))) );
          (1, map2 (fun a b -> Ast.Binop (Join, a, b)) (expr1 (n - 1)) (expr2 (n - 1)));
          ( 1,
            map2
              (fun s e -> Ast.Binop (Domrestr, s, e))
              (expr1 (n - 1)) (expr1 (n - 1)) );
        ]
  and expr2 n =
    if n = 0 then binary
    else
      frequency
        [
          (3, binary);
          ( 2,
            map2
              (fun op (a, b) -> Ast.Binop (op, a, b))
              (oneofl [ Ast.Union; Diff; Inter; Override ])
              (pair (expr2 (n - 1)) (expr2 (n - 1))) );
          (1, map (fun e -> Ast.Unop (Transpose, e)) (expr2 (n - 1)));
          (1, map (fun e -> Ast.Unop (Closure, e)) (expr2 (n - 1)));
          ( 1,
            map2 (fun a b -> Ast.Binop (Product, a, b)) (expr1 (n - 1))
              (expr1 (n - 1)) );
        ]
  in
  let cmp =
    let* op = oneofl [ Ast.Cin; Cnotin; Ceq; Cneq ] in
    let* arity2 = bool in
    if arity2 then map2 (fun a b -> Ast.Cmp (op, a, b)) (expr2 2) (expr2 2)
    else map2 (fun a b -> Ast.Cmp (op, a, b)) (expr1 2) (expr1 2)
  in
  let multf =
    map2
      (fun m e -> Ast.Multf (m, e))
      (oneofl [ Ast.Fno; Fsome; Flone; Fone ])
      (oneof [ expr1 2; expr2 2 ])
  in
  let card =
    map3
      (fun op e k -> Ast.Card (op, e, k))
      (oneofl [ Ast.Ilt; Ile; Ieq; Ineq; Ige; Igt ])
      (expr1 2) (int_bound 4)
  in
  let rec fmla n =
    if n = 0 then oneof [ cmp; multf; card ]
    else
      frequency
        [
          (3, oneof [ cmp; multf; card ]);
          (1, map (fun f -> Ast.Not f) (fmla (n - 1)));
          ( 2,
            map3
              (fun c a b -> c a b)
              (oneofl
                 [
                   (fun a b -> Ast.And (a, b));
                   (fun a b -> Ast.Or (a, b));
                   (fun a b -> Ast.Implies (a, b));
                   (fun a b -> Ast.Iff (a, b));
                 ])
              (fmla (n - 1)) (fmla (n - 1)) );
          ( 1,
            map3
              (fun q x body -> Ast.Quant (q, [ (x, Ast.Rel "A") ], body))
              (oneofl [ Ast.Qall; Qsome; Qno; Qlone; Qone ])
              (oneofl [ "x"; "y" ])
              (fmla (n - 1)) );
          ( 1,
            map3
              (fun x value body -> Ast.Let (x, value, body))
              (oneofl [ "u"; "v" ])
              (expr2 1)
              (fmla (n - 1)) );
          ( 1,
            map3
              (fun x inner body -> Ast.Multf (Fsome, Ast.Compr ([ (x, Ast.Rel "A") ], Ast.And (inner, body))))
              (oneofl [ "p"; "q" ])
              (fmla 0) (fmla 0) );
        ]
  in
  fmla 3

(* The round-trip contract is a fixpoint on parser-produced formulas:
   generator output may contain [Cmp (Ceq, Univ, Univ)], which the
   frontend folds to [True] (that fold is what makes [True] printable),
   so the property compares the first parse against the second. *)
let prop_fmla_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"pretty/parse formula round trip"
    ~print:(fun f -> Pretty.fmla_to_string f)
    gen_fmla
    (fun f ->
      let printed = Pretty.fmla_to_string f in
      match Parser.parse_fmla printed with
      | f1 -> (
          match Parser.parse_fmla (Pretty.fmla_to_string f1) with
          | f2 -> Ast.equal_fmla f1 f2
          | exception _ -> false)
      | exception _ -> false)

(* {2 Type checker} *)

let test_typecheck_ok () =
  List.iter
    (fun src ->
      match Typecheck.check_result (parse_ok src) with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail ("unexpected type error: " ^ msg))
    [ graph_src; classroom_src ]

let test_typecheck_errors () =
  let rejects src =
    match Typecheck.check_result (parse_ok src) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("expected a type error for: " ^ src)
  in
  rejects "sig A {} fact { some B }";
  (* unknown name *)
  rejects "sig A { f: set A } fact { f = A }";
  (* arity mismatch *)
  rejects "sig A { f: set A } sig B { f: set B }";
  (* duplicate field *)
  rejects "sig A extends B {} sig B extends A {}";
  (* cyclic extends *)
  rejects "sig A {} fact { ~A in A }";
  (* transpose of unary *)
  rejects "sig A {} check Missing for 3";
  (* unknown assert *)
  rejects "sig A {} pred p[x: A] { some x } fact { p[A, A] }"
  (* wrong arg count *)

let test_typecheck_env () =
  let env = Typecheck.check (parse_ok classroom_src) in
  Alcotest.(check (list string))
    "top sigs" [ "Person"; "School" ] env.top_sigs;
  Alcotest.(check string) "root of Teacher" "Person"
    (Typecheck.root_of env "Teacher");
  Alcotest.(check int) "teacher field arity" 2
    (Hashtbl.find env.arity "teacher");
  Alcotest.(check bool)
    "descendants of Person" true
    (List.sort compare (Typecheck.descendants env "Person")
    = [ "Person"; "Student"; "Teacher" ])

(* {2 Evaluator} *)

module TS = Instance.Tuple_set

let graph_instance edges =
  {
    Instance.sigs = [ ("Node", [ "Node$0"; "Node$1"; "Node$2" ]) ];
    fields =
      [
        ( "edges",
          TS.of_list (List.map (fun (a, b) -> [| "Node$" ^ a; "Node$" ^ b |]) edges)
        );
      ];
  }

let graph_env = lazy (Typecheck.check (parse_ok graph_src))

let eval_fmla inst src =
  Eval.fmla (Lazy.force graph_env) inst [] (Parser.parse_fmla src)

let test_eval_basic () =
  let inst = graph_instance [ ("0", "1"); ("1", "2") ] in
  Alcotest.(check bool) "some edges" true (eval_fmla inst "some edges");
  Alcotest.(check bool) "#edges = 2" true (eval_fmla inst "#edges = 2");
  Alcotest.(check bool)
    "transitive reach" true
    (eval_fmla inst "Node$2 in Node$0.^edges");
  Alcotest.(check bool)
    "no back edge" false
    (eval_fmla inst "Node$0 in Node$2.^edges")

let test_eval_closure () =
  let inst = graph_instance [ ("0", "1"); ("1", "2") ] in
  let env = Lazy.force graph_env in
  let closure = Eval.expr env inst [] (Parser.parse_expr "^edges") in
  Alcotest.(check int) "closure size" 3 (TS.cardinal closure);
  Alcotest.(check bool)
    "0 reaches 2" true
    (TS.mem [| "Node$0"; "Node$2" |] closure);
  let rclosure = Eval.expr env inst [] (Parser.parse_expr "*edges") in
  Alcotest.(check int) "reflexive closure size" 6 (TS.cardinal rclosure)

let test_eval_quantifiers () =
  let inst = graph_instance [ ("0", "1"); ("1", "2"); ("0", "2") ] in
  let env = Lazy.force graph_env in
  let holds src = Eval.fmla env inst [] (Parser.parse_fmla src) in
  Alcotest.(check bool) "all nodes distinct from successors" true
    (holds "all n: Node | n not in n.edges");
  Alcotest.(check bool) "some node with two successors" true
    (holds "some n: Node | #n.edges = 2");
  Alcotest.(check bool) "exactly one node with no successors" true
    (holds "one n: Node | no n.edges");
  Alcotest.(check bool) "lone fails when two nodes have successors" false
    (holds "lone n: Node | some n.edges")

let test_eval_relational_ops () =
  let inst = graph_instance [ ("0", "1"); ("1", "2") ] in
  let env = Lazy.force graph_env in
  let value src = Eval.expr env inst [] (Parser.parse_expr src) in
  Alcotest.(check int) "transpose cardinality" 2 (TS.cardinal (value "~edges"));
  Alcotest.(check bool)
    "transpose contents" true
    (TS.mem [| "Node$1"; "Node$0" |] (value "~edges"));
  Alcotest.(check int) "override keeps size" 2
    (TS.cardinal (value "edges ++ Node$0 -> Node$2"));
  Alcotest.(check bool)
    "override replaces Node$0 mapping" true
    (TS.mem [| "Node$0"; "Node$2" |] (value "edges ++ Node$0 -> Node$2"));
  Alcotest.(check int) "domain restriction" 1
    (TS.cardinal (value "Node$0 <: edges"));
  Alcotest.(check int) "range restriction" 1
    (TS.cardinal (value "edges :> Node$2"));
  Alcotest.(check int) "iden over universe" 3 (TS.cardinal (value "iden"))

let test_eval_dependent_bounds () =
  (* a quantifier whose bound mentions an earlier variable *)
  let inst = graph_instance [ ("0", "1"); ("1", "2") ] in
  Alcotest.(check bool) "successors of successors" true
    (eval_fmla inst "all n: Node | all m: n.edges | m not in m.edges || some m.edges")

let test_eval_cardinality_ops () =
  let inst = graph_instance [ ("0", "1"); ("1", "2"); ("0", "2") ] in
  List.iter
    (fun (src, expected) ->
      Alcotest.(check bool) src expected (eval_fmla inst src))
    [
      ("#edges = 3", true);
      ("#edges != 3", false);
      ("#edges >= 3", true);
      ("#edges > 3", false);
      ("#edges <= 3", true);
      ("#edges < 3", false);
      ("#Node = 3", true);
      ("#(Node.edges) = 2", true);
    ]

let test_eval_instance_equal () =
  let a = graph_instance [ ("0", "1") ] in
  let b = graph_instance [ ("0", "1") ] in
  let c = graph_instance [ ("1", "0") ] in
  Alcotest.(check bool) "equal instances" true (Instance.equal a b);
  Alcotest.(check bool) "different valuations differ" false (Instance.equal a c);
  Alcotest.(check int) "universe size" 3 (List.length (Instance.universe a))

let test_eval_restrictions_and_override () =
  let inst = graph_instance [ ("0", "1"); ("1", "2"); ("2", "0") ] in
  let env = Lazy.force graph_env in
  let value src = Eval.expr env inst [] (Parser.parse_expr src) in
  (* domain restriction to two atoms *)
  Alcotest.(check int) "dom restrict" 2
    (TS.cardinal (value "(Node$0 + Node$1) <: edges"));
  (* override replaces exactly the tuples whose head is overridden *)
  let ov = value "edges ++ (Node$0 -> Node$0)" in
  Alcotest.(check bool) "override installs new tuple" true
    (TS.mem [| "Node$0"; "Node$0" |] ov);
  Alcotest.(check bool) "override removes old head tuples" false
    (TS.mem [| "Node$0"; "Node$1" |] ov);
  Alcotest.(check bool) "override keeps other heads" true
    (TS.mem [| "Node$1"; "Node$2" |] ov)

let test_eval_facts_hold () =
  let env = Lazy.force graph_env in
  Alcotest.(check bool)
    "no self loops holds" true
    (Eval.facts_hold env (graph_instance [ ("0", "1") ]));
  Alcotest.(check bool)
    "self loop violates fact" false
    (Eval.facts_hold env (graph_instance [ ("0", "0") ]))

let test_pretty_edge_cases () =
  (* nested negation, quantifier inside conjunction, deep parentheses *)
  List.iter
    (fun src ->
      let f = Parser.parse_fmla src in
      let printed = Pretty.fmla_to_string f in
      match Parser.parse_fmla printed with
      | f' ->
          if not (Ast.equal_fmla f f') then
            Alcotest.failf "round trip changed %S -> %S" src printed
      | exception e ->
          Alcotest.failf "reparse of %S failed: %s" printed (Printexc.to_string e))
    [
      "!!some A";
      "(all x: A | some x.f) && no B";
      "some A || no B && one C.f";
      "let u = A.f | u in B || some u";
      "some { x: A | x in B } && no C";
      "#(A + B) >= 2 => A in B";
      "a.b.c in (d + e).f";
      "A - B - C = none";
      "~(f + ~g) in h";
    ]

let test_eval_pred_call () =
  let src =
    {|
sig Person {
  likes: set Person
}
pred mutual[a: Person, b: Person] {
  b in a.likes && a in b.likes
}
fact { some a: Person, b: Person | mutual[a, b] }
|}
  in
  let env = Typecheck.check (parse_ok src) in
  let inst ok =
    {
      Instance.sigs = [ ("Person", [ "Person$0"; "Person$1" ]) ];
      fields =
        [
          ( "likes",
            if ok then
              TS.of_list
                [ [| "Person$0"; "Person$1" |]; [| "Person$1"; "Person$0" |] ]
            else TS.of_list [ [| "Person$0"; "Person$1" |] ] );
        ];
    }
  in
  Alcotest.(check bool) "mutual likes" true (Eval.facts_hold env (inst true));
  Alcotest.(check bool) "one-way likes" false (Eval.facts_hold env (inst false))

let () =
  Alcotest.run "alloy"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "positions" `Quick test_lexer_positions;
          Alcotest.test_case "atom names" `Quick test_lexer_atom_names;
          Alcotest.test_case "lex errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "graph spec" `Quick test_parse_graph;
          Alcotest.test_case "classroom spec" `Quick test_parse_classroom;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "quantifiers" `Quick test_parse_quantifiers;
          Alcotest.test_case "box join" `Quick test_parse_box_join;
          Alcotest.test_case "pred call" `Quick test_parse_pred_call;
          Alcotest.test_case "implies-else" `Quick test_parse_implies_else;
          Alcotest.test_case "comprehension" `Quick test_parse_comprehension;
          Alcotest.test_case "fun and let" `Quick test_fun_and_let;
          Alcotest.test_case "recursive fun rejected" `Quick
            test_fun_rejects_recursion;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "diagnostic json" `Quick test_diagnostic_json;
          Alcotest.test_case "scope overrides" `Quick test_parse_scope_overrides;
          Alcotest.test_case "default scope" `Quick test_parse_default_scope;
          Alcotest.test_case "anonymous facts" `Quick test_parse_fact_anonymous;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "graph round trip" `Quick (roundtrip_spec graph_src);
          Alcotest.test_case "classroom round trip" `Quick
            (roundtrip_spec classroom_src);
          QCheck_alcotest.to_alcotest prop_fmla_roundtrip;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "accepts valid specs" `Quick test_typecheck_ok;
          Alcotest.test_case "rejects invalid specs" `Quick test_typecheck_errors;
          Alcotest.test_case "environment contents" `Quick test_typecheck_env;
          Alcotest.test_case "scope errors" `Quick test_typecheck_scope_errors;
        ] );
      ( "eval",
        [
          Alcotest.test_case "basics" `Quick test_eval_basic;
          Alcotest.test_case "closure" `Quick test_eval_closure;
          Alcotest.test_case "quantifiers" `Quick test_eval_quantifiers;
          Alcotest.test_case "relational ops" `Quick test_eval_relational_ops;
          Alcotest.test_case "facts_hold" `Quick test_eval_facts_hold;
          Alcotest.test_case "pred call" `Quick test_eval_pred_call;
          Alcotest.test_case "comprehension" `Quick test_eval_comprehension;
          Alcotest.test_case "pretty edge cases" `Quick test_pretty_edge_cases;
          Alcotest.test_case "dependent bounds" `Quick test_eval_dependent_bounds;
          Alcotest.test_case "cardinality ops" `Quick test_eval_cardinality_ops;
          Alcotest.test_case "instance equality" `Quick test_eval_instance_equal;
          Alcotest.test_case "restrictions and override" `Quick
            test_eval_restrictions_and_override;
        ] );
    ]
