open Specrepair_sat
module Tuple_map = Map.Make (Int)

type t = { n : int; arity : int; cells : Formula.t Tuple_map.t }

let size ~n k =
  let rec go acc k =
    if k = 0 then acc
    else if n > 0 && acc > max_int / n then
      invalid_arg "Matrix: n^arity overflows an int"
    else go (acc * n) (k - 1)
  in
  go 1 k

let encode ~n atoms = Array.fold_left (fun code a -> (code * n) + a) 0 atoms

let decode ~n arity code =
  let t = Array.make arity 0 in
  let rec go i code =
    if i >= 0 then begin
      t.(i) <- code mod n;
      go (i - 1) (code / n)
    end
  in
  go (arity - 1) code;
  t

let empty ~n arity =
  ignore (size ~n arity);
  { n; arity; cells = Tuple_map.empty }

let add_cell cells code f =
  if Formula.is_false f then cells
  else
    Tuple_map.update code
      (function None -> Some f | Some g -> Some (Formula.or2 g f))
      cells

let constant ~n arity codes =
  {
    (empty ~n arity) with
    cells =
      List.fold_left
        (fun m c -> Tuple_map.add c Formula.tru m)
        Tuple_map.empty codes;
  }

let singleton ~n arity code =
  { (empty ~n arity) with cells = Tuple_map.singleton code Formula.tru }

let of_cells ~n arity cells =
  {
    (empty ~n arity) with
    cells =
      List.fold_left (fun m (c, f) -> add_cell m c f) Tuple_map.empty cells;
  }

(* codes of arity [k] sharing their first atom [h] are the range
   [h n^(k-1), (h+1) n^(k-1)) *)
let tail m = size ~n:m.n (m.arity - 1)
let head m code = code / tail m

let cell m code =
  match Tuple_map.find_opt code m.cells with
  | Some f -> f
  | None -> Formula.fls

let support m = Tuple_map.bindings m.cells

(* The cells of [m] with codes in [lo, hi), highest code first. *)
let newest_first m lo hi =
  let rec go acc seq =
    match seq () with
    | Seq.Cons (((c, _) as cell), rest) when c < hi -> go (cell :: acc) rest
    | _ -> acc
  in
  go [] (Tuple_map.to_seq_from lo m.cells)

(* [newest_first] per first atom, each range read once per operation.
   Only the lists are shared: every cell formula is still built once per
   use, so the circuit keeps the shape a fresh build gives it. *)
let by_head m =
  let tail = tail m in
  let lists = Array.make m.n None in
  fun h ->
    match lists.(h) with
    | Some l -> l
    | None ->
        let l = newest_first m (h * tail) ((h + 1) * tail) in
        lists.(h) <- Some l;
        l

let merge_with op a b =
  Tuple_map.merge
    (fun _ fa fb ->
      let fa = Option.value ~default:Formula.fls fa in
      let fb = Option.value ~default:Formula.fls fb in
      let f = op fa fb in
      if Formula.is_false f then None else Some f)
    a b

let union a b =
  if a.arity <> b.arity then invalid_arg "Matrix.union: arity mismatch";
  { a with cells = merge_with Formula.or2 a.cells b.cells }

let inter a b =
  if a.arity <> b.arity then invalid_arg "Matrix.inter: arity mismatch";
  { a with cells = merge_with Formula.and2 a.cells b.cells }

let diff a b =
  if a.arity <> b.arity then invalid_arg "Matrix.diff: arity mismatch";
  {
    a with
    cells =
      merge_with (fun fa fb -> Formula.and2 fa (Formula.not_ fb)) a.cells b.cells;
  }

(* a's cells in code order, each against b's cells whose head is its last
   atom, newest first *)
let join a b =
  let arity = a.arity + b.arity - 2 in
  if arity < 1 then invalid_arg "Matrix.join: resulting arity < 1";
  let n = a.n in
  let matches = by_head b and b_tail = tail b in
  let cells =
    Tuple_map.fold
      (fun c1 f1 acc ->
        let prefix = c1 / n * b_tail in
        List.fold_left
          (fun acc (c2, f2) ->
            add_cell acc (prefix + (c2 mod b_tail)) (Formula.and2 f1 f2))
          acc
          (matches (c1 mod n)))
      a.cells Tuple_map.empty
  in
  { (empty ~n arity) with cells }

let product a b =
  let shift = size ~n:a.n b.arity in
  let cells =
    Tuple_map.fold
      (fun c1 f1 acc ->
        Tuple_map.fold
          (fun c2 f2 acc ->
            add_cell acc ((c1 * shift) + c2) (Formula.and2 f1 f2))
          b.cells acc)
      a.cells Tuple_map.empty
  in
  { (empty ~n:a.n (a.arity + b.arity)) with cells }

let transpose a =
  if a.arity <> 2 then invalid_arg "Matrix.transpose: arity must be 2";
  let n = a.n in
  {
    a with
    cells =
      Tuple_map.fold
        (fun c f acc -> add_cell acc ((c mod n * n) + (c / n)) f)
        a.cells Tuple_map.empty;
  }

let closure a =
  if a.arity <> 2 then invalid_arg "Matrix.closure: arity must be 2";
  (* Path doubling: after k rounds the matrix covers paths of length up to
     2^k.  Simple paths never exceed the number of distinct atoms, so
     iterate until that bound — support stability alone is NOT a correct
     stopping criterion, because cell formulas keep strengthening after the
     support saturates. *)
  let seen = Array.make a.n false and atoms = ref 0 in
  let see i =
    if not seen.(i) then begin
      seen.(i) <- true;
      incr atoms
    end
  in
  Tuple_map.iter
    (fun c _ ->
      see (c / a.n);
      see (c mod a.n))
    a.cells;
  let n_atoms = max 1 !atoms in
  let rec go acc len =
    if len >= n_atoms then acc else go (union acc (join acc acc)) (2 * len)
  in
  go a 1

let override a b =
  if a.arity <> b.arity then invalid_arg "Matrix.override: arity mismatch";
  if a.arity < 2 then invalid_arg "Matrix.override: arity must be >= 2";
  (* a tuple of a survives if no b tuple shares its head atom *)
  let by_head = by_head b and a_tail = tail a in
  let kept =
    Tuple_map.fold
      (fun c f acc ->
        let overridden =
          match by_head (c / a_tail) with
          | [] -> Formula.fls
          | cells -> Formula.or_ (List.map snd cells)
        in
        add_cell acc c (Formula.and2 f (Formula.not_ overridden)))
      a.cells Tuple_map.empty
  in
  { a with cells = merge_with Formula.or2 kept b.cells }

let dom_restrict s e =
  if s.arity <> 1 then invalid_arg "Matrix.dom_restrict: set must be unary";
  let e_tail = tail e in
  {
    e with
    cells =
      Tuple_map.fold
        (fun c f acc -> add_cell acc c (Formula.and2 f (cell s (c / e_tail))))
        e.cells Tuple_map.empty;
  }

let ran_restrict e s =
  if s.arity <> 1 then invalid_arg "Matrix.ran_restrict: set must be unary";
  {
    e with
    cells =
      Tuple_map.fold
        (fun c f acc -> add_cell acc c (Formula.and2 f (cell s (c mod e.n))))
        e.cells Tuple_map.empty;
  }

let ite c a b =
  if a.arity <> b.arity then invalid_arg "Matrix.ite: arity mismatch";
  {
    a with
    cells = merge_with (fun fa fb -> Formula.ite c fa fb) a.cells b.cells;
  }

let formulas m = List.map snd (Tuple_map.bindings m.cells)

let some m = Formula.or_ (formulas m)
let no m = Formula.not_ (some m)
let lone m = Card.at_most 1 (formulas m)
let one m = Card.exactly 1 (formulas m)

let subset a b =
  if a.arity <> b.arity then invalid_arg "Matrix.subset: arity mismatch";
  Formula.and_
    (Tuple_map.fold
       (fun c f acc -> Formula.imp f (cell b c) :: acc)
       a.cells [])

let equal a b = Formula.and2 (subset a b) (subset b a)

let card_compare op m k = Card.compare_const op (formulas m) k
