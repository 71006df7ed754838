type t =
  | True
  | False
  | Var of int
  | Not of t
  | And of t array
  | Or of t array
  | Iff of t * t
  | Ite of t * t * t

let tru = True
let fls = False

let var v =
  if v < 0 then invalid_arg "Formula.var";
  Var v

let not_ = function
  | True -> False
  | False -> True
  | Not f -> f
  | f -> Not f

let is_true = function True -> true | _ -> false
let is_false = function False -> true | _ -> false

(* Flatten one level of nesting and drop neutral elements; detect the
   absorbing constant.  Shared by [and_] and [or_]. *)
let gather ~absorbing ~neutral ~sub fs =
  let exception Absorbed in
  let acc = ref [] in
  let n = ref 0 in
  try
    List.iter
      (fun f ->
        if f = absorbing then raise Absorbed
        else if f = neutral then ()
        else
          match sub f with
          | Some inner ->
              Array.iter
                (fun g ->
                  acc := g :: !acc;
                  incr n)
                inner
          | None ->
              acc := f :: !acc;
              incr n)
      fs;
    Some (List.rev !acc, !n)
  with Absorbed -> None

let and_ fs =
  match gather ~absorbing:False ~neutral:True
          ~sub:(function And gs -> Some gs | _ -> None)
          fs
  with
  | None -> False
  | Some ([], _) -> True
  | Some ([ f ], _) -> f
  | Some (fs, _) -> And (Array.of_list fs)

let or_ fs =
  match gather ~absorbing:True ~neutral:False
          ~sub:(function Or gs -> Some gs | _ -> None)
          fs
  with
  | None -> True
  | Some ([], _) -> False
  | Some ([ f ], _) -> f
  | Some (fs, _) -> Or (Array.of_list fs)

let and2 a b = match (a, b) with
  | True, f | f, True -> f
  | False, _ | _, False -> False
  | _ -> and_ [ a; b ]

let or2 a b = match (a, b) with
  | False, f | f, False -> f
  | True, _ | _, True -> True
  | _ -> or_ [ a; b ]

let imp a b = or2 (not_ a) b

let iff a b =
  match (a, b) with
  | True, f | f, True -> f
  | False, f | f, False -> not_ f
  | _ -> if a == b then True else Iff (a, b)

let ite c t e =
  match c with
  | True -> t
  | False -> e
  | _ -> (
      match (t, e) with
      | True, _ -> or2 c e
      | False, _ -> and2 (not_ c) e
      | _, True -> or2 (not_ c) t
      | _, False -> and2 c t
      | _ -> if t == e then t else Ite (c, t, e))

let rec eval env = function
  | True -> true
  | False -> false
  | Var v -> env v
  | Not f -> not (eval env f)
  | And fs -> Array.for_all (eval env) fs
  | Or fs -> Array.exists (eval env) fs
  | Iff (a, b) -> eval env a = eval env b
  | Ite (c, t, e) -> if eval env c then eval env t else eval env e

module Phys = struct
  type nonrec t = t

  let equal = ( == )
  let hash = Hashtbl.hash
end

module Phys_tbl = Hashtbl.Make (Phys)

let size f =
  let seen = Phys_tbl.create 64 in
  let count = ref 0 in
  let rec go f =
    if not (Phys_tbl.mem seen f) then begin
      Phys_tbl.add seen f ();
      incr count;
      match f with
      | True | False | Var _ -> ()
      | Not g -> go g
      | And gs | Or gs -> Array.iter go gs
      | Iff (a, b) ->
          go a;
          go b
      | Ite (a, b, c) ->
          go a;
          go b;
          go c
    end
  in
  go f;
  !count

let vars f =
  let seen = Phys_tbl.create 64 in
  let acc = Hashtbl.create 16 in
  let rec go f =
    if not (Phys_tbl.mem seen f) then begin
      Phys_tbl.add seen f ();
      match f with
      | True | False -> ()
      | Var v -> Hashtbl.replace acc v ()
      | Not g -> go g
      | And gs | Or gs -> Array.iter go gs
      | Iff (a, b) ->
          go a;
          go b
      | Ite (a, b, c) ->
          go a;
          go b;
          go c
    end
  in
  go f;
  List.sort Int.compare (Hashtbl.fold (fun v () l -> v :: l) acc [])

