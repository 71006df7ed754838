type t = int

let pos v =
  if v < 0 then invalid_arg "Lit.pos: negative variable";
  v * 2

let neg v =
  if v < 0 then invalid_arg "Lit.neg: negative variable";
  (v * 2) + 1

let make v sign = if sign then pos v else neg v
let var l = l lsr 1
let sign l = l land 1 = 0
let negate l = l lxor 1
let to_int l = l

let of_int i =
  if i < 0 then invalid_arg "Lit.of_int: negative encoding";
  i

let to_dimacs l = if sign l then var l + 1 else -(var l + 1)

let of_dimacs i =
  if i = 0 then invalid_arg "Lit.of_dimacs: zero";
  if i > 0 then pos (i - 1) else neg (-i - 1)

let equal = Int.equal
