type t = { mutable state : int64 }

let create seed = { state = seed }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

(* Fold a context string into the seed with a simple 64-bit FNV-ish hash. *)
let hash_string h s =
  String.fold_left
    (fun h c -> Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001B3L)
    h s

let of_context ~seed context =
  let h =
    List.fold_left
      (fun h s -> hash_string (Int64.add h 0x517CC1B727220A95L) s)
      (Int64.of_int seed) context
  in
  create (mix h)

let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992. (* 2^53 *)

let int t n =
  if n <= 0 then invalid_arg "Rng.int";
  int_of_float (float t *. float_of_int n)

(* Weights are summed once, left to right with negatives clamped to zero,
   into a prefix array; a draw binary-searches for the first prefix above
   [float t *. total].  That is the index (and the generator state) of a
   linear scan accumulating the same sums, at O(log n) per draw. *)
type 'a sampler = { items : 'a array; prefix : float array }

let sampler weighted =
  let pairs = Array.of_list weighted in
  let prefix = Array.make (Array.length pairs) 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i (_, w) ->
      (* [max 0. w], with the comparison specialized to floats *)
      acc := !acc +. if 0. >= w then 0. else w;
      prefix.(i) <- !acc)
    pairs;
  { items = Array.map fst pairs; prefix }

let of_prefix items prefix =
  if Array.length items <> Array.length prefix then invalid_arg "Rng.of_prefix";
  { items; prefix }

let draw t s =
  let n = Array.length s.prefix in
  let total = if n = 0 then 0. else s.prefix.(n - 1) in
  if total <= 0. then None
  else begin
    let target = float t *. total in
    (* first i with target < prefix.(i); the predicate is monotone in i *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if target < s.prefix.(mid) then search lo mid else search (mid + 1) hi
    in
    let i = search 0 n in
    if i < n then Some s.items.(i) else None
  end

let choose_weighted t weighted = draw t (sampler weighted)

let shuffle t xs =
  xs
  |> List.map (fun x -> (next_int64 t, x))
  |> List.sort (fun (a, _) (b, _) -> Int64.compare a b)
  |> List.map snd
