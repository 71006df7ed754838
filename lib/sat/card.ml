(* Sequential counter: column [j] of row [i] says "at least j of the first i
   inputs hold".  We materialise rows up to column [k], reusing formula
   sharing for the Tseitin stage. *)

let counter_row k fs =
  (* returns the final row c.(j) for j = 0..k; c.(0) = tru *)
  let row = Array.make (k + 1) Formula.fls in
  row.(0) <- Formula.tru;
  List.iter
    (fun x ->
      (* update in place from high column to low so we read row i-1 values *)
      for j = k downto 1 do
        row.(j) <- Formula.or2 row.(j) (Formula.and2 x row.(j - 1))
      done)
    fs;
  row

let at_least k fs =
  if k <= 0 then Formula.tru
  else if k > List.length fs then Formula.fls
  else (counter_row k fs).(k)

let at_most k fs =
  if k < 0 then Formula.fls
  else if k >= List.length fs then Formula.tru
  else Formula.not_ (at_least (k + 1) fs)

let exactly k fs = Formula.and2 (at_least k fs) (at_most k fs)

let compare_const op fs k =
  match op with
  | `Lt -> at_most (k - 1) fs
  | `Le -> at_most k fs
  | `Eq -> exactly k fs
  | `Ne -> Formula.not_ (exactly k fs)
  | `Ge -> at_least k fs
  | `Gt -> at_least (k + 1) fs
