(* Hard-instance CNF generators shared by the benchmark harness, the test
   suite and the fuzz corpus.  Everything here is deterministic: the random
   families use a local xorshift state seeded by the caller, never the
   global [Random], so the same seed yields the same instance on every
   run and OCaml version. *)

(* xorshift64*; good enough to scatter clauses, cheap, dependency-free *)
type rng = { mutable state : int64 }

let rng_create seed =
  { state = Int64.of_int (if seed = 0 then 0x9E3779B9 else seed) }

let rng_next r =
  let x = r.state in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  r.state <- x;
  Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x2545F4914F6CDD1DL) 2)

let rng_int r bound = if bound <= 1 then 0 else rng_next r mod bound
let rng_bool r = rng_next r land 1 = 1

let pigeonhole n =
  if n < 1 then invalid_arg "Hard_cnf.pigeonhole";
  (* variable [p*n + h] means pigeon [p] sits in hole [h] *)
  let var ~pigeon ~hole = (pigeon * n) + hole in
  let num_vars = (n + 1) * n in
  let pigeon_clauses =
    List.init (n + 1) (fun p ->
        List.init n (fun h -> Lit.pos (var ~pigeon:p ~hole:h)))
  in
  let hole_clauses = ref [] in
  for h = n - 1 downto 0 do
    for p = n downto 0 do
      for q = n downto p + 1 do
        hole_clauses :=
          [ Lit.neg (var ~pigeon:p ~hole:h); Lit.neg (var ~pigeon:q ~hole:h) ]
          :: !hole_clauses
      done
    done
  done;
  { Dimacs.num_vars; clauses = pigeon_clauses @ !hole_clauses }

let random_3sat ~seed ~num_vars ~num_clauses =
  if num_vars < 3 then invalid_arg "Hard_cnf.random_3sat";
  let r = rng_create seed in
  let clause () =
    let rec distinct acc k =
      if k = 0 then acc
      else
        let v = rng_int r num_vars in
        if List.mem v acc then distinct acc k
        else distinct (v :: acc) (k - 1)
    in
    List.map (fun v -> Lit.make v (rng_bool r)) (distinct [] 3)
  in
  { Dimacs.num_vars; clauses = List.init num_clauses (fun _ -> clause ()) }
