open Specrepair_sat

type result = Sat of bool array | Unsat

let chaos_clauses clauses =
  match Sys.getenv_opt "SPECREPAIR_FUZZ_CHAOS" with
  | Some "drop-clause" -> (
      match List.rev clauses with [] -> [] | _ :: rest -> List.rev rest)
  | _ -> clauses

(* Assignment cells: 0 unassigned, 1 true, -1 false. *)
let value_of assign l =
  match assign.(Lit.var l) with
  | 0 -> None
  | v -> Some (if Lit.sign l then v > 0 else v < 0)

let assign_lit assign l =
  assign.(Lit.var l) <- (if Lit.sign l then 1 else -1)

(* One pass of unit propagation; [`Conflict], [`Fixpoint], or [`Progress]. *)
let propagate_once assign clauses =
  let progress = ref false in
  let conflict = ref false in
  List.iter
    (fun clause ->
      if not !conflict then begin
        let satisfied = List.exists (fun l -> value_of assign l = Some true) clause in
        if not satisfied then
          match List.filter (fun l -> value_of assign l = None) clause with
          | [] -> conflict := true
          | [ unit_lit ] ->
              assign_lit assign unit_lit;
              progress := true
          | _ -> ()
      end)
    clauses;
  if !conflict then `Conflict else if !progress then `Progress else `Fixpoint

let rec propagate assign clauses =
  match propagate_once assign clauses with
  | `Conflict -> false
  | `Fixpoint -> true
  | `Progress -> propagate assign clauses

let rec dpll assign clauses n =
  if not (propagate assign clauses) then None
  else
    let rec first_unassigned v = if v >= n then None else if assign.(v) = 0 then Some v else first_unassigned (v + 1) in
    match first_unassigned 0 with
    | None -> Some assign
    | Some v ->
        let try_branch sign =
          let branch = Array.copy assign in
          branch.(v) <- (if sign then 1 else -1);
          dpll branch clauses n
        in
        (match try_branch true with
        | Some m -> Some m
        | None -> try_branch false)

let solve ?(assumptions = []) (cnf : Dimacs.cnf) =
  let clauses = chaos_clauses cnf.Dimacs.clauses in
  let n = cnf.Dimacs.num_vars in
  (* assumptions may name variables beyond the clause set *)
  let width =
    List.fold_left (fun w l -> max w (Lit.var l + 1)) (max n 1) assumptions
  in
  let assign = Array.make width 0 in
  let contradictory =
    List.exists
      (fun l ->
        match value_of assign l with
        | Some false -> true
        | _ ->
            assign_lit assign l;
            false)
      assumptions
  in
  if contradictory then Unsat
  else
    match dpll assign clauses width with
    | None -> Unsat
    | Some m -> Sat (Array.map (fun v -> v > 0) (Array.sub m 0 (max n 1)))

