(* The checker keeps its own clause store, assignment array, watch lists and
   trail — nothing is shared with [Solver], so the two implementations can
   only agree by actually agreeing.  There are no decision levels: the trail
   is a root prefix of unit-implied literals, temporarily extended with
   assumed literals during a RUP check and popped back afterwards. *)

type clause = {
  mutable lits : int array;  (* raw literal codes; watch order mutates *)
  key : string;  (* canonical (sorted, deduped) form, for deletion *)
  premise : bool;
  mutable dead : bool;  (* lazily purged from watch lists *)
  mutable watched : bool;
}

let dummy_clause =
  { lits = [||]; key = ""; premise = false; dead = true; watched = false }

type t = {
  mutable nvars : int;
  mutable assigns : int array;  (* per var: -1 unassigned, 1 true, 0 false *)
  mutable watches : clause Vec.t array;  (* indexed by falsified literal *)
  trail : int Vec.t;
  mutable qhead : int;
  mutable conflict : bool;  (* a root conflict is permanent *)
  db : (string, clause list ref) Hashtbl.t;
  mutable premises : int;
  mutable live : int;  (* added (non-premise) clauses not yet deleted *)
}

let create () =
  {
    nvars = 0;
    assigns = [||];
    watches = [||];
    trail = Vec.create ~dummy:0;
    qhead = 0;
    conflict = false;
    db = Hashtbl.create 64;
    premises = 0;
    live = 0;
  }

let ensure_var t v =
  if v >= t.nvars then begin
    let n = max (v + 1) (max 16 (2 * t.nvars)) in
    let assigns = Array.make n (-1) in
    Array.blit t.assigns 0 assigns 0 t.nvars;
    let watches =
      Array.init (2 * n) (fun i ->
          if i < 2 * t.nvars then t.watches.(i)
          else Vec.create ~dummy:dummy_clause)
    in
    t.assigns <- assigns;
    t.watches <- watches;
    t.nvars <- n
  end

let value t l =
  let a = t.assigns.(l lsr 1) in
  if a < 0 then -1 else a lxor (l land 1)

(* [enqueue t l] makes [l] true; [false] means [l] was already false. *)
let enqueue t l =
  match value t l with
  | 1 -> true
  | 0 -> false
  | _ ->
      t.assigns.(l lsr 1) <- 1 lxor (l land 1);
      Vec.push t.trail l;
      true

let propagate t =
  let ok = ref true in
  while !ok && t.qhead < Vec.length t.trail do
    let p = Vec.get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    (* clauses watching [¬p], which just became false *)
    let ws = t.watches.(p) in
    let n = Vec.length ws in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let c = Vec.get ws !i in
      incr i;
      if not c.dead then begin
        let false_lit = p lxor 1 in
        if c.lits.(0) = false_lit then begin
          c.lits.(0) <- c.lits.(1);
          c.lits.(1) <- false_lit
        end;
        if value t c.lits.(0) = 1 then begin
          Vec.set ws !j c;
          incr j
        end
        else begin
          let len = Array.length c.lits in
          let k = ref 2 in
          while !k < len && value t c.lits.(!k) = 0 do
            incr k
          done;
          if !k < len then begin
            (* found a non-false replacement watch *)
            c.lits.(1) <- c.lits.(!k);
            c.lits.(!k) <- false_lit;
            Vec.push t.watches.(c.lits.(1) lxor 1) c
          end
          else begin
            (* unit under the current assignment, or conflicting *)
            Vec.set ws !j c;
            incr j;
            if not (enqueue t c.lits.(0)) then begin
              ok := false;
              while !i < n do
                Vec.set ws !j (Vec.get ws !i);
                incr j;
                incr i
              done
            end
          end
        end
      end
    done;
    Vec.shrink ws !j
  done;
  !ok

let undo_to t save =
  while Vec.length t.trail > save do
    let l = Vec.pop t.trail in
    t.assigns.(l lsr 1) <- -1
  done;
  t.qhead <- save

(* Sorted, deduplicated literal codes: the identity of a clause. *)
let norm lits =
  let a = Array.map Lit.to_int lits in
  Array.sort compare a;
  let n = Array.length a in
  if n <= 1 then a
  else begin
    let j = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!j - 1) then begin
        a.(!j) <- a.(i);
        incr j
      end
    done;
    Array.sub a 0 !j
  end

let key_of a =
  let b = Buffer.create (4 * Array.length a) in
  Array.iter
    (fun l ->
      Buffer.add_string b (string_of_int l);
      Buffer.add_char b ' ')
    a;
  Buffer.contents b

(* Installs a clause the store must honour from now on.  Root-satisfied
   clauses can never propagate (root assignments are permanent) and are only
   registered for deletion lookups; root-unit clauses extend the root trail;
   everything else gets two non-false watches. *)
let ingest t lits ~key ~premise =
  let c = { lits; key; premise; dead = false; watched = false } in
  (match Hashtbl.find_opt t.db key with
  | Some r -> r := c :: !r
  | None -> Hashtbl.add t.db key (ref [ c ]));
  if premise then t.premises <- t.premises + 1 else t.live <- t.live + 1;
  if not t.conflict then begin
    let sat = ref false and nonfalse = ref 0 in
    Array.iter
      (fun l ->
        match value t l with
        | 1 -> sat := true
        | -1 -> incr nonfalse
        | _ -> ())
      lits;
    if !sat then ()
    else if !nonfalse = 0 then t.conflict <- true
    else if !nonfalse = 1 then begin
      let u = ref lits.(0) in
      Array.iter (fun l -> if value t l = -1 then u := l) lits;
      ignore (enqueue t !u);
      if not (propagate t) then t.conflict <- true
    end
    else begin
      let pos = ref 0 in
      Array.iteri
        (fun k l ->
          if !pos < 2 && value t l <> 0 then begin
            lits.(k) <- lits.(!pos);
            lits.(!pos) <- l;
            incr pos
          end)
        lits;
      c.watched <- true;
      Vec.push t.watches.(lits.(0) lxor 1) c;
      Vec.push t.watches.(lits.(1) lxor 1) c
    end
  end

let add_premise t lits =
  let a = norm lits in
  Array.iter (fun l -> ensure_var t (l lsr 1)) a;
  ingest t a ~key:(key_of a) ~premise:true

(* Reverse unit propagation: is [lits] implied by the current store?  Assume
   every literal false, propagate, demand a conflict.  A clause with a
   root-true literal is subsumed by a derived unit, hence implied. *)
let rup t lits =
  t.conflict
  ||
  if Array.exists (fun l -> value t l = 1) lits then true
  else begin
    let save = Vec.length t.trail in
    let confl = ref false in
    Array.iter
      (fun l -> if (not !confl) && not (enqueue t (l lxor 1)) then confl := true)
      lits;
    let implied = !confl || not (propagate t) in
    undo_to t save;
    implied
  end

let refutes t assumptions =
  t.conflict
  ||
  let save = Vec.length t.trail in
  let confl = ref false in
  List.iter
    (fun l ->
      if (not !confl) && not (enqueue t (Lit.to_int l)) then confl := true)
    assumptions;
  let refuted = !confl || not (propagate t) in
  undo_to t save;
  refuted

let apply t step =
  match step with
  | Proof.Add lits ->
      let a = norm lits in
      Array.iter (fun l -> ensure_var t (l lsr 1)) a;
      if rup t a then begin
        ingest t a ~key:(key_of a) ~premise:false;
        Ok ()
      end
      else
        Error
          (Format.asprintf "clause is not RUP: %a" Proof.pp_step (Proof.Add lits))
  | Proof.Delete lits -> (
      let key = key_of (norm lits) in
      match Hashtbl.find_opt t.db key with
      | None | Some { contents = [] } ->
          Error
            (Format.asprintf "delete of unknown clause: %a" Proof.pp_step
               (Proof.Delete lits))
      | Some r ->
          let c = List.hd !r in
          r := List.tl !r;
          if c.watched then c.dead <- true;
          if c.premise then t.premises <- t.premises - 1
          else t.live <- t.live - 1;
          Ok ())

let check ?(assumptions = []) ?(require_conflict = true) ~premises steps =
  let t = create () in
  List.iter (add_premise t) premises;
  let rec go i steps =
    match steps () with
    | Seq.Nil ->
        if (not require_conflict) || refutes t assumptions then Ok ()
        else Error "proof does not derive a conflict"
    | Seq.Cons (s, rest) -> (
        match apply t s with
        | Ok () -> go (i + 1) rest
        | Error e -> Error (Printf.sprintf "step %d: %s" i e))
  in
  go 1 steps

let check_file ?assumptions ?require_conflict ~cnf ~format path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let premises = List.map Array.of_list cnf.Dimacs.clauses in
          try
            check ?assumptions ?require_conflict ~premises
              (Proof.read_steps format ic)
          with Proof.Parse_error e -> Error e)
