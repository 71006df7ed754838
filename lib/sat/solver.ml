(* CDCL solver.  Literals are stored as raw ints (see {!Lit}); variable
   assignment codes are -1 = unassigned, 0 = false, 1 = true. *)

type clause = {
  mutable lits : int array; (* watched literals at positions 0 and 1 *)
  mutable activity : float;
  learnt : bool;
}

let dummy_clause = { lits = [||]; activity = 0.; learnt = false }

type t = {
  mutable nvars : int;
  clauses : clause Vec.t;
  learnts : clause Vec.t;
  mutable watches : clause Vec.t array; (* indexed by literal encoding *)
  mutable assigns : int array; (* per var *)
  mutable level : int array; (* per var *)
  mutable reason : clause array; (* per var; dummy_clause = none *)
  mutable activity : float array; (* per var *)
  mutable polarity : bool array; (* saved phase, per var *)
  mutable seen : bool array; (* scratch for analyze, per var *)
  trail : int Vec.t; (* assigned literals in order *)
  trail_lim : int Vec.t; (* decision-level boundaries in [trail] *)
  mutable qhead : int;
  order : Order_heap.t;
  mutable var_inc : float;
  mutable clause_inc : float;
  mutable ok : bool;
  mutable root_level : int;
  mutable conflict_assumps : int list;
      (* assumptions involved in the last assumption-level Unsat *)
  mutable proof : Proof.sink option;
  (* statistics *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable reductions : int;
}

type result = Sat | Unsat | Unknown

let var_decay = 1. /. 0.95
let restart_base = 100. (* conflicts per Luby restart unit *)
let clause_decay = 1. /. 0.999

let create () =
  let rec s =
    lazy
      {
        nvars = 0;
        clauses = Vec.create ~dummy:dummy_clause;
        learnts = Vec.create ~dummy:dummy_clause;
        watches = [||];
        assigns = [||];
        level = [||];
        reason = [||];
        activity = [||];
        polarity = [||];
        seen = [||];
        trail = Vec.create ~dummy:0;
        trail_lim = Vec.create ~dummy:0;
        qhead = 0;
        order = Order_heap.create ~activity:(fun v -> (Lazy.force s).activity.(v));
        var_inc = 1.;
        clause_inc = 1.;
        ok = true;
        root_level = 0;
        conflict_assumps = [];
        proof = None;
        conflicts = 0;
        decisions = 0;
        propagations = 0;
        restarts = 0;
        reductions = 0;
      }
  in
  Lazy.force s

let n_vars s = s.nvars
let ok s = s.ok
let n_conflicts s = s.conflicts
let n_decisions s = s.decisions
let n_propagations s = s.propagations
let n_clauses s = Vec.length s.clauses
let n_learnts s = Vec.length s.learnts
let n_restarts s = s.restarts
let n_reductions s = s.reductions

(* {2 Proof logging}

   With no sink installed every emission point is a single [None] test; the
   solver's data structures and control flow are otherwise identical.  The
   solver mutates clause literal arrays in place (watch reordering), so
   every emission copies. *)

let set_proof s sink = s.proof <- sink

let emit_input s lits =
  match s.proof with
  | None -> ()
  | Some sink -> sink (Proof.Input (Array.of_list lits))

let emit_derived s (lits : int array) =
  match s.proof with
  | None -> ()
  | Some sink -> sink (Proof.Step (Proof.Add (Array.map Lit.of_int lits)))

let emit_deleted s (lits : int array) =
  match s.proof with
  | None -> ()
  | Some sink -> sink (Proof.Step (Proof.Delete (Array.map Lit.of_int lits)))

let grow_arrays s n =
  let cap = Array.length s.assigns in
  if n > cap then begin
    let cap' = max n (max 16 (2 * cap)) in
    let extend a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    s.assigns <- extend s.assigns (-1);
    s.level <- extend s.level 0;
    s.reason <- extend s.reason dummy_clause;
    s.activity <- extend s.activity 0.;
    s.polarity <- extend s.polarity false;
    s.seen <- extend s.seen false;
    let w = Array.init (2 * cap') (fun i ->
        if i < Array.length s.watches then s.watches.(i)
        else Vec.create ~dummy:dummy_clause)
    in
    s.watches <- w
  end

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  grow_arrays s s.nvars;
  Order_heap.insert s.order v;
  v

let new_vars s n =
  if n < 0 then invalid_arg "Solver.new_vars";
  let first = s.nvars in
  s.nvars <- first + n;
  grow_arrays s s.nvars;
  for v = first to s.nvars - 1 do
    Order_heap.insert s.order v
  done;
  first

(* Literal valuation: 1 true, 0 false, -1 unassigned. *)
let value_lit s l =
  let a = s.assigns.(l lsr 1) in
  if a < 0 then -1 else a lxor (l land 1)

let decision_level s = Vec.length s.trail_lim

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  Order_heap.increase s.order v

let clause_bump s (c : clause) =
  c.activity <- c.activity +. s.clause_inc;
  if c.activity > 1e20 then begin
    Vec.iter (fun (c : clause) -> c.activity <- c.activity *. 1e-20) s.learnts;
    s.clause_inc <- s.clause_inc *. 1e-20
  end

let enqueue s l reason =
  let v = l lsr 1 in
  s.assigns.(v) <- 1 lxor (l land 1);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  Vec.push s.trail l

let attach s (c : clause) =
  Vec.push s.watches.(c.lits.(0) lxor 1) c;
  Vec.push s.watches.(c.lits.(1) lxor 1) c

let detach s (c : clause) =
  let remove ws =
    let rec find i = if Vec.get ws i == c then i else find (i + 1) in
    Vec.swap_remove ws (find 0)
  in
  remove s.watches.(c.lits.(0) lxor 1);
  remove s.watches.(c.lits.(1) lxor 1)

(* Undo all assignments above [lvl]. *)
let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    while Vec.length s.trail > bound do
      let l = Vec.pop s.trail in
      let v = l lsr 1 in
      s.polarity.(v) <- s.assigns.(v) = 1;
      s.assigns.(v) <- -1;
      s.reason.(v) <- dummy_clause;
      Order_heap.insert s.order v
    done;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- Vec.length s.trail
  end

(* Unit propagation; returns the conflicting clause if any. *)
let propagate s =
  let conflict = ref dummy_clause in
  while !conflict == dummy_clause && s.qhead < Vec.length s.trail do
    let p = Vec.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let ws = s.watches.(p) in
    let false_lit = p lxor 1 in
    let i = ref 0 and j = ref 0 in
    let n = Vec.length ws in
    while !i < n do
      let c = Vec.get ws !i in
      incr i;
      if c.lits.(0) = false_lit then begin
        c.lits.(0) <- c.lits.(1);
        c.lits.(1) <- false_lit
      end;
      if value_lit s c.lits.(0) = 1 then begin
        (* satisfied: keep the watch *)
        Vec.set ws !j c;
        incr j
      end
      else begin
        (* look for a replacement watch *)
        let len = Array.length c.lits in
        let k = ref 2 in
        while !k < len && value_lit s c.lits.(!k) = 0 do
          incr k
        done;
        if !k < len then begin
          c.lits.(1) <- c.lits.(!k);
          c.lits.(!k) <- false_lit;
          Vec.push s.watches.(c.lits.(1) lxor 1) c
        end
        else begin
          (* unit or conflicting *)
          Vec.set ws !j c;
          incr j;
          if value_lit s c.lits.(0) = 0 then begin
            conflict := c;
            s.qhead <- Vec.length s.trail;
            while !i < n do
              Vec.set ws !j (Vec.get ws !i);
              incr i;
              incr j
            done
          end
          else enqueue s c.lits.(0) c
        end
      end
    done;
    Vec.shrink ws !j
  done;
  if !conflict == dummy_clause then None else Some !conflict

(* First-UIP conflict analysis.  Returns the learnt clause (asserting literal
   first) and the backtrack level. *)
let analyze s confl =
  let learnt = Vec.create ~dummy:0 in
  Vec.push learnt 0;
  (* placeholder for the asserting literal *)
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let index = ref (Vec.length s.trail - 1) in
  let btlevel = ref 0 in
  let continue = ref true in
  while !continue do
    let c = !confl in
    if c.learnt then clause_bump s c;
    let start = if !p = -1 then 0 else 1 in
    for k = start to Array.length c.lits - 1 do
      let q = c.lits.(k) in
      let v = q lsr 1 in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        var_bump s v;
        if s.level.(v) >= decision_level s then incr counter
        else begin
          Vec.push learnt q;
          if s.level.(v) > !btlevel then btlevel := s.level.(v)
        end
      end
    done;
    (* walk the trail back to the next marked literal *)
    let rec next () =
      let l = Vec.get s.trail !index in
      decr index;
      if s.seen.(l lsr 1) then l else next ()
    in
    let l = next () in
    p := l;
    confl := s.reason.(l lsr 1);
    s.seen.(l lsr 1) <- false;
    decr counter;
    if !counter = 0 then continue := false
  done;
  Vec.set learnt 0 (!p lxor 1);
  Vec.iter (fun l -> s.seen.(l lsr 1) <- false) learnt;
  (learnt, !btlevel)

(* MiniSat-style analyzeFinal: given seeds already marked in [s.seen]
   (variables of a conflicting clause, or of a falsified assumption), walk
   the trail backwards resolving reasons and collect the assumption
   decisions involved.  Only meaningful while the trail still holds the
   assumption levels; assumptions are exactly the reason-less (decision)
   literals at levels 1..root_level. *)
let collect_assumption_core s ~extra =
  if decision_level s = 0 then extra
    (* no assumption levels: nothing was marked (only level-0 vars exist) *)
  else begin
    let core = ref extra in
    let bottom = Vec.get s.trail_lim 0 in
    for i = Vec.length s.trail - 1 downto bottom do
      let q = Vec.get s.trail i in
      let v = q lsr 1 in
      if s.seen.(v) then begin
        if s.reason.(v) == dummy_clause then core := q :: !core
        else
          Array.iter
            (fun r ->
              let w = r lsr 1 in
              if s.level.(w) > 0 then s.seen.(w) <- true)
            s.reason.(v).lits;
        s.seen.(v) <- false
      end
    done;
    !core
  end

(* Core when a whole clause is falsified under the assumptions. *)
let analyze_final_clause s (c : clause) =
  Array.iter
    (fun l ->
      let v = l lsr 1 in
      if s.level.(v) > 0 then s.seen.(v) <- true)
    c.lits;
  collect_assumption_core s ~extra:[]

(* Core when assumption literal [l] is already false on the trail. *)
let analyze_final_lit s l =
  let v = l lsr 1 in
  if s.level.(v) > 0 then s.seen.(v) <- true;
  collect_assumption_core s ~extra:[ l ]

(* Install a learnt clause and enqueue its asserting literal. *)
let record s learnt =
  let lits = Array.make (Vec.length learnt) 0 in
  Vec.iter
    (let i = ref 0 in
     fun l ->
       lits.(!i) <- l;
       incr i)
    learnt;
  emit_derived s lits;
  if Array.length lits = 1 then enqueue s lits.(0) dummy_clause
  else begin
    (* watch the asserting literal and a literal of the backtrack level *)
    let maxi = ref 1 in
    for k = 2 to Array.length lits - 1 do
      if s.level.(lits.(k) lsr 1) > s.level.(lits.(!maxi) lsr 1) then maxi := k
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!maxi);
    lits.(!maxi) <- tmp;
    let c = { lits; activity = 0.; learnt = true } in
    clause_bump s c;
    Vec.push s.learnts c;
    attach s c;
    enqueue s lits.(0) c
  end

let locked s (c : clause) =
  Array.length c.lits > 0
  && s.reason.(c.lits.(0) lsr 1) == c
  && value_lit s c.lits.(0) = 1

(* Drop roughly half of the learnt clauses, by activity. *)
let reduce_db s =
  s.reductions <- s.reductions + 1;
  let n = Vec.length s.learnts in
  let arr = Array.init n (Vec.get s.learnts) in
  Array.sort (fun (a : clause) (b : clause) -> compare a.activity b.activity) arr;
  Vec.clear s.learnts;
  Array.iteri
    (fun i c ->
      if (i >= n / 2 && Array.length c.lits > 0) || locked s c || Array.length c.lits <= 2
      then Vec.push s.learnts c
      else begin
        emit_deleted s c.lits;
        detach s c
      end)
    arr

(* In a sorted, duplicate-free literal list a complementary pair, [2v]
   and [2v + 1], is adjacent. *)
let rec complementary = function
  | a :: (b :: _ as rest) -> a lxor 1 = b || complementary rest
  | [] | [ _ ] -> false

let add_clause s lits =
  if s.ok then begin
    emit_input s lits;
    cancel_until s 0;
    let lits = List.map Lit.to_int lits in
    let lits = List.sort_uniq Int.compare lits in
    let tautology =
      complementary lits || List.exists (fun l -> value_lit s l = 1) lits
    in
    if not tautology then begin
      let lits = List.filter (fun l -> value_lit s l <> 0) lits in
      match lits with
      | [] ->
          emit_derived s [||];
          s.ok <- false
      | [ l ] ->
          enqueue s l dummy_clause;
          if propagate s <> None then begin
            emit_derived s [||];
            s.ok <- false
          end
      | _ ->
          let c = { lits = Array.of_list lits; activity = 0.; learnt = false } in
          Vec.push s.clauses c;
          attach s c
    end
  end

let pick_branch s =
  let rec loop () =
    if Order_heap.is_empty s.order then None
    else
      let v = Order_heap.remove_max s.order in
      if s.assigns.(v) < 0 then Some v else loop ()
  in
  loop ()

(* Luby restart sequence. *)
let rec luby y x =
  (* find the finite subsequence containing x, and its position *)
  let rec size_seq sz seq = if sz < x + 1 then size_seq ((2 * sz) + 1) (seq + 1) else (sz, seq) in
  let sz, seq = size_seq 1 0 in
  if sz - 1 = x then y ** float_of_int seq
  else luby y (x - ((sz - 1) / 2))

exception Found of result

let search s ~max_learnts ~restart_budget ~conflict_limit =
  let conflicts_here = ref 0 in
  try
    while true do
      match propagate s with
      | Some confl ->
          s.conflicts <- s.conflicts + 1;
          incr conflicts_here;
          (match conflict_limit with
          | Some b when s.conflicts >= b && decision_level s > s.root_level ->
              cancel_until s s.root_level;
              raise (Found Unknown)
          | _ -> ());
          if decision_level s <= s.root_level then begin
            (* conflict within the assumption levels: this call is Unsat,
               but the clause set itself may still be satisfiable *)
            if s.root_level > 0 then begin
              s.conflict_assumps <- analyze_final_clause s confl;
              emit_derived s
                (Array.of_list
                   (List.map (fun l -> l lxor 1) s.conflict_assumps))
            end
            else begin
              (* a conflict at level 0 is permanent: without this, a
                 re-solve would find the queue already drained and miss
                 the conflict entirely *)
              emit_derived s [||];
              s.ok <- false
            end;
            raise (Found Unsat)
          end;
          let learnt, btlevel = analyze s confl in
          cancel_until s (max btlevel s.root_level);
          record s learnt;
          s.var_inc <- s.var_inc *. var_decay;
          s.clause_inc <- s.clause_inc *. clause_decay
      | None ->
          if float_of_int (Vec.length s.learnts) >= !max_learnts then begin
            reduce_db s;
            (* grow the limit per reduction, not per restart: Luby restarts
               are frequent enough that a per-restart growth outruns the
               learnt count and the database is never reduced at all *)
            max_learnts := !max_learnts *. 1.1
          end;
          if !conflicts_here >= restart_budget && decision_level s > s.root_level
          then begin
            s.restarts <- s.restarts + 1;
            cancel_until s s.root_level;
            raise (Found Unknown) (* caller treats Unknown as "restart" *)
          end;
          (match pick_branch s with
          | None -> raise (Found Sat)
          | Some v ->
              s.decisions <- s.decisions + 1;
              Vec.push s.trail_lim (Vec.length s.trail);
              enqueue s (Lit.to_int (Lit.make v s.polarity.(v))) dummy_clause)
    done;
    assert false
  with Found r -> r

let solve ?(assumptions = []) ?max_conflicts s =
  s.conflict_assumps <- [];
  if not s.ok then Unsat
  else begin
    cancel_until s 0;
    if propagate s <> None then begin
      emit_derived s [||];
      s.ok <- false;
      Unsat
    end
    else begin
      (* the budget is local to this call: learnt clauses (and the conflict
         counter) persist across calls, so an incremental client must not
         have earlier calls eat later calls' budgets *)
      let conflict_limit = Option.map (fun b -> s.conflicts + b) max_conflicts in
      (* enqueue assumptions, one pseudo-decision level each *)
      let assumption_core core =
        s.conflict_assumps <- core;
        emit_derived s (Array.of_list (List.map (fun l -> l lxor 1) core));
        false
      in
      let rec assume = function
        | [] -> true
        | a :: rest -> (
            let l = Lit.to_int a in
            match value_lit s l with
            | 1 -> assume rest
            | 0 -> assumption_core (analyze_final_lit s l)
            | _ -> (
                Vec.push s.trail_lim (Vec.length s.trail);
                enqueue s l dummy_clause;
                match propagate s with
                | None -> assume rest
                | Some confl ->
                    assumption_core (analyze_final_clause s confl)))
      in
      if not (assume assumptions) then begin
        cancel_until s 0;
        Unsat
      end
      else begin
        s.root_level <- decision_level s;
        let max_learnts = ref (max 1000. (float_of_int (n_clauses s) /. 3.)) in
        let result = ref Unknown in
        let restart = ref 0 in
        (try
           while !result = Unknown do
             (match conflict_limit with
             | Some b when s.conflicts >= b -> raise Exit
             | _ -> ());
             let restart_budget =
               int_of_float (restart_base *. luby 2. !restart)
             in
             incr restart;
             result := search s ~max_learnts ~restart_budget ~conflict_limit
           done
         with Exit -> result := Unknown);
        let r = !result in
        if r <> Sat then cancel_until s 0;
        s.root_level <- 0;
        r
      end
    end
  end

let unsat_assumptions s = List.map Lit.of_int s.conflict_assumps

let value s v = if v < s.nvars then s.assigns.(v) = 1 else false
let lit_value s l = value_lit s (Lit.to_int l) = 1
let model s = Array.init s.nvars (fun v -> s.assigns.(v) = 1)
