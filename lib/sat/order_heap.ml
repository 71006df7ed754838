type t = {
  heap : int Vec.t; (* heap of variable indices *)
  indices : int Vec.t; (* variable -> position in [heap], -1 if absent *)
  activity : int -> float;
}

let create ~activity =
  { heap = Vec.create ~dummy:(-1); indices = Vec.create ~dummy:(-1); activity }

let ensure t v =
  while Vec.length t.indices <= v do
    Vec.push t.indices (-1)
  done

let in_heap t v = v < Vec.length t.indices && Vec.get t.indices v >= 0
let is_empty t = Vec.is_empty t.heap
let size t = Vec.length t.heap
let left i = (2 * i) + 1
let right i = (2 * i) + 2
let parent i = (i - 1) / 2

let place t v i =
  Vec.set t.heap i v;
  Vec.set t.indices v i

let rec sift_up t i =
  if i > 0 then begin
    let v = Vec.get t.heap i in
    let p = parent i in
    let pv = Vec.get t.heap p in
    if t.activity v > t.activity pv then begin
      place t pv i;
      place t v p;
      sift_up t p
    end
  end

let rec sift_down t i =
  let n = Vec.length t.heap in
  let l = left i and r = right i in
  let best = ref i in
  if l < n && t.activity (Vec.get t.heap l) > t.activity (Vec.get t.heap !best)
  then best := l;
  if r < n && t.activity (Vec.get t.heap r) > t.activity (Vec.get t.heap !best)
  then best := r;
  if !best <> i then begin
    let v = Vec.get t.heap i and bv = Vec.get t.heap !best in
    place t bv i;
    place t v !best;
    sift_down t !best
  end

let insert t v =
  ensure t v;
  if not (in_heap t v) then begin
    Vec.push t.heap v;
    Vec.set t.indices v (Vec.length t.heap - 1);
    sift_up t (Vec.length t.heap - 1)
  end

let increase t v = if in_heap t v then sift_up t (Vec.get t.indices v)

let remove_max t =
  if is_empty t then raise Not_found;
  let top = Vec.get t.heap 0 in
  let last = Vec.pop t.heap in
  Vec.set t.indices top (-1);
  if not (Vec.is_empty t.heap) then begin
    place t last 0;
    sift_down t 0
  end;
  top
