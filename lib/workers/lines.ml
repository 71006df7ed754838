(* See lines.mli.  The buffered bytes are [bytes.[start .. len)], and
   [bytes.[start .. scan)] holds no newline: each byte is scanned once. *)

type t = {
  mutable bytes : Bytes.t;
  mutable start : int;
  mutable scan : int;
  mutable len : int;
}

let create () = { bytes = Bytes.create 1024; start = 0; scan = 0; len = 0 }
let pending t = t.len - t.start

let clear t =
  t.start <- 0;
  t.scan <- 0;
  t.len <- 0

(* Room for [k] more bytes: slide the pending bytes to the front while
   they fill at most half the buffer, else move them to one twice the
   size needed, so every byte is copied a bounded number of times. *)
let add t src off k =
  if t.len + k > Bytes.length t.bytes then begin
    let live = pending t in
    let dst =
      if 2 * (live + k) <= Bytes.length t.bytes then t.bytes
      else Bytes.create (2 * (live + k))
    in
    Bytes.blit t.bytes t.start dst 0 live;
    t.bytes <- dst;
    t.scan <- t.scan - t.start;
    t.start <- 0;
    t.len <- live
  end;
  Bytes.blit src off t.bytes t.len k;
  t.len <- t.len + k

let pop t =
  while t.scan < t.len && Bytes.get t.bytes t.scan <> '\n' do
    t.scan <- t.scan + 1
  done;
  if t.scan = t.len then None
  else begin
    let line = Bytes.sub_string t.bytes t.start (t.scan - t.start) in
    t.start <- t.scan + 1;
    t.scan <- t.start;
    if t.start = t.len then clear t;
    Some line
  end

let write fd line =
  let b = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length b in
  let rec go off = if off < len then go (off + Unix.write fd b off (len - off)) in
  go 0
