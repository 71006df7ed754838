(* The checkpoint manifest: a one-line JSON file recording which row
   ranges of a streamed run are complete.  Writes are atomic
   (write-then-rename); reads are strict (anything we would not have
   written ourselves raises [Corrupt]). *)

type t = {
  fingerprint : string;
  total : int;
  completed : (int * int) list;
}

exception Corrupt of string

let version = 1

let path ~dir = Filename.concat dir "manifest.json"

let create ~fingerprint ~total = { fingerprint; total; completed = [] }

(* {2 Ranges} *)

let rows_done t =
  List.fold_left (fun n (lo, hi) -> n + (hi - lo)) 0 t.completed

let is_complete t = rows_done t = t.total

let add t ~lo ~hi =
  if lo < 0 || hi > t.total || lo >= hi then
    invalid_arg
      (Printf.sprintf "Manifest.add: bad range [%d, %d) of %d" lo hi t.total);
  (* insert sorted; ranges stay 1:1 with the result shards on disk, so
     no coalescing — [shard_<lo>_<hi>.res] exists iff [(lo, hi)] does *)
  let rec insert = function
    | [] -> [ (lo, hi) ]
    | (a, b) :: rest when hi <= a -> (lo, hi) :: (a, b) :: rest
    | (a, b) :: rest when b <= lo -> (a, b) :: insert rest
    | (a, b) :: _ ->
        invalid_arg
          (Printf.sprintf "Manifest.add: [%d, %d) overlaps completed [%d, %d)"
             lo hi a b)
  in
  { t with completed = insert t.completed }

let pending t =
  let rec gaps cursor = function
    | [] -> if cursor < t.total then [ (cursor, t.total) ] else []
    | (lo, hi) :: rest ->
        if cursor < lo then (cursor, lo) :: gaps hi rest else gaps hi rest
  in
  gaps 0 t.completed

(* {2 Serialization}

   Both directions go through the one JSON codec.  A file is decoded with
   [Json.parse], matched against the fixed four-key shape, checked, and
   then re-encoded: unless [to_json] of the decoded manifest is exactly the
   file's bytes (one trailing newline aside), the file is not something
   [save] wrote, and it is [Corrupt].  That canonical-form check rejects
   whitespace, reordered or extra keys, [8.0] for [8], and integers the
   codec cannot carry exactly. *)

module Json = Specrepair_json

let to_json t =
  Json.to_string
    (Json.Obj
       [
         ("specrepair_manifest", Json.int version);
         ("fingerprint", Json.Str t.fingerprint);
         ("total", Json.int t.total);
         ( "completed",
           Json.List
             (List.map
                (fun (lo, hi) -> Json.List [ Json.int lo; Json.int hi ])
                t.completed) );
       ])

let save ~dir t =
  let final = path ~dir in
  let tmp = final ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (to_json t);
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp final

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

let int what v =
  match Json.to_int v with
  | Some n -> n
  | None -> corrupt "%s is not an integer" what

let range = function
  | Json.List [ lo; hi ] -> (int "range start" lo, int "range end" hi)
  | _ -> corrupt "a completed range is not a [lo,hi] pair"

(* every manifest opens with its version key: anything else is not one *)
let magic = "{\"specrepair_manifest\":"

let of_json text =
  if not (String.starts_with ~prefix:magic text) then
    corrupt "expected %S (at byte 0)" magic;
  let t =
    match Json.parse text with
    | Error (pos, msg) -> corrupt "%s (at byte %d)" msg pos
    | Ok
        (Json.Obj
          [
            ("specrepair_manifest", v);
            ("fingerprint", Json.Str fingerprint);
            ("total", total);
            ("completed", Json.List ranges);
          ]) ->
        let v = int "version" v in
        if v <> version then
          corrupt "unknown manifest version %d (want %d)" v version;
        let total = int "total" total in
        if total < 0 then corrupt "negative total";
        { fingerprint; total; completed = List.map range ranges }
    | Ok _ ->
        corrupt
          "not a manifest object {specrepair_manifest, fingerprint, total, \
           completed}"
  in
  let rec check prev = function
    | [] -> ()
    | (lo, hi) :: rest ->
        if lo < 0 || hi > t.total || lo >= hi then
          corrupt "malformed range [%d, %d) of %d" lo hi t.total;
        if lo < prev then
          corrupt "ranges unsorted or overlapping at [%d, %d)" lo hi;
        check hi rest
  in
  check 0 t.completed;
  let canonical = to_json t in
  if text <> canonical && text <> canonical ^ "\n" then
    corrupt "not in the form save writes";
  t

let load ~dir =
  let p = path ~dir in
  let text =
    match open_in_bin p with
    | exception Sys_error msg -> raise (Corrupt ("cannot read manifest: " ^ msg))
    | ic ->
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
  in
  try of_json text
  with Corrupt msg -> raise (Corrupt (Printf.sprintf "%s: %s" p msg))

let () =
  Printexc.register_printer (function
    | Corrupt msg -> Some ("Manifest.Corrupt: " ^ msg)
    | _ -> None)
