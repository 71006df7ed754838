(* The one strict JSON reader/printer.  Recursive descent over a byte
   cursor; failures report the byte offset so callers can answer with a
   positioned error. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Fixed of int * float

exception Fail of int * string

let fail pos msg = raise (Fail (pos, msg))

let int n = Num (float_of_int n)

(* {2 Printing} *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (number_to_string f)
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        vs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'
  | Fixed (decimals, f) ->
      Buffer.add_string buf (Printf.sprintf "%.*f" decimals f)

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* {2 Parsing} *)

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && is_ws s.[!pos] do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail !pos (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail !pos ("expected " ^ word)
  in
  (* encode a \uXXXX escape as UTF-8; surrogate pairs are recombined *)
  let utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail !pos "truncated \\u escape";
    let v =
      try int_of_string ("0x" ^ String.sub s !pos 4)
      with Failure _ -> fail !pos "invalid \\u escape"
    in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail !pos "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            if !pos >= n then fail !pos "unterminated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char buf '"'; incr pos
            | '\\' -> Buffer.add_char buf '\\'; incr pos
            | '/' -> Buffer.add_char buf '/'; incr pos
            | 'b' -> Buffer.add_char buf '\b'; incr pos
            | 'f' -> Buffer.add_char buf '\012'; incr pos
            | 'n' -> Buffer.add_char buf '\n'; incr pos
            | 'r' -> Buffer.add_char buf '\r'; incr pos
            | 't' -> Buffer.add_char buf '\t'; incr pos
            | 'u' ->
                incr pos;
                let cp = hex4 () in
                let cp =
                  if cp >= 0xd800 && cp <= 0xdbff
                     && !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                  then begin
                    pos := !pos + 2;
                    let lo = hex4 () in
                    if lo >= 0xdc00 && lo <= 0xdfff then
                      0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
                    else fail !pos "invalid low surrogate"
                  end
                  else cp
                in
                utf8 buf cp
            | c -> fail !pos (Printf.sprintf "invalid escape '\\%c'" c));
            go ()
        | c when Char.code c < 0x20 -> fail !pos "raw control character in string"
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
      incr pos
    done;
    if peek () = Some '.' then begin
      incr pos;
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
        incr pos
      done
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
          incr pos
        done
    | _ -> ());
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail start "invalid number"
  in
  let rec parse_value depth =
    if depth > 128 then fail !pos "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail !pos "unexpected end of input"
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin incr pos; Obj [] end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; members ()
            | Some '}' -> incr pos
            | _ -> fail !pos "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin incr pos; List [] end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value (depth + 1) in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; elements ()
            | Some ']' -> incr pos
            | _ -> fail !pos "expected ',' or ']'"
          in
          elements ();
          List (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | Some c -> fail !pos (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail !pos "trailing garbage after JSON value";
    v
  with
  | v -> Ok v
  | exception Fail (pos, msg) -> Error (pos, msg)

(* {2 Accessors} *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_num = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List vs -> Some vs | _ -> None

let opt_bind f o = Option.bind o f
let mem_str k v = member k v |> opt_bind to_str
let mem_int k v = member k v |> opt_bind to_int
let mem_num k v = member k v |> opt_bind to_num
let mem_bool k v = member k v |> opt_bind to_bool

(* {2 Named counters} *)

module Counters = struct
  type kind = Counter | Gauge

  (* Keys are appended while the declaring module initializes; the first
     [create] seals the schema, so every set has a slot for every key. *)
  type schema = {
    name : string;
    mutable keys : string array;
    mutable kinds : kind array;
    mutable sealed : bool;
  }

  type key = int
  type t = { schema : schema; v : int array }

  let schema name = { name; keys = [||]; kinds = [||]; sealed = false }

  let declare kind s key =
    let fail why =
      invalid_arg (Printf.sprintf "Counters %s.%s: %s" s.name key why)
    in
    if s.sealed then fail "declared after the schema's first create";
    if Array.mem key s.keys then fail "declared twice";
    s.keys <- Array.append s.keys [| key |];
    s.kinds <- Array.append s.kinds [| kind |];
    Array.length s.keys - 1

  let counter s key = declare Counter s key
  let gauge s key = declare Gauge s key

  let create s =
    s.sealed <- true;
    { schema = s; v = Array.make (Array.length s.keys) 0 }

  let incr t k = t.v.(k) <- t.v.(k) + 1
  let add t k n = t.v.(k) <- t.v.(k) + n
  let set t k n = t.v.(k) <- n
  let get t k = t.v.(k)

  let find t key =
    let rec go i =
      if i = Array.length t.schema.keys then raise Not_found
      else if t.schema.keys.(i) = key then t.v.(i)
      else go (i + 1)
    in
    go 0

  let copy t = { t with v = Array.copy t.v }

  let since ~base t =
    if base.schema != t.schema then
      invalid_arg ("Counters.since: base is not of schema " ^ t.schema.name);
    {
      t with
      v =
        Array.mapi
          (fun i n ->
            match t.schema.kinds.(i) with
            | Counter -> n - base.v.(i)
            | Gauge -> n)
          t.v;
    }

  let name t = t.schema.name

  let bindings t =
    List.init (Array.length t.v) (fun i ->
        (t.schema.keys.(i), t.schema.kinds.(i), t.v.(i)))

  let fields ?(except = []) t =
    List.filter_map
      (fun i ->
        if List.mem i except then None
        else Some (t.schema.keys.(i), int t.v.(i)))
      (List.init (Array.length t.v) Fun.id)

  let to_json t = Obj (fields t)

  (* last: it shadows [Stdlib.max] *)
  let max t k n = if n > t.v.(k) then t.v.(k) <- n
end
