(* Positioned diagnostics for the frontend: lexing, parsing, elaboration
   and type checking all report through this one type, replacing the old
   stringly [Parse_error of string].

   A diagnostic renders as a compiler-style message with a caret line:

     specs/graph.als:6:21: error: unknown name 'edgez'
       6 |   no n: Node | n in n.^edgez
         |                        ^^^^^
       note: in fact Acyclic *)

type severity = Error | Warning

type t = {
  severity : severity;
  span : Loc.span;
  message : string;
  notes : string list;
}

let severity_to_string = function Error -> "error" | Warning -> "warning"

let error ?(notes = []) span fmt =
  Format.kasprintf (fun message -> { severity = Error; span; message; notes }) fmt

let warning ?(notes = []) span fmt =
  Format.kasprintf (fun message -> { severity = Warning; span; message; notes }) fmt

exception Error of t
(** Raised by {!Lexer}, {!Parser} and {!Elab} on malformed input. *)

let fail ?notes span fmt =
  Format.kasprintf
    (fun message -> raise (Error (error ?notes span "%s" message)))
    fmt

(* {2 Rendering} *)

let nth_line source n =
  let rec go i line start =
    if line = n then
      let stop =
        match String.index_from_opt source start '\n' with
        | Some j -> j
        | None -> String.length source
      in
      Some (String.sub source start (stop - start))
    else
      match String.index_from_opt source i '\n' with
      | Some j -> go (j + 1) (line + 1) (j + 1)
      | None -> None
  in
  if n < 1 then None else go 0 1 0

(* The caret line under the source excerpt: spans within one line are
   underlined exactly; multi-line spans are underlined to the end of
   their first line.  Tabs in the excerpt are widened to one column. *)
let caret_line text span =
  let width = String.length text in
  let start = max 0 (span.Loc.start_col - 1) in
  let stop =
    if span.Loc.end_line = span.Loc.start_line then max (start + 1) (span.Loc.end_col - 1)
    else width
  in
  let stop = max (start + 1) (min (max stop (start + 1)) (max width (start + 1))) in
  String.make start ' ' ^ String.make (stop - start) '^'

let render ?source d =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "%s:%d:%d: %s: %s" d.span.Loc.file d.span.Loc.start_line
       d.span.Loc.start_col
       (severity_to_string d.severity)
       d.message);
  (match Option.bind source (fun src -> nth_line src d.span.Loc.start_line) with
  | Some text when not (Loc.is_none d.span) ->
      let gutter = string_of_int d.span.Loc.start_line in
      Buffer.add_string buf (Printf.sprintf "\n  %s | %s" gutter text);
      Buffer.add_string buf
        (Printf.sprintf "\n  %s | %s"
           (String.make (String.length gutter) ' ')
           (caret_line text d.span))
  | _ -> ());
  List.iter (fun n -> Buffer.add_string buf ("\n  note: " ^ n)) d.notes;
  Buffer.contents buf

(* {2 JSON} *)

let to_json d =
  let module Json = Specrepair_json in
  Json.Obj
    [
      ("severity", Json.Str (severity_to_string d.severity));
      ("file", Json.Str d.span.Loc.file);
      ("line", Json.int d.span.Loc.start_line);
      ("col", Json.int d.span.Loc.start_col);
      ("end_line", Json.int d.span.Loc.end_line);
      ("end_col", Json.int d.span.Loc.end_col);
      ("message", Json.Str d.message);
      ("notes", Json.List (List.map (fun n -> Json.Str n) d.notes));
    ]
