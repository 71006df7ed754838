(* Request parsing/validation and reply construction for the serve
   protocol.  Everything here is pure string/JSON work — no sockets, no
   solving — so both the daemon (parent) and the pool workers can use it,
   and the unit tests can exercise every malformed-input path without a
   process tree. *)

module Json = Specrepair_json

type repair_params = {
  source : string;
  file : string;
  tool : string;
  profile : string;  (* a Specrepair_llm.Model.panel name *)
  seed : int;
  deadline_ms : float option;
  chaos : string option;
}

type evaluate_params = {
  e_source : string;
  e_file : string;
  e_profile : string;
  e_deadline_ms : float option;
  e_chaos : string option;
}

type sat_params = { dimacs : string; s_chaos : string option }

type call =
  | Repair of repair_params
  | Evaluate of evaluate_params
  | Sat of sat_params
  | Status

type request = { id : string; call : call }

type error_code =
  | Parse_error
  | Invalid_request
  | Unknown_method
  | Oversized
  | Overloaded
  | Worker_crashed
  | Deadline_exceeded
  | Spec_error
  | Cnf_error
  | Shutting_down
  | Internal

let code_to_string = function
  | Parse_error -> "parse_error"
  | Invalid_request -> "invalid_request"
  | Unknown_method -> "unknown_method"
  | Oversized -> "oversized"
  | Overloaded -> "overloaded"
  | Worker_crashed -> "worker_crashed"
  | Deadline_exceeded -> "deadline_exceeded"
  | Spec_error -> "spec_error"
  | Cnf_error -> "cnf_error"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

let ok_reply_text ~id result =
  String.concat ""
    [ {|{"id":|}; Json.to_string (Json.Str id); {|,"ok":true,"result":|}; result; "}" ]

let ok_reply ~id result = ok_reply_text ~id (Json.to_string result)

let error_reply ?(data = []) ~id ~code message =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Str id);
         ("ok", Json.Bool false);
         ( "error",
           Json.Obj
             (("code", Json.Str (code_to_string code))
             :: ("message", Json.Str message)
             :: data) );
       ])

(* Replies are always built by the constructors above, so the success
   flag sits in a fixed position right after the escaped id: skip the id's
   string literal (an escaped character never closes it) and read the
   member that follows.  Nothing after the flag is looked at, so a
   [result] or error [data] holding an ["ok"] member cannot fool it. *)
let reply_is_ok line =
  let n = String.length line in
  let has_at i s =
    let k = String.length s in
    i + k <= n
    &&
    let rec go j = j = k || (line.[i + j] = s.[j] && go (j + 1)) in
    go 0
  in
  let rec id_end i =
    if i >= n then None
    else
      match line.[i] with
      | '\\' -> id_end (i + 2)
      | '"' -> Some (i + 1)
      | _ -> id_end (i + 1)
  in
  let open_id = {|{"id":"|} in
  has_at 0 open_id
  &&
  match id_end (String.length open_id) with
  | Some i -> has_at i {|,"ok":true|}
  | None -> false

let method_name = function
  | Repair _ -> "repair"
  | Evaluate _ -> "evaluate"
  | Sat _ -> "sat"
  | Status -> "status"

let valid_tools = List.map fst Specrepair_eval.Portfolio.tools

let valid_profiles = Specrepair_llm.Model.panel_names

let default_profile = Specrepair_llm.Model.gpt4.Specrepair_llm.Model.name

(* {2 Request validation} *)

exception Bad of error_code * string

let required_str obj key =
  match Json.member key obj with
  | Some (Json.Str s) -> s
  | Some _ -> raise (Bad (Invalid_request, "params." ^ key ^ " must be a string"))
  | None -> raise (Bad (Invalid_request, "params." ^ key ^ " is required"))

let opt_str obj key ~default =
  match Json.member key obj with
  | None | Some Json.Null -> default
  | Some (Json.Str s) -> s
  | Some _ -> raise (Bad (Invalid_request, "params." ^ key ^ " must be a string"))

let opt_chaos obj =
  match Json.member "chaos" obj with
  | None | Some Json.Null -> None
  | Some (Json.Str s) -> Some s
  | Some _ -> raise (Bad (Invalid_request, "params.chaos must be a string"))

let opt_int obj key ~default =
  match Json.member key obj with
  | None | Some Json.Null -> default
  | Some v -> (
      match Json.to_int v with
      | Some n -> n
      | None -> raise (Bad (Invalid_request, "params." ^ key ^ " must be an integer")))

let opt_pos_ms obj key =
  match Json.member key obj with
  | None | Some Json.Null -> None
  | Some v -> (
      match Json.to_num v with
      | Some f when f > 0. -> Some f
      | Some _ -> raise (Bad (Invalid_request, "params." ^ key ^ " must be positive"))
      | None -> raise (Bad (Invalid_request, "params." ^ key ^ " must be a number")))

let opt_profile obj =
  let profile = opt_str obj "profile" ~default:default_profile in
  if not (List.mem profile valid_profiles) then
    raise
      (Bad
         ( Invalid_request,
           Printf.sprintf "params.profile must be one of: %s"
             (String.concat ", " valid_profiles) ));
  profile

let parse_call ~meth ~params =
  match meth with
  | "status" -> Status
  | "repair" ->
      let tool = opt_str params "tool" ~default:"beafix" in
      if not (List.mem tool valid_tools) then
        raise
          (Bad
             ( Invalid_request,
               Printf.sprintf "params.tool must be one of: %s"
                 (String.concat ", " valid_tools) ));
      Repair
        {
          source = required_str params "source";
          file = opt_str params "file" ~default:"<request>";
          tool;
          profile = opt_profile params;
          seed = opt_int params "seed" ~default:42;
          deadline_ms = opt_pos_ms params "deadline_ms";
          chaos = opt_chaos params;
        }
  | "evaluate" ->
      Evaluate
        {
          e_source = required_str params "source";
          e_file = opt_str params "file" ~default:"<request>";
          e_profile = opt_profile params;
          e_deadline_ms = opt_pos_ms params "deadline_ms";
          e_chaos = opt_chaos params;
        }
  | "sat" ->
      Sat { dimacs = required_str params "dimacs"; s_chaos = opt_chaos params }
  | m -> raise (Bad (Unknown_method, Printf.sprintf "unknown method %S" m))

let parse_request line =
  match Json.parse line with
  | Error (pos, msg) ->
      Error
        (error_reply ~id:"" ~code:Parse_error
           ~data:[ ("pos", Json.int pos) ]
           (Printf.sprintf "request is not JSON: %s (byte %d)" msg pos))
  | Ok json -> (
      (* best-effort id recovery, so even malformed requests correlate *)
      let id = Option.value (Json.mem_str "id" json) ~default:"" in
      match json with
      | Json.Obj _ -> (
          let meth =
            match Json.member "method" json with
            | Some (Json.Str m) -> Ok m
            | Some _ -> Error "method must be a string"
            | None -> Error "method is required"
          in
          match meth with
          | Error msg -> Error (error_reply ~id ~code:Invalid_request msg)
          | Ok meth -> (
              let params =
                Option.value (Json.member "params" json) ~default:(Json.Obj [])
              in
              match params with
              | Json.Obj _ -> (
                  match parse_call ~meth ~params with
                  | call -> Ok { id; call }
                  | exception Bad (code, msg) -> Error (error_reply ~id ~code msg))
              | _ ->
                  Error
                    (error_reply ~id ~code:Invalid_request
                       "params must be an object")))
      | _ ->
          Error (error_reply ~id ~code:Invalid_request "request must be an object"))

(* {2 Cache keys}

   Repair and evaluate requests over the same source and model profile
   share one warm oracle (the verdict caches are technique-agnostic); sat
   requests are keyed on the CNF text.  Seed, tool and deadline are
   per-request session state, not oracle state, so they stay out of the
   key.  The profile is in the key so a profile
   change never lands on a stale warm session: panel members answer from
   their own warm state, not each other's. *)

let spec_key ~profile source =
  Digest.to_hex (Digest.string ("spec:" ^ profile ^ ":" ^ source))

let cache_key = function
  | Repair { source; profile; _ } -> Some (spec_key ~profile source)
  | Evaluate { e_source; e_profile; _ } ->
      Some (spec_key ~profile:e_profile e_source)
  | Sat { dimacs; _ } -> Some (Digest.to_hex (Digest.string ("cnf:" ^ dimacs)))
  | Status -> None
