(** The serve wire protocol: newline-delimited JSON requests and replies.

    {b Request.}  One JSON object per line:
    [{"id": <string>, "method": "repair"|"evaluate"|"sat"|"status",
      "params": {...}}].
    [id] is an opaque client-chosen correlation string, echoed verbatim in
    the reply; it defaults to [""].  Parameters per method:

    - [repair]: [source] (Alloy source, required), [tool] ("beafix",
      "atr", "multi-round" or "portfolio"; default "beafix"), [profile]
      (a model-panel name from {!Specrepair_llm.Model.panel_names};
      default "gpt-4"), [seed] (default 42), [deadline_ms], [file] (a
      display name for diagnostics, default "<request>").
    - [evaluate]: [source] (required), [profile], [deadline_ms], [file] —
      answers the verdict of every command of the spec through the warm
      oracle.
    - [sat]: [dimacs] (a DIMACS CNF, required).
    - [status]: no parameters; answered by the daemon itself.

    A parameter a method does not list is ignored.

    All methods but [status] accept a [chaos] string, honoured by workers
    only when the daemon runs with [SPECREPAIR_SERVE_CHAOS=1] in its
    environment (test-only fault injection: ["kill"] SIGKILLs the worker
    mid-request, ["sleep:<ms>"] delays the reply).

    {b Reply.}  One JSON object per line, echoing [id]:
    [{"id":..., "ok":true, "result":{...}}] or
    [{"id":..., "ok":false, "error":{"code":..., "message":..., ...}}].
    Spec errors carry the frontend's positioned diagnostics
    ({!Specrepair_alloy.Diagnostic.to_json}) under ["error.diagnostics"];
    request-level JSON errors carry the byte offset under ["error.pos"]. *)

type repair_params = {
  source : string;
  file : string;  (** display name used in diagnostics *)
  tool : string;  (** validated: beafix | atr | multi-round | portfolio *)
  profile : string;  (** validated against {!Specrepair_llm.Model.panel_names} *)
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

(** Error vocabulary of the protocol; [code_to_string] gives the wire
    form ([parse_error], [invalid_request], ...). *)
type error_code =
  | Parse_error  (** the request line is not JSON *)
  | Invalid_request  (** JSON, but not a well-formed request *)
  | Unknown_method
  | Oversized  (** request line beyond [--max-request-bytes] *)
  | Overloaded  (** admission control rejected the request *)
  | Worker_crashed  (** the worker died mid-request; request not retried *)
  | Deadline_exceeded  (** the daemon hard-killed an overdue worker *)
  | Spec_error  (** the spec failed the frontend; diagnostics attached *)
  | Cnf_error  (** the DIMACS payload failed to parse *)
  | Shutting_down
  | Internal

val parse_request : string -> (request, string) result
(** Validate one request line.  [Error reply] is a complete, sendable
    error-reply line (the client's [id] is echoed when it could be
    recovered from the malformed request). *)

val ok_reply : id:string -> Specrepair_json.t -> string

val ok_reply_text : id:string -> string -> string
(** [ok_reply_text ~id (Json.to_string r)] is [ok_reply ~id r]: a reply
    around a result rendered earlier, as the daemon's reply memo
    stores it. *)

val error_reply :
  ?data:(string * Specrepair_json.t) list ->
  id:string ->
  code:error_code ->
  string ->
  string

val method_name : call -> string
(** "repair" | "evaluate" | "sat" | "status". *)

val cache_key : call -> string option
(** The warm-state cache key of the request: a digest of the payload and
    the model profile (repair and evaluate requests for the same source
    and profile share one warm oracle; sat requests are keyed on the
    CNF).  A profile change misses the cache by
    construction — it must never answer from another profile's warm
    session.  [None] for [status]. *)

val reply_is_ok : string -> bool
(** Does a reply line (in the exact shape built by {!ok_reply} /
    {!error_reply}) report success?  Reads the top-level flag at its
    fixed position after the id, in time linear in the id's length. *)
