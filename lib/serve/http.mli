(** Minimal HTTP/1.1 over raw [Unix] file descriptors.

    Just enough protocol for a telemetry endpoint: GET-style requests
    with no body, fixed-length and chunked responses, keep-alive. The
    parser reads from a {!conn} (a file descriptor plus the unconsumed
    tail of the last read, so pipelined keep-alive requests are not
    lost) and fails closed: anything it does not understand is a
    {!parse_error} the server answers with a 4xx and a closed
    connection, never a guess. *)

type request = {
  rq_method : string;  (** as sent, e.g. ["GET"] *)
  rq_path : string;  (** percent-decoded path, no query string *)
  rq_query : (string * string) list;  (** decoded, in order *)
  rq_version : string;  (** ["HTTP/1.1"] *)
  rq_headers : (string * string) list;  (** names lowercased *)
  mutable rq_params : (string * string) list;
      (** path parameters bound by a [Router] pattern route
          ([/nets/:id/...]) *)
  mutable rq_body : string;  (** body, filled in by {!read_body} *)
  mutable rq_route : string;
      (** matched route pattern ([""] until [Router.dispatch] binds
          one) — the low-cardinality name a trace span gets *)
  mutable rq_ctx : Obs.Tracing.ctx option;
      (** trace context for this request, threaded by the server when
          tracing is enabled; handlers pass it down the write path *)
}

type parse_error =
  | Closed  (** EOF before any byte — clean end of a keep-alive conn *)
  | Truncated  (** EOF (or read timeout) mid-request *)
  | Too_large  (** head exceeded [max_head] — answer 431 *)
  | Bad of string  (** malformed — answer 400 *)

(** A connection: the fd plus any bytes read past the previous request
    head (keep-alive pipelining). *)
type conn

val conn : Unix.file_descr -> conn

val fd : conn -> Unix.file_descr

(** Read and parse one request head (any body is left unread — see
    {!read_body}). [max_head] (default 8192 bytes) bounds the head. *)
val read_request : ?max_head:int -> conn -> (request, parse_error) result

(** Read the request body declared by [content-length] into
    [rq_body]. No-op without one. [max_body] (default 1 MiB) is
    checked {e before} reading a byte — [Too_large] here means answer
    413; EOF or receive timeout mid-body is [Truncated]. Bytes past
    the body stay buffered for the next keep-alive request. *)
val read_body : ?max_body:int -> conn -> request -> (unit, parse_error) result

(** Case-insensitive header lookup. *)
val header : request -> string -> string option

val query : request -> string -> string option

val query_int : request -> string -> int option

(** Path parameter bound by the router ([/nets/:id] → [param rq "id"]). *)
val param : request -> string -> string option

(** HTTP/1.1 defaults to keep-alive unless [Connection: close]. *)
val keep_alive : request -> bool

(** Loop until the whole string is written (raises [Unix_error] on a
    dead peer — EPIPE / ECONNRESET / send timeout). *)
val write_all : Unix.file_descr -> string -> unit

(** A full response with [Content-Length]. [headers] come after the
    status line verbatim (lowercase names by convention).
    [~head_only:true] (for answering HEAD) emits the status line and
    headers — including the [Content-Length] the body would have —
    but omits the body itself. *)
val response_string :
  ?head_only:bool ->
  ?headers:(string * string) list ->
  status:int ->
  body:string ->
  unit ->
  string

val write_response :
  ?head_only:bool ->
  ?headers:(string * string) list ->
  status:int ->
  body:string ->
  Unix.file_descr ->
  unit

(** {1 Chunked streaming} — used by the live [/events] feed. *)

val write_chunked_head :
  ?headers:(string * string) list -> status:int -> Unix.file_descr -> unit

val write_chunk : Unix.file_descr -> string -> unit

(** The terminating zero-length chunk. *)
val write_last_chunk : Unix.file_descr -> unit

