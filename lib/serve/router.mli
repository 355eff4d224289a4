(** Route table: (method, path pattern) → handler.

    Paths are exact-match, except that a [:name] segment binds one
    path segment as a parameter ([/nets/:id/state] matches
    [/nets/alu/state], binding [id = "alu"]; read it back with
    [Http.param]). Misses follow HTTP semantics: unknown path → 404;
    known path, wrong method → 405 with an [allow] header. [HEAD]
    falls back to the matching [GET] route (the server suppresses the
    body at write time, preserving the [Content-Length]), and [allow]
    lists [HEAD] wherever [GET] is registered. A handler
    answers either a buffered {!reply} or takes over the connection
    for streaming ([/events]). *)

type reply =
  | Reply of { status : int; headers : (string * string) list; body : string }
  | Stream_reply of (Unix.file_descr -> Http.request -> unit)
      (** Writes its own (chunked) response; the connection is closed
          after it returns. *)

type t

val create : unit -> t

val add : t -> meth:string -> path:string -> (Http.request -> reply) -> unit

(** Route the request: binds [rq_params] and [rq_route] (the matched
    pattern, the low-cardinality name tracing uses) before calling the
    handler; 404/405 otherwise. *)
val dispatch : t -> Http.request -> reply

(** {1 Reply helpers} *)

val text : ?status:int -> ?content_type:string -> string -> reply

val json : ?status:int -> ?headers:(string * string) list -> string -> reply

val ndjson : ?status:int -> string -> reply
