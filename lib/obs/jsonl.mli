(** JSONL trace export and (minimal) import.

    Every trace event becomes one flat JSON object per line with at
    least ["seq"], ["ep"] (the owning episode id) and ["t"] (the event
    type); further scalar fields depend on the type. Episode-end spans
    carry the outcome and per-phase timings in microseconds, so a trace
    file is enough to reconstruct the full span timeline offline.

    The parser only understands the flat scalar objects this module
    emits — it is for round-tripping our own traces, not general JSON. *)

open Constraint_kernel.Types

(** [json_of_event ?net ?pp_value te] — one line of JSON (no trailing
    newline). [pp_value] renders assigned values (default
    ["<opaque>"]); [net] adds a ["net"] field naming the emitting
    network (used by the telemetry server's [/events] stream, where
    several networks share one connection). *)
val json_of_event :
  ?net:string -> ?pp_value:('a -> string) -> 'a tagged_event -> string

(** Sink writing one line per event to a channel. The caller owns the
    channel (flush/close). Default name ["jsonl"]. *)
val channel_sink :
  ?name:string -> ?pp_value:('a -> string) -> out_channel -> 'a sink

(** Same, into a [Buffer.t] (used by tests and the shell). *)
val buffer_sink :
  ?name:string -> ?pp_value:('a -> string) -> Buffer.t -> 'a sink

(** {1 Writing JSON}

    The one JSON writer of [lib/obs], [lib/serve] and the CLI. Strings
    escape ['"'], ['\\'] and every control byte; finite floats print
    in the shortest of [%.15g]/[%.17g] that reads back to the same
    value; non-finite floats print as the strings ["nan"], ["inf"] and
    ["-inf"] (JSON has no such numbers). *)

type json =
  | J_str of string
  | J_int of int
  | J_float of float
  | J_bool of bool
  | J_null
  | J_arr of json list
  | J_obj of (string * json) list  (** keys written in list order *)

val to_string : json -> string

(** NDJSON: each element of an array on its own line (any other value
    as one line), every line newline-terminated. *)
val to_ndjson : json -> string

(** [opt f None = J_null], [opt f (Some x) = f x]. *)
val opt : ('a -> json) -> 'a option -> json

(** {1 Reading traces back}

    The parser yields scalars only ([J_arr]/[J_obj] never appear in
    its output). *)

(** Parse one line into its fields, in order of appearance. *)
val parse_line : string -> ((string * json) list, string) result

(** Parse every non-blank line of a string. *)
val parse_lines : string -> ((string * json) list, string) result list

(** Parse every non-blank line of a file. *)
val load_file : string -> ((string * json) list, string) result list

(** {2 Lenient loading}

    Truncated tails and garbage lines are reported as [(line number,
    message)] warnings instead of failing (or raising) mid-file; every
    parseable line is kept. Line numbers are 1-based and count blank
    lines, matching editor display. *)

val parse_lines_lenient :
  string -> (int * (string * json) list) list * (int * string) list

val load_file_lenient :
  string -> (int * (string * json) list) list * (int * string) list

(** Schema version of the lines this module writes (currently 2: adds
    ["v"], assign ["just"]/["deps"], episode-start ["pnet"]/["pep"]/
    ["cause"], the optional ["net"] field, and the ["alert"] record
    kind written by [Watchdog.alert_json]). *)
val schema_version : int

(** The ["v"] field of a parsed line, defaulting to 1 for lines written
    before the version field existed. *)
val version : (string * json) list -> int

(** Typed field accessors (ints coerce to floats and vice versa where
    lossless enough for trace data). *)

val str : (string * json) list -> string -> string option

val int : (string * json) list -> string -> int option

val float : (string * json) list -> string -> float option

val outcome_string : episode_outcome -> string

(** The ["just"] field written on assign lines ("user", "application",
    "propagated", ...). Shared with the provenance store so span
    justifications and trace lines agree. *)
val just_string : 'a justification -> string

val outcome_of_string : string -> episode_outcome option

(** JSON string escaping, without the quotes (for the bench JSON
    writers). *)
val escape : string -> string
