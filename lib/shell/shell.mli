(** The constraint-editor command shell (§5.4), shared by the [stem edit]
    REPL and by tests/batch scripts. The [help] command lists the
    commands; each observability command prints {!Obs.Answer.text} of
    the answer the telemetry server serves for the same question. *)

(** A shell session: the environment plus its observability board
    (ring, metrics, profiler — attached as trace sinks for the
    session's lifetime), a provenance store (for [why]/[blame]/
    [critical]/[tracetree]), an optional JSONL trace export and an
    optional telemetry server. *)
type session

(** Create a session, attaching the observability board and the
    provenance store to the environment's constraint network. *)
val session : Stem.Design.env -> session

(** [execute ss line] — run one command, printing to the current
    formatter. Returns [false] when the command was [quit]. *)
val execute : session -> string -> bool

(** Detach the session's sinks, stop any JSONL export and shut down
    the telemetry server if one is running. *)
val close : session -> unit

(** Interactive loop over stdin (manages its own session). *)
val run : Stem.Design.env -> unit

(** [execute_script env lines] — run the commands in a fresh session and
    return their combined output as a string (testable batch mode). *)
val execute_script : Stem.Design.env -> string list -> string
