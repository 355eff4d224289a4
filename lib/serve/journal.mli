(** Crash-safe append-only record log — the per-network write-ahead
    episode journal under {!Wstore}.

    Framing: each record is [[u32 LE length][u32 LE crc32][payload]],
    where the payload is one schema-v2 JSONL line. The reader tolerates
    exactly what a crash can produce:

    - a {e torn final record} (incomplete header or short payload —
      the process died mid-append): reported as a record-numbered
      warning and discarded, never a failure;
    - a {e CRC-corrupted record} with sane framing anywhere in the
      file: skipped with a warning, and reading continues at the next
      frame;
    - an implausible length field (corrupted framing): reading stops
      there with a warning, since frames can no longer be delimited.

    {!open_append} additionally truncates the torn tail so new appends
    land where the reader can see them. *)

(** When appended records are forced to disk. [Always] fsyncs every
    append (an acknowledged write survives power loss); [Interval s]
    fsyncs at most every [s] seconds (a crash loses at most the last
    interval); [Never] leaves flushing to the OS (a [kill -9] still
    loses nothing — only power loss does). *)
type fsync_policy = Always | Interval of float | Never

val pp_fsync : Format.formatter -> fsync_policy -> unit

(** ["always"], ["never"], ["interval:0.5"]. *)
val fsync_of_string : string -> fsync_policy option

(** Frame one payload as the appender would (for tests). *)
val frame : string -> string

(** {1 Reading} *)

(** [read path] — every intact payload in order, plus [(record number,
    message)] warnings (1-based). A missing file is an empty journal,
    not an error. Never raises on corrupt content. *)
val read : string -> string list * (int * string) list

(** {1 Appending} *)

type t

(** Raised by {!append}, {!flush} and {!reset} when an fsync (or the
    reset's directory sync or truncate) fails, with a message naming
    the file and the error.  The failure
    poisons the journal: every later {!append}, {!flush} and {!reset}
    raises it again without writing, since nothing written before a
    failed sync can be vouched for afterwards. *)
exception Failed of string

(** [open_append ?fsync path] — open (creating if needed) for append,
    truncating any torn tail first; returns the warnings met while
    scanning the existing content. Default policy: [Always]. *)
val open_append : ?fsync:fsync_policy -> string -> t * (int * string) list

(** Append one framed record, applying the fsync policy. The appender
    is thread-safe. Raises [Invalid_argument] on a closed journal and
    {!Failed} on a failed (or earlier failed) fsync.
    [?trace] brackets the disk write as an ["append"] span and any
    policy-triggered fsync as an ["fsync"] span under the given
    context (an [Interval] append that skips the sync records no fsync
    span — the trace shows the durability actually bought). *)
val append : ?trace:Obs.Tracing.t * Obs.Tracing.ctx -> t -> string -> unit

(** Force an fsync now (graceful-drain path). Raises {!Failed}. *)
val flush : t -> unit

(** Truncate to empty — called after the journal's content has been
    folded into a snapshot renamed into place in the journal's own
    directory. Under [Always] and [Interval] that directory is fsynced
    first, so the rename reaches the disk before the truncation; under
    [Never] it is not. Raises {!Failed} when the directory sync, the
    truncate or the fsync fails. *)
val reset : t -> unit

(** Flush (per policy) and close. Idempotent. Never raises {!Failed}:
    a failed final sync is recorded in {!failure} and the handle is
    closed regardless. *)
val close : t -> unit

val fsync_policy : t -> fsync_policy

(** Records appended through this handle. *)
val appended : t -> int

(** The message of the fsync failure that poisoned the journal, if
    one has. *)
val failure : t -> string option

(** Current journal size in bytes. *)
val size : t -> int
