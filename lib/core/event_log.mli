(** The event log of an observed network: one packed row per trace
    event, written by {!Engine} at each event's site (see
    {!Engine.attach_log}) without building the event, and read by the
    observers of [Obs]: the ring, the tail sampler, provenance, the
    board's metrics and profiler. Each assignment is recorded once — a
    row naming a span that carries the value and what provenance needs.

    The storage types are {!Types.event_log} and {!Types.log_rows}; this
    module alone knows how rows and spans are encoded. *)

open Types

(** {1 Reading} *)

(** [event b i] — row [i] of [b], rebuilt as a tagged event. *)
val event : 'a log_rows -> int -> 'a tagged_event

(** The episode span of row [i] of [b], if it is an episode end. *)
val end_span : 'a log_rows -> int -> episode_span option

(** [copy b mask i n] — [n] rows from row [i] of [b], which wraps at
    [mask], copied out in the same layout: the copy's end rows name
    their extras, and its assignment and reset rows their spans, by
    rank. *)
val copy : 'a log_rows -> int -> int -> int -> 'a log_rows

val rows_count : 'a log_rows -> int

val outcome_of_code : int -> episode_outcome

(** {1 Spans}

    Span ids are sequential from 1; the log keeps the newest
    [span_capacity], span [id] in slot [id land (span_capacity - 1)]. *)

(** 8192. *)
val span_capacity : int

(** Episodes retained, by id: 1024. *)
val max_episodes : int

val held : 'a event_log -> int -> bool

(** The fields of span slot [j]. *)

val span_var : 'a log_rows -> int -> 'a var
val span_just : 'a log_rows -> int -> 'a justification
val span_value : 'a event_log -> int -> 'a option
val span_source : 'a event_log -> int -> string
val span_dead : 'a event_log -> int -> bool
val span_cross : 'a event_log -> int -> parent_ref option

(** The span ids the justification's dependency record names among the
    candidates logged with the span (oldest argument first). *)
val span_antecedents : 'a event_log -> int -> int list

(** {1 Counts} *)

val c_assign : int
val c_reset : int
val c_activate : int
val c_check : int
val c_restore : int
val c_violation : int
val c_quarantine : int
val c_start : int
val c_sched_checking : int
val c_sched_functional : int
val c_sched_implicit : int
val c_sched_other : int

(** Per-constraint counts in {!Types.cstr_stats}: [st_stride] per id. *)
val st_activations : int
val st_scheduled : int
val st_checks : int
val st_check_failures : int
val st_quarantines : int
val st_stride : int

(** {1 Writing} *)

(** [create ~rows ()] — an empty log whose backing holds [rows] rows
    (rounded up to a power of two). *)
val create : rows:int -> unit -> 'a event_log

(** [push lg ep seq ev] — write any event (the engine's path for rare
    events; readers fed by a sink use it too). *)
val push : 'a event_log -> int -> int -> 'a trace_event -> unit

(** The engine's per-site writers: [ep] and [seq] as {!push} takes
    them. *)

val assign : 'a event_log -> int -> int -> 'a var -> 'a -> string -> unit
val reset : 'a event_log -> int -> int -> 'a var -> string -> unit
val activate : 'a event_log -> int -> int -> 'a cstr -> 'a var option -> unit
val schedule : 'a event_log -> int -> int -> 'a cstr -> int -> unit
val check : 'a event_log -> int -> int -> 'a cstr -> bool -> unit
val restore : 'a event_log -> int -> int -> 'a var -> unit

val start :
  'a event_log -> int -> int -> int -> string -> parent_ref option -> unit

val finish : 'a event_log -> int -> int -> episode_span -> unit
