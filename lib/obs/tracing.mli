(** Hierarchical request tracing: trace id + span id + parent spans
    over an injectable clock, stored in an allocation-light ring, with
    Chrome trace-event export (loads directly in Perfetto or
    chrome://tracing) and per-stage latency histograms.

    A {!ctx} is the correlation carrier threaded through a request
    path: it names a trace and the span new children should hang
    under. Spans are recorded only when they {e finish} (complete
    ["X"] events), so an abandoned handle costs nothing but the
    handle itself.

    The tracer is thread-safe: id allocation and the ring push are
    guarded by one mutex, and the {!enabled} flag is a plain boolean
    read so a disabled tracer costs the hot path one load and one
    branch. The clock is injectable (the {!Window} convention), so
    span durations are deterministic under test clocks. *)

(** Where a new span hangs: the trace it belongs to and the parent
    span id ([0] = the trace root, i.e. "no parent"). *)
type ctx = { tc_trace : int; tc_span : int }

(** A finished span, oldest-first out of {!spans}. Times are seconds
    of the tracer's clock. *)
type span = {
  sp_trace : int;
  sp_id : int;
  sp_parent : int;  (** 0 = root of its trace *)
  sp_name : string;
  sp_start : float;
  sp_dur : float;
  sp_note : string;  (** annotation, [""] = none *)
}

(** An open span; pass it to {!finish} exactly once. *)
type handle

type t

(** [create ()] — defaults: 4096-span ring, a monotonic clock
    ([clock_gettime(CLOCK_MONOTONIC)], cheaper than [Unix.gettimeofday]
    and immune to wall-clock steps — Chrome trace timestamps only need
    a consistent origin),
    no stage histograms. [stages] names the span names that feed a
    latency histogram ([stage_prefix ^ name], microseconds) in
    {!metrics} when such a span finishes. *)
val create :
  ?capacity:int ->
  ?clock:(unit -> float) ->
  ?stage_prefix:string ->
  ?stages:string list ->
  unit ->
  t

val enabled : t -> bool

(** Flip the recording flag. This only gates callers that check
    {!enabled} (and {!kernel_sink}); spans explicitly started are
    always recorded. *)
val set_enabled : t -> bool -> unit

(** The tracer's clock, for measuring work that begins before a trace
    exists (pass the reading to {!start} via [?at]). *)
val now : t -> float

(** A fresh trace: the returned context's [tc_span] is 0, so the
    first span started under it is the trace root. *)
val new_trace : t -> ctx

(** [start t ~parent name] opens a span under [parent] starting now
    (or at [?at], a {!now} reading taken earlier). *)
val start : ?at:float -> t -> parent:ctx -> string -> handle

(** Close the span and record it; [?name]/[?note] override what the
    rendered span says (a request span is named by its route only
    after dispatch), and [?at] supplies the stop time (a {!now}
    reading, lets back-to-back stages share one clock read).
    Double-finish is ignored. *)
val finish : ?name:string -> ?note:string -> ?at:float -> t -> handle -> unit

(** The context children of this span should use. *)
val ctx_of : handle -> ctx

(** [span t ~parent ~name ~start ~stop ~note] records a completed
    span in one call: the handle-free fast path for stage spans whose
    endpoints the caller already read with {!now}.  Equivalent to
    {!start}+{!finish} but with no handle and no optional arguments,
    which keeps the write path's tracing overhead inside the E22
    budget.  [note] is [""] for none. *)
val span :
  t ->
  parent:ctx ->
  name:string ->
  start:float ->
  stop:float ->
  note:string ->
  unit

(** Record a synthesized span directly (phase children derived from
    an episode's timings). *)
val add :
  t ->
  trace:int ->
  parent:int ->
  name:string ->
  start:float ->
  dur:float ->
  ?note:string ->
  unit ->
  unit

(** Finished spans, oldest first, clamped to the ring capacity. *)
val spans : t -> span list

(** Spans recorded over the tracer's lifetime (evicted included). *)
val seen : t -> int

(** {1 Ambient context}

    The write path serializes episodes under one global lock; the
    ambient context is how the request's span reaches the kernel sink
    across the [Engine.set] call boundary without widening the engine
    API. Not re-entrant across threads — hold the episode lock. *)

val with_ambient : t -> ctx -> (unit -> 'a) -> 'a

(** {1 The kernel sink}

    Attached to a network, converts the engine's episode brackets
    into spans: [T_episode_start] opens an ["episode"] span (parented
    under the starter's [parent_ref] episode if that episode is open
    in this tracer, else the ambient context, else a fresh root
    trace), and [T_episode_end] closes it and synthesizes
    [propagate]/[drain]/[check]/[restore] children from the phase
    timings, laid end to end from the episode's start. No-op while
    the tracer is disabled. *)

val kernel_sink_name : string

val kernel_sink : t -> net:string -> 'a Constraint_kernel.Types.sink

(** {1 Export} *)

(** The registry holding the per-stage latency histograms. *)
val metrics : t -> Metrics.t

(** The whole ring as a Chrome trace-event JSON document
    ([{"traceEvents":[...]}], complete ["X"] events, µs timestamps,
    one [tid] per trace id) — loads in Perfetto / chrome://tracing. *)
val chrome_json : t -> string
