(** Rolling-window telemetry over the episode stream.

    Where {!Metrics} accumulates forever, a window answers the live
    question — "what happened in the last N episodes / last s seconds" —
    in bounded memory: one current slot plus a fixed ring of the most
    recently completed slots. Each slot holds outcome counts,
    violation/quarantine/sink-error counts, a step total and a
    fixed-bucket latency histogram (p50/p95/p99 via
    {!Metrics.quantile}).

    A slot closes ("rotates") when its {!width} is reached — episode
    count (deterministic; tests) or wall-clock seconds (live sessions) —
    or on an explicit {!rotate} (one-shot health reports). Completed
    snapshots are frozen; {!on_rotate} callbacks fire at every boundary,
    which is where {!Watchdog} rules are evaluated. *)

open Constraint_kernel.Types

type width =
  | Episodes of int  (** close after this many episodes *)
  | Seconds of float  (** close once the slot covers this much wall time *)

(** One window slot. The [current] slot mutates as episodes complete;
    snapshots returned by {!completed}/{!last} are frozen. *)
type snapshot = {
  w_index : int;
  w_opened : float;
  mutable w_duration : float;
  mutable w_episodes : int;
  mutable w_committed : int;
  mutable w_rolled_back : int;
  mutable w_probe_ok : int;
  mutable w_probe_rejected : int;
  mutable w_violations : int;
  mutable w_quarantines : int;
  mutable w_sink_errors : int;
  mutable w_steps : int;
  w_latency : Metrics.histogram;
}

type t

(** Defaults: 8 retained slots, width [Episodes 64], wall clock. *)
val create :
  ?slots:int ->
  ?width:width ->
  ?clock:(unit -> float) ->
  unit ->
  t

(** Direct feeds, for the board's episode-end hook. [observe_span]
    also checks the rotation condition. *)
val observe_span : t -> episode_span -> unit

val note_violation : t -> unit

val note_quarantine : t -> unit

val note_sink_errors : t -> int -> unit

(** Force a window boundary now (fires the callbacks). *)
val rotate : t -> unit

(** Called with each completed snapshot, in registration order. *)
val on_rotate : t -> (snapshot -> unit) -> unit

(** Live view of the open slot; its duration runs from the slot's
    opening to its latest episode. *)
val current : t -> snapshot

(** Retained completed snapshots, oldest first. *)
val completed : t -> snapshot list

(** Most recently completed snapshot, if any. *)
val last : t -> snapshot option

(** Total windows ever closed (including ones evicted from history). *)
val completed_count : t -> int

val p50 : snapshot -> float

val p95 : snapshot -> float

val p99 : snapshot -> float

(** Episodes per second; 0 if the slot covers no measurable time. *)
val episode_rate : snapshot -> float

(** Violations per episode (time-free, deterministic under test
    clocks); 0 for an empty slot. *)
val violation_rate : snapshot -> float
