(** Tail-sampled episode exemplars: full event traces of the episodes
    worth keeping.

    Episodes are buffered cheaply — the {!Ring} the board already
    maintains is the buffer; the sampler only remembers the ring's
    stream position at episode start — and *promoted* to exemplars on
    outcome: the K slowest of the current window, every violating or
    quarantining episode, plus optional 1-in-N head samples of routine
    traffic. The store is a bounded FIFO (newest kept).

    Per-event overhead beyond the ring push is zero; only promoted
    episodes pay for boxing their events. *)

open Constraint_kernel.Types

type reason = Head | Slow | Violating | Quarantining

type 'a exemplar = {
  ex_episode : int;
  ex_span : episode_span;
  ex_reasons : reason list;
  ex_events : 'a tagged_event list;  (** oldest first *)
  ex_truncated : bool;
      (** the ring wrapped during the episode: leading events evicted *)
}

type 'a t

(** [create ~ring ()] — sample episodes whose events flow through
    [ring]. Defaults: store capacity 32 exemplars, head sampling off
    ([head_every = 0]), [slow_k = 4] slowest per window. *)
val create :
  ?capacity:int -> ?head_every:int -> ?slow_k:int -> ring:'a Ring.t -> unit -> 'a t

(** Fused-sink entry points (see {!Board}): boundary bookkeeping only,
    no event copying. *)
val episode_started : 'a t -> int -> unit

val violation_seen : 'a t -> unit

val quarantine_seen : 'a t -> unit

(** Decide promotion for the episode that just ended. *)
val episode_ended : 'a t -> episode_span -> unit

(** Window boundary: reset the per-window slow top-K. *)
val rotate : 'a t -> unit

(** Stored exemplars, oldest first. *)
val exemplars : 'a t -> 'a exemplar list

val latest : 'a t -> 'a exemplar option

(** The stored exemplar with the highest episode latency. *)
val slowest : 'a t -> 'a exemplar option

val stored : 'a t -> int

(** Outermost episodes observed. *)
val seen : 'a t -> int

(** Episodes ever promoted (including exemplars since evicted). *)
val promoted : 'a t -> int

val reason_label : reason -> string
