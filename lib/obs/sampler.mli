(** Tail-sampled episode exemplars: full event traces of the episodes
    worth keeping.

    Episodes are buffered cheaply — the {!Ring} the board already
    maintains is the buffer; the sampler only remembers the ring's
    stream position at episode start — and *promoted* to exemplars on
    outcome: the K slowest of the current window, every violating or
    quarantining episode, plus optional 1-in-N head samples of routine
    traffic. The store is a bounded FIFO (newest kept).

    An exemplar is a range of ring rows: the episode's last
    [Ring.capacity] rows at most. Per-event overhead beyond the ring
    push is zero and a promotion boxes nothing; rows are copied out of
    the ring only when it is about to overwrite a range the store still
    holds, and events are rebuilt when an exemplar is read. *)

open Constraint_kernel.Types

type reason = Head | Slow | Violating | Quarantining

(** Where an exemplar's rows are. *)
type 'a source

(** A stored exemplar, as read: built on each read from the store. *)
type 'a exemplar = {
  ex_episode : int;
  ex_span : episode_span;
  ex_reasons : reason list;
  ex_length : int;  (** events held *)
  ex_truncated : bool;
      (** the episode wrote more events than the ring's capacity: its
          leading events were not kept *)
  ex_source : 'a source;
}

(** The exemplar's events, oldest first. An exemplar the store has
    evicted since it was read keeps only the rows the ring still
    holds. *)
val events : 'a exemplar -> 'a tagged_event list

type 'a t

(** [create ~ring ()] — sample episodes whose events flow through
    [ring], whose overwrite hook ({!Ring.on_lose}) it takes. Defaults: store capacity 32 exemplars, head sampling off
    ([head_every = 0]), [slow_k = 4] slowest per window. *)
val create :
  ?capacity:int -> ?head_every:int -> ?slow_k:int -> ring:'a Ring.t -> unit -> 'a t

(** [finished t ~start ~violated ~quarantined sp] — decide promotion
    for an outermost episode that just ended, its start row at
    position [start] of the ring and its end row the newest (a
    {!Board} calls this from its log's episode-end hook). No event is
    copied. *)
val finished :
  'a t -> start:int -> violated:bool -> quarantined:bool -> episode_span ->
  unit

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
