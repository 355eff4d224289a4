(** Bounded event ring buffer, for post-mortem inspection.

    Reads see the most recent [capacity] tagged trace events of an
    {!Constraint_kernel.Event_log}; older ones are evicted in FIFO
    order. The log stores rows, not events, and events are rebuilt when
    read. A board's ring reads the log the engine writes for its
    network; a ring made by {!create} and fed by {!push} has a log of
    its own. The [spans] accessor filters the ring down to completed
    episode spans, which is what the shell's [spans] command and the
    [stem trace] demo print.

    The log's backing is larger than the read capacity, so rows a
    reader has evicted can still be retained: {!Sampler} keeps its
    exemplars as row ranges, guarded against overwrite by {!guard}. *)

open Constraint_kernel.Types

type 'a t

(** [create ~capacity ()] — a ring over a fresh log whose backing holds
    [8 × capacity] rows (rounded up to a power of two). *)
val create : capacity:int -> unit -> 'a t

(** The log the ring reads; {!Board.attach} gives it to the network. *)
val log : 'a t -> 'a Constraint_kernel.Types.event_log

(** [push r ep seq ev] — write one event to the ring's log, as a sink
    would. Keeps no pointer to [ev] except for a violation, a
    quarantine, an episode start with a parent, or a payload too large
    to pack, which are kept as they are. An episode end is always kept
    as a row, whatever its id. *)
val push : 'a t -> int -> int -> 'a trace_event -> unit

(** Events currently held, oldest first. *)
val to_list : 'a t -> 'a tagged_event list

(** Completed episode spans currently held, oldest first. *)
val spans : 'a t -> episode_span list

val length : 'a t -> int

val capacity : 'a t -> int

(** Total events ever pushed, including evicted ones. *)
val seen : 'a t -> int

(** {1 Retained ranges}

    Positions are absolute stream positions, as {!seen} counts them. A
    row stays in the backing arrays for [8 × capacity] (rounded up to a
    power of two) further pushes, whatever the read capacity. *)

(** A detached copy of a range of rows. *)
type 'a rows

(** [guard r p] — position [p] and everything after it must not be
    overwritten unannounced; [max_int] lifts the guard. *)
val guard : 'a t -> int -> unit

(** [on_lose r f] — before a push overwrites a guarded row, the ring
    calls [f bound]: every row below [bound] is about to go. [f] copies
    what it needs and moves the guard. *)
val on_lose : 'a t -> (int -> unit) -> unit

(** [read r p n] — the events of rows [p, p + n) still held, oldest
    first. *)
val read : 'a t -> int -> int -> 'a tagged_event list

(** [copy r p n] — rows [p, p + n), which must still be in the backing
    arrays, copied out. *)
val copy : 'a t -> int -> int -> 'a rows

(** The episode span of the row at [p], if it is held and an episode
    end. *)
val span_of : 'a t -> int -> episode_span option

val rows_events : 'a rows -> 'a tagged_event list

(** The span of a copied range's last row, if it is an episode end. *)
val rows_span : 'a rows -> episode_span option
