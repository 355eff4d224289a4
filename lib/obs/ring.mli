(** Bounded event ring buffer, for post-mortem inspection.

    Keeps the most recent [capacity] tagged trace events; older ones
    are evicted in FIFO order. The [spans] accessor filters the ring
    down to completed episode spans, which is what the shell's [spans]
    command and the [stem trace] demo print. *)

open Constraint_kernel.Types

type 'a t

val create : capacity:int -> unit -> 'a t

(** [push r ep seq ev] — feed one event (the board's sink pushes every
    event it sees); allocation-free. *)
val push : 'a t -> int -> int -> 'a trace_event -> unit

(** Events currently held, oldest first. *)
val to_list : 'a t -> 'a tagged_event list

(** [since r p] — events from absolute stream position [p] (a value of
    {!seen} captured earlier) to the present, oldest first. Events
    already evicted by wrap-around are absent from the result. *)
val since : 'a t -> int -> 'a tagged_event list

(** [since_complete r p] — did every event since position [p] survive
    (nothing in the range was evicted)? *)
val since_complete : 'a t -> int -> bool

(** Completed episode spans currently held, oldest first. *)
val spans : 'a t -> episode_span list

val length : 'a t -> int

val capacity : 'a t -> int

(** Total events ever pushed, including evicted ones. *)
val seen : 'a t -> int

val clear : 'a t -> unit
