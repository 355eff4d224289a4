(** Two stock trace sinks.

    A sink is one subscriber of a network's event stream
    ({!Constraint_kernel.Types.sink}, built with [Types.sink] and
    attached with [Engine.add_sink]); the kernel fans every trace event
    out to all attached sinks in registration order, each call wrapped
    in an exception trap so a broken sink degrades observability, never
    propagation. The ready-made consumers live in {!Ring}, {!Metrics},
    {!Jsonl} and {!Profiler}, bundled by {!Board}. *)

open Constraint_kernel.Types

(** A sink that discards everything (for overhead measurements). *)
val null : ?name:string -> unit -> 'a sink

(** Human-readable event logger: one line per event, prefixed with the
    episode id, rendered with [Editor.pp_trace_event]. *)
val logger : ?name:string -> Format.formatter -> 'a sink
