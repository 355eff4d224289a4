(** A stock trace sink.

    A sink is one subscriber of a network's event stream
    ({!Constraint_kernel.Types.sink}, built with [Types.sink] and
    attached with [Engine.add_sink]); the kernel fans every trace event
    out to all attached sinks in registration order, each call wrapped
    in an exception trap so a broken sink degrades observability, never
    propagation. The ready-made sinks are this logger and the {!Jsonl}
    and {!Tracing} exporters; a {!Board} is no sink but reads the
    network's {!Constraint_kernel.Event_log}. *)

open Constraint_kernel.Types

(** Human-readable event logger: one line per event, prefixed with the
    episode id, rendered with [Editor.pp_trace_event]. *)
val logger : ?name:string -> Format.formatter -> 'a sink
