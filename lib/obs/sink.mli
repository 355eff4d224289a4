(** A stock trace sink.

    A sink is one subscriber of a network's event stream
    ({!Constraint_kernel.Types.sink}, built with [Types.sink] and
    attached with [Engine.add_sink]); the kernel fans every trace event
    out to all attached sinks in registration order, each call wrapped
    in an exception trap so a broken sink degrades observability, never
    propagation. The ready-made consumers are {!Board}, which feeds
    {!Ring}, {!Metrics}, {!Profiler}, the monitor and {!Provenance}
    from one sink, and the {!Jsonl} and {!Tracing} exporters. *)

open Constraint_kernel.Types

(** Human-readable event logger: one line per event, prefixed with the
    episode id, rendered with [Editor.pp_trace_event]. *)
val logger : ?name:string -> Format.formatter -> 'a sink
