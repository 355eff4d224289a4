(** Telemetry server: the [Obs] board's read side over HTTP.

    A thin, dependency-free HTTP/1.1 server (Unix sockets +
    [threads.posix]) exposing everything the observability layer
    already collects — without ever getting in propagation's way.
    Each JSON body is [Obs.Jsonl.to_string] of one {!Obs.Answer}
    (named below), over the served boards under their served names:

    - [GET /metrics] — Prometheus text exposition (0.0.4) merging every
      exposed network's registry (series labelled [net="<name>"]) plus
      the server's own counters.
    - [GET /healthz] — {!Obs.Answer.healthz} of the served boards and
      the server's own SLOs; status 200 when all are quiet, 503
      otherwise.
    - [GET /alerts] — {!Obs.Answer.alerts} of the same watchdogs, one
      record per line (NDJSON).
    - [GET /exemplars], [GET /spans] — {!Obs.Answer.exemplars},
      {!Obs.Answer.spans}.
    - [GET /topo.dot] — the constraint graph(s) as DOT ([?net=] selects
      one network; default renders all).
    - [GET /events] — {e live} chunked NDJSON: one schema-v2 trace line
      per kernel event, fanned out through a bounded drop-oldest queue
      per subscriber ([?net=] filter, [?cap=] queue bound, [?max=] stop
      after N lines — for scripted scrapes). A slow or stalled scraper
      loses lines, never stalls propagation.

    Networks join the board through the one registry of served
    networks ({!Wstore}): hosting a network there serves it, and
    {!expose} serves a network read-only. The server itself is
    {!start}/{!stop}; it owns its admission controller, request tracer,
    self-metrics and history wiring, so two servers share nothing but
    the registry and its [/events] hub. Threading: one accept thread
    feeds a bounded queue drained by a small worker pool; every
    blocking syscall releases the OCaml runtime lock, so an idle
    server costs the propagation thread nothing. *)

module Http : module type of Http

module Stream : module type of Stream

module Exposition : module type of Exposition

module Router : module type of Router

module Client : module type of Client

module Journal : module type of Journal

module Admission : module type of Admission

module Wstore : module type of Wstore

open Constraint_kernel

(** {1 Read-only networks}

    For networks served but not hosted (a shell session, a demo
    workload). Hosted networks join and leave with {!Wstore.create},
    {!Wstore.adopt}, {!Wstore.recover} and {!Wstore.drop}. *)

(** {!Wstore.expose}: serve [net]'s telemetry under [?name] (default
    the network's name). The [/events] feed sink is attached only
    while a subscriber is streaming, and lines are formatted lazily on
    the reader's thread. *)
val expose :
  ?name:string ->
  ?pp_value:('a -> string) ->
  board:'a Obs.Board.t ->
  'a Types.network ->
  unit

(** {!Wstore.unexpose}; [false] if the name is not exposed read-only. *)
val unexpose : string -> bool

(** The process-global [/events] hub (exposed for benchmarks/tests). *)
val hub : Stream.t

val stream_stats : unit -> Stream.stats

(** {1 The server} *)

type t

(** [start ()] — defaults: bind 127.0.0.1, port 9464 (0 picks an
    ephemeral port — read it back with {!port}), 4 workers, a fresh
    {!Admission} controller, no history. [?history] is a store the
    caller opened and closes after {!stop}. Raises [Unix.Unix_error]
    if the address cannot be bound. *)
val start :
  ?bind_addr:string ->
  ?port:int ->
  ?workers:int ->
  ?admission:Admission.t ->
  ?history:Obs.Tsdb.t ->
  unit ->
  t

(** Idempotent. Wakes every blocked thread, shuts live connections
    down, joins the pool. In-flight [/events] streams end with the
    terminating chunk. Then detaches this server's tracing sink from
    every hosted net, unwires its history from every served board and
    removes its tenant SLOs. *)
val stop : t -> unit

(** The actual bound port. *)
val port : t -> int

(** Requests this server answered. *)
val requests_served : t -> int

(** {1 The write API}

    Mounted on the same server, guarded by the server's
    {!Admission} controller (tenant from the [x-tenant] header or
    [?tenant=], default ["anon"]; only the owning tenant may touch a
    network — others get 403):

    - [GET /nets] — hosted networks, JSON.
    - [POST /nets?id=NAME] — create/load from the spec body
      (201; 409 duplicate id; 422 bad spec, line-numbered).
    - [GET /nets/:id/state] — every variable with rendered value and
      justification.
    - [POST /nets/:id/set] — NDJSON batch, one
      [{"var":..,"value":..,"just":..}] per line; each line is one
      write episode, journaled before it is acknowledged. Per-item
      results; 422 if any failed, 503 + [retry-after] if the
      wall-clock deadline aborted the tail of the batch.
    - [POST /nets/:id/why?var=] / [/blame?var=] — {!Obs.Answer.why},
      {!Obs.Answer.blame} over the hosted network's provenance store.
    - [POST /nets/:id/snapshot] — checkpoint now (journal truncated).
    - [POST /nets/:id/drop] — final snapshot, unhost.
    - [GET /admission] — per-tenant admission counters.

    Backpressure: 429 ([Busy]/[Quarantined]) and 503 ([Overloaded])
    always carry integer [retry-after] seconds, so one abusive or
    stalled writer never starves other tenants (they are bounded per
    tenant, not globally punished). *)

(** {1 Long-horizon history}

    With [?history] given to {!start}, every served board samples its
    instruments into the store on each window rotation (series
    prefixed by the network name), and {!history_tick} adds the
    server's own counters plus per-tenant admission totals — then
    evaluates one availability SLO per tenant ({!Obs.Slo}: target
    0.99, windows 60 s at burn 2 and 300 s at burn 1, firing onto
    this server's [/alerts] and [/healthz] only). Read side:

    - [GET /series] — {!Obs.Answer.history}.
    - [GET /query?metric=&from=&to=&step=] — {!Obs.Answer.query};
      defaults: the last hour. 404 without a store, 422 on a missing
      metric or bad step.
    - [GET /slo] — {!Obs.Answer.slos}. *)

(** One sampling tick: re-point every served board at the store (so
    networks served since the last tick join), then serve counters and
    per-tenant admission totals into it (timestamps from [now], default
    wall clock), then per-tenant SLO evaluation. No-op without a store
    or once stopped. The CLI's serve loop calls this once a second. *)
val history_tick : ?now:float -> t -> unit

(** {1 Request tracing}

    End-to-end spans across the write path, off until the server's
    tracer is enabled ([Obs.Tracing.set_enabled (tracer t) true]).
    Then every request carries a trace context from the first parsed
    byte to the journal fsync: a root span named by the matched route,
    with [parse], [admit] (rejections finish it as an annotated
    terminal span), [episode] (the engine's episode bracket, with
    propagate/drain/check children from the phase timings; the
    tracer's kernel sink joins a hosted net on its first traced
    write), [append] and [fsync] stages under one trace id.
    [GET /trace] serves the ring as Chrome trace-event JSON (open in
    Perfetto or chrome://tracing), and the per-stage latency
    histograms ([serve.stage.parse|admit|episode|append|fsync], µs)
    join [/metrics]. Disabled, the whole machinery costs each request
    one boolean load. *)

(** The server's request tracer. *)
val tracer : t -> Obs.Tracing.t
