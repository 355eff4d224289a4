(** The one observer of a network.

    [attach net] builds a ring buffer, a metrics registry, a per-kind
    profiler, the continuous-monitoring trio and a {!Provenance} store,
    all reading one {!Constraint_kernel.Event_log} that it gives [net]
    ({!Constraint_kernel.Engine.attach_log}): the engine writes each
    event there as a row, building no event, and calls the board once
    at each episode end. The board adds no sink. [detach net] takes the
    log off the network, leaving any sink (e.g. a JSONL exporter)
    alone.

    The monitoring trio is a rolling {!Window} (episode rates and
    latency quantiles per window), a tail {!Sampler} (exemplar traces of
    the slowest / violating / quarantining episodes, buffered by the
    board's own ring so the per-event cost is zero), and a {!Watchdog}
    evaluated at window boundaries and named after the network. The
    board holds its watchdog; nothing registers it. *)

open Constraint_kernel

type 'a t

(** Build a board and give its log to the network, replacing any log
    the network had. The ring holds 256 events;
    [window_width] defaults to [Window.Episodes 32], [rules] to
    {!Watchdog.default_rules}; the sampler keeps {!Sampler.create}'s
    defaults. [pp_value] (default ["<opaque>"]) renders the provenance
    store's values; without [scope] the store gets a scope of its own
    and stitches only within itself. Boards
    also carry OCaml runtime gauges
    ([runtime.gc.minor_collections], [runtime.gc.major_collections],
    [runtime.gc.heap_words], [runtime.gc.compactions]) refreshed from
    [Gc.quick_stat] once per window rotation — never on the event
    path — plus process gauges: [runtime.uptime_seconds] and, on
    Linux, [runtime.os.rss_bytes] (from [/proc/self/statm], one
    descriptor per process; the gauge is simply absent where that file
    is not). *)
val attach :
  ?window_width:Window.width ->
  ?rules:Watchdog.rule list ->
  ?pp_value:('a -> string) ->
  ?scope:Provenance.scope ->
  'a Types.network ->
  'a t

(** Take the board's log off the network. Its provenance store stays
    readable, and stays in its scope. *)
val detach : 'a Types.network -> unit

(** The registry, its kernel-event counters brought up to the log's
    counts. *)
val metrics : 'a t -> Metrics.t

val profiler : 'a t -> Profiler.t

val provenance : 'a t -> 'a Provenance.t

(** Long-horizon history: once set, every window rotation samples each
    registered instrument into [ts] — counters as running totals,
    gauges at their last value, histograms as [.p50]/[.p95]/[.p99] —
    plus the completed window's derived readings ([window.episodes],
    [window.episode_rate], [window.p99_us], …), each series name under
    [prefix ^ "."] when a prefix is given. Sampling cost is per window
    tick, never per event; sample timestamps come from the window's
    own clock. [set_history b None] stops sampling (repeated set/unset
    never stacks callbacks). *)
val set_history : ?prefix:string -> 'a t -> Tsdb.t option -> unit

val history : 'a t -> Tsdb.t option

val window : 'a t -> Window.t

val sampler : 'a t -> 'a Sampler.t

val watchdog : 'a t -> Watchdog.t

(** Completed episode spans currently in the ring, oldest first. *)
val spans : 'a t -> Types.episode_span list

(** Force a window boundary now if the current window holds any
    episodes (so a one-shot health report sees a completed,
    watchdog-evaluated window). *)
val checkpoint : 'a t -> unit
