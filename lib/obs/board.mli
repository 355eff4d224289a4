(** The standard observability bundle.

    [attach net] wires a fresh ring buffer, metrics registry and
    per-kind profiler into [net] as a single fused sink named
    ["board"] (one closure call and exception trap per event instead of
    three — the cheap always-on configuration); [detach net] removes
    exactly that sink, leaving any other (e.g. a JSONL exporter) alone.

    [attach ~monitor:true] additionally rides the continuous-monitoring
    trio on the same fused match: a rolling {!Window} (episode rates and
    latency quantiles per window), a tail {!Sampler} (exemplar traces of
    the slowest / violating / quarantining episodes, buffered by the
    board's own ring so the per-event cost is zero), and a {!Watchdog}
    evaluated at window boundaries and named after the network. The
    board holds its watchdog; nothing registers it. The shell session
    and [stem health]/[stem top] run monitored boards; [stem trace] and
    the benchmarks default to the bare board. *)

open Constraint_kernel

type 'a t

(** Build a board and attach its sink; a same-named sink already on the
    network is replaced in place. Defaults: ring capacity 256; no
    monitor. With [~monitor:true] (the watchdog named after the
    network): [window_width] defaults to
    [Window.Episodes 32], [rules] to {!Watchdog.default_rules},
    [slow_k]/[head_every] to the {!Sampler.create} defaults. Monitored
    boards also carry OCaml runtime gauges
    ([runtime.gc.minor_collections], [runtime.gc.major_collections],
    [runtime.gc.heap_words], [runtime.gc.compactions]) refreshed from
    [Gc.quick_stat] once per window rotation — never on the event
    path — plus process gauges: [runtime.uptime_seconds] and, on
    Linux, [runtime.os.rss_bytes] (from [/proc/self/statm]; the gauge
    is simply absent where that file is). *)
val attach :
  ?ring_capacity:int ->
  ?monitor:bool ->
  ?window_width:Window.width ->
  ?rules:Watchdog.rule list ->
  ?slow_k:int ->
  ?head_every:int ->
  'a Types.network ->
  'a t

(** Remove the board's sink from the network. *)
val detach : 'a Types.network -> unit

val metrics : 'a t -> Metrics.t

val profiler : 'a t -> Profiler.t

val monitored : 'a t -> bool

(** Long-horizon history: once set (on a monitored board), every
    window rotation samples each registered instrument into [ts] —
    counters as running totals, gauges at their last value, histograms
    as [.p50]/[.p95]/[.p99] — plus the completed window's derived
    readings ([window.episodes], [window.episode_rate],
    [window.p99_us], …), each series name under [prefix ^ "."] when a
    prefix is given. Sampling cost is per window tick, never per
    event; sample timestamps come from the window's own clock.
    [set_history b None] stops sampling (repeated set/unset never
    stacks callbacks). Without a monitor there are no ticks, so this
    is a no-op. *)
val set_history : ?prefix:string -> 'a t -> Tsdb.t option -> unit

val history : 'a t -> Tsdb.t option

(** The monitor pieces; [None] unless built with [~monitor:true]. *)
val window : 'a t -> Window.t option

val sampler : 'a t -> 'a Sampler.t option

val watchdog : 'a t -> Watchdog.t option

(** Completed episode spans currently in the ring, oldest first. *)
val spans : 'a t -> Types.episode_span list

(** Force a window boundary now if the current window holds any
    episodes (so a one-shot health report sees a completed,
    watchdog-evaluated window). No-op without a monitor. *)
val checkpoint : 'a t -> unit
