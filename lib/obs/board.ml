(* The one observer of a network: a ring buffer, a metrics registry, a
   profiler, the continuous-monitoring trio (rolling window, tail
   sampler, watchdog) and the provenance store, fed by one sink.  Every
   hosted network, the shell session and the CLI demos carry one. *)

open Constraint_kernel

(* Long-horizon history: where to sample, and every series resolved
   once for this board and prefix — per instrument its series (a
   histogram's three quantile series), rebuilt only when the registry
   grows. *)
type history = {
  hi_ts : Tsdb.t;
  hi_name : string -> string; (* the prefix applied *)
  mutable hi_items : (Metrics.item * Tsdb.handle array) array;
  hi_window : Tsdb.handle array;
}

type 'a t = {
  b_ring : 'a Ring.t;
  b_metrics : Metrics.t;
  b_profiler : Profiler.t;
  b_window : Window.t;
  b_sampler : 'a Sampler.t;
  b_watchdog : Watchdog.t;
  b_prov : 'a Provenance.t;
  (* network sink-error total at the last episode end, for per-window
     deltas *)
  mutable b_sink_errs_seen : int;
  (* long-horizon history sink; sampled at each window rotation (a
     ref cell: the rotation callback closes over it before the board
     record exists) *)
  b_history : history option ref;
}

let sink_name = "board"

let process_started = Unix.gettimeofday ()

(* OCaml runtime gauges, refreshed from [Gc.quick_stat] (the cheap,
   non-forcing variant).  Sampled once at creation plus once per window
   rotation, so the propagation hot path never reads GC statistics. *)
(* Resident set size from /proc/self/statm (field 2, in pages; statm
   reports pages of the historical 4 KiB size regardless of the
   kernel's actual page size only on some archs, so we scale by the
   real page size when getconf-style probing is unavailable: 4096 is
   correct on every platform this runs on).  [None] off Linux. *)
let read_rss_bytes () =
  match In_channel.with_open_text "/proc/self/statm" In_channel.input_line with
  | Some line -> (
    match String.split_on_char ' ' line with
    | _ :: resident :: _ -> (
      match int_of_string_opt resident with
      | Some pages -> Some (float_of_int pages *. 4096.)
      | None -> None)
    | _ -> None)
  | None -> None
  | exception Sys_error _ -> None

let register_gc_gauges metrics w =
  let minor = Metrics.gauge metrics "runtime.gc.minor_collections" in
  let major = Metrics.gauge metrics "runtime.gc.major_collections" in
  let heap = Metrics.gauge metrics "runtime.gc.heap_words" in
  let compactions = Metrics.gauge metrics "runtime.gc.compactions" in
  let uptime = Metrics.gauge metrics "runtime.uptime_seconds" in
  (* process gauges ride the same tick; rss is registered only where
     /proc exists, so non-Linux hosts carry no dead gauge *)
  let rss =
    match read_rss_bytes () with
    | Some _ -> Some (Metrics.gauge metrics "runtime.os.rss_bytes")
    | None -> None
  in
  let sample () =
    let s = Gc.quick_stat () in
    Metrics.set_gauge minor (float_of_int s.Gc.minor_collections);
    Metrics.set_gauge major (float_of_int s.Gc.major_collections);
    Metrics.set_gauge heap (float_of_int s.Gc.heap_words);
    Metrics.set_gauge compactions (float_of_int s.Gc.compactions);
    Metrics.set_gauge uptime (Unix.gettimeofday () -. process_started);
    match rss with
    | Some g -> (
      match read_rss_bytes () with
      | Some bytes -> Metrics.set_gauge g bytes
      | None -> ())
    | None -> ()
  in
  sample ();
  Window.on_rotate w (fun _ -> sample ())

let window_series =
  [| "window.episodes"; "window.committed"; "window.violations";
     "window.episode_rate"; "window.violation_rate"; "window.p50_us";
     "window.p95_us"; "window.p99_us" |]

let item_series ts name it =
  let n = name (Metrics.item_name it) in
  Array.map (Tsdb.handle ts)
    (match it with
    | Metrics.Counter _ | Metrics.Gauge _ -> [| n |]
    | Metrics.Histogram _ -> [| n ^ ".p50"; n ^ ".p95"; n ^ ".p99" |])

let history ts prefix =
  let name n = if prefix = "" then n else prefix ^ "." ^ n in
  { hi_ts = ts; hi_name = name; hi_items = [||];
    hi_window = Array.map (fun n -> Tsdb.handle ts (name n)) window_series }

(* One window tick's worth of history samples: every registered
   instrument (counters as running totals, gauges at their last value,
   histograms as p50/p95/p99) plus the completed window's own derived
   rates, appended as one batch.  The sample timestamp is the window's
   close time, derived from the window's clock so test clocks yield
   deterministic series. *)
let sample_history metrics h (snap : Window.snapshot) =
  if Array.length h.hi_items <> Metrics.item_count metrics then
    h.hi_items <-
      Array.of_list
        (List.map (fun it -> (it, item_series h.hi_ts h.hi_name it))
           (Metrics.items metrics));
  let now = snap.Window.w_opened +. snap.Window.w_duration in
  Tsdb.append_batch h.hi_ts ~t:now (fun put ->
      Array.iter
        (fun (it, names) ->
          match it with
          | Metrics.Counter c -> put names.(0) (float_of_int (Metrics.count c))
          | Metrics.Gauge g -> put names.(0) (Metrics.gauge_last g)
          | Metrics.Histogram hg ->
            if Metrics.samples hg > 0 then begin
              put names.(0) (Metrics.quantile hg 0.5);
              put names.(1) (Metrics.quantile hg 0.95);
              put names.(2) (Metrics.quantile hg 0.99)
            end)
        h.hi_items;
      let w = h.hi_window in
      put w.(0) (float_of_int snap.Window.w_episodes);
      put w.(1) (float_of_int snap.Window.w_committed);
      put w.(2) (float_of_int snap.Window.w_violations);
      put w.(3) (Window.episode_rate snap);
      put w.(4) (Window.violation_rate snap);
      if snap.Window.w_episodes > 0 then begin
        put w.(5) (Window.p50 snap);
        put w.(6) (Window.p95 snap);
        put w.(7) (Window.p99 snap)
      end)

(* The consumers are fused into one subscription: a single closure
   call, exception trap and event match per trace event instead of one
   each, which measurably matters on the propagation hot path.  The
   ring push is match-free; every other consumer updates from its arm
   of the one match below, through the instruments and feeds its module
   exposes for exactly this purpose.  The monitor's per-event work is a
   few int stores on episode boundaries and violations; provenance
   records assignments, resets and episode boundaries. *)
let sink net b =
  let ring = b.b_ring in
  let ks = Metrics.kernel_set b.b_metrics in
  let p = b.b_profiler in
  let w = b.b_window and sampler = b.b_sampler and prov = b.b_prov in
  let emit ep seq ev =
    Ring.push ring ep seq ev;
    match (ev : _ Types.trace_event) with
    | T_assign (v, _, src) ->
      Metrics.tick ks.ks_assign;
      Provenance.assigned prov ep seq v src
    | T_reset (v, src) ->
      Metrics.tick ks.ks_reset;
      Provenance.reset prov ep seq v src
    | T_activate (c, _) ->
      Metrics.tick ks.ks_activate;
      let e = Profiler.entry_of_cstr p c in
      e.Profiler.e_activations <- e.Profiler.e_activations + 1
    | T_schedule (c, priority) ->
      Metrics.tick_schedule ks priority;
      let e = Profiler.entry_of_cstr p c in
      e.Profiler.e_scheduled <- e.Profiler.e_scheduled + 1
    | T_check (c, ok) ->
      Metrics.tick ks.ks_check;
      let e = Profiler.entry_of_cstr p c in
      e.Profiler.e_checks <- e.Profiler.e_checks + 1;
      if not ok then
        e.Profiler.e_check_failures <- e.Profiler.e_check_failures + 1
    | T_violation viol ->
      Metrics.tick ks.ks_violation;
      (match viol.Types.viol_cstr_kind with
      | Some kind ->
        let e = Profiler.entry p kind in
        e.Profiler.e_violations <- e.Profiler.e_violations + 1
      | None -> ());
      Window.note_violation w;
      Sampler.violation_seen sampler
    | T_restore _ -> Metrics.tick ks.ks_restore
    | T_quarantine (c, _) ->
      Metrics.tick ks.ks_quarantine;
      let e = Profiler.entry_of_cstr p c in
      e.Profiler.e_quarantines <- e.Profiler.e_quarantines + 1;
      Window.note_quarantine w;
      Sampler.quarantine_seen sampler
    | T_episode_start (id, label, parent) ->
      Metrics.tick ks.ks_ep_total;
      Provenance.episode_started prov id label parent;
      Sampler.episode_started sampler id
    | T_episode_end sp ->
      (* wakeup-discipline gauges mirror the network's cumulative
         counters once per episode *)
      let s = net.Types.net_stats in
      Metrics.set_gauge ks.ks_wakeups (float_of_int s.Types.k_wakeups);
      Metrics.set_gauge ks.ks_suppressed (float_of_int s.Types.k_suppressed);
      Metrics.observe_span ks sp;
      Provenance.episode_ended prov sp;
      (* promote from the ring before anything else overwrites it *)
      Sampler.episode_ended sampler sp;
      let errs = s.Types.k_sink_errors in
      Window.note_sink_errors w (errs - b.b_sink_errs_seen);
      b.b_sink_errs_seen <- errs;
      (* last: may rotate the window and run the watchdog *)
      Window.observe_span w sp
  in
  Types.{ snk_name = sink_name; snk_emit = emit }

let attach ?(window_width = Window.Episodes 32)
    ?(rules = Watchdog.default_rules ()) ?(pp_value = fun _ -> "<opaque>")
    ?(scope = Provenance.scope ()) net =
  let ring = Ring.create ~capacity:256 () in
  let metrics = Metrics.create () in
  let history = ref None in
  let w = Window.create ~width:window_width () in
  let sampler = Sampler.create ~ring () in
  let wd = Watchdog.create ~name:net.Types.net_name rules in
  (* every window boundary: fresh slow top-K, then rule evaluation *)
  Window.on_rotate w (fun _ -> Sampler.rotate sampler);
  Watchdog.watch wd w;
  register_gc_gauges metrics w;
  (* registered once here — [set_history] only swings the cell, so
     repeated enable/disable cannot stack rotation callbacks *)
  Window.on_rotate w (fun snap ->
      match !history with
      | Some h -> sample_history metrics h snap
      | None -> ());
  let b =
    {
      b_ring = ring;
      b_metrics = metrics;
      b_profiler = Profiler.create ();
      b_window = w;
      b_sampler = sampler;
      b_watchdog = wd;
      b_prov = Provenance.create ~pp_value ~scope net;
      b_sink_errs_seen = 0;
      b_history = history;
    }
  in
  Engine.add_sink net (sink net b);
  b

let detach net = ignore (Engine.remove_sink net sink_name)

let metrics b = b.b_metrics

let profiler b = b.b_profiler

let provenance b = b.b_prov

let set_history ?(prefix = "") b ts =
  b.b_history := Option.map (fun ts -> history ts prefix) ts

let history b = Option.map (fun h -> h.hi_ts) !(b.b_history)

let window b = b.b_window

let sampler b = b.b_sampler

let watchdog b = b.b_watchdog

let spans b = Ring.spans b.b_ring

(* Close the current window if it holds anything, so a one-shot health
   report sees a completed (watchdog-evaluated) boundary. *)
let checkpoint b =
  if (Window.current b.b_window).Window.w_episodes > 0 then
    Window.rotate b.b_window
