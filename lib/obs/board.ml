(* The one observer of a network: a ring buffer, a metrics registry, a
   profiler, the continuous-monitoring trio (rolling window, tail
   sampler, watchdog) and the provenance store, all reading the one
   event log the engine writes for the network, plus one hook at each
   episode end.  Every hosted network, the shell session and the CLI
   demos carry one. *)

open Constraint_kernel
module L = Event_log

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
  b_ring : 'a Ring.t; (* reads the network's log *)
  b_metrics : Metrics.t;
  b_ks : Metrics.kernel_set;
  b_profiler : Profiler.t;
  b_window : Window.t;
  b_sampler : 'a Sampler.t;
  b_watchdog : Watchdog.t;
  b_prov : 'a Provenance.t;
  (* network sink-error total at the last episode end, and the log's
     violation and quarantine counts last noted in the window, for
     per-window deltas *)
  mutable b_sink_errs_seen : int;
  mutable b_viol_seen : int;
  mutable b_quar_seen : int;
  (* long-horizon history sink; sampled at each window rotation (a
     ref cell: the rotation callback closes over it before the board
     record exists) *)
  b_history : history option ref;
}

let process_started = Unix.gettimeofday ()

(* Resident set size from /proc/self/statm (field 2, in 4 KiB pages:
   4096 is correct on every platform this runs on).  One descriptor for
   the process, opened on first use, rewound and read into a small
   buffer under a lock: two system calls, where opening the file through
   a buffered channel cost three and a 64 KiB buffer.  [None] off
   Linux. *)
let statm = lazy (Unix.openfile "/proc/self/statm" [ O_RDONLY; O_CLOEXEC ] 0)

let statm_buf = Bytes.create 128

let statm_mu = Mutex.create ()

let read_rss_bytes () =
  Mutex.protect statm_mu (fun () ->
      match
        let fd = Lazy.force statm in
        ignore (Unix.lseek fd 0 Unix.SEEK_SET);
        Unix.read fd statm_buf 0 (Bytes.length statm_buf)
      with
      | n -> (
        match String.split_on_char ' ' (Bytes.sub_string statm_buf 0 n) with
        | _ :: resident :: _ ->
          Option.map
            (fun pages -> float_of_int pages *. 4096.)
            (int_of_string_opt resident)
        | _ -> None)
      | exception (Unix.Unix_error _ | Lazy.Undefined) -> None)

(* OCaml runtime gauges, refreshed from [Gc.quick_stat] (the cheap,
   non-forcing variant).  Sampled once at creation plus once per window
   rotation, so the propagation hot path never reads GC statistics. *)
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

(* Bring the kernel-event counters and the window's violation and
   quarantine tallies up to the log's counts.  Done at every episode end
   and before the registry or the window is read, so events logged
   between episodes (pokes, manual quarantines) are never missed.  A
   reader may run this on another thread than the episodes': counters
   are set, not added to, and a tally claims its delta before noting
   it. *)
let sync b =
  let c = (Ring.log b.b_ring).Types.lg_counts in
  let ks = b.b_ks in
  let set = Metrics.set_count in
  set ks.ks_assign c.(L.c_assign);
  set ks.ks_reset c.(L.c_reset);
  set ks.ks_activate c.(L.c_activate);
  set ks.ks_check c.(L.c_check);
  set ks.ks_violation c.(L.c_violation);
  set ks.ks_restore c.(L.c_restore);
  set ks.ks_quarantine c.(L.c_quarantine);
  set ks.ks_ep_total c.(L.c_start);
  set ks.ks_sched_checking c.(L.c_sched_checking);
  set ks.ks_sched_functional c.(L.c_sched_functional);
  set ks.ks_sched_implicit c.(L.c_sched_implicit);
  set ks.ks_sched_other c.(L.c_sched_other);
  set ks.ks_schedule
    (c.(L.c_sched_checking) + c.(L.c_sched_functional)
    + c.(L.c_sched_implicit) + c.(L.c_sched_other));
  let w = b.b_window in
  let viol = c.(L.c_violation) - b.b_viol_seen in
  b.b_viol_seen <- b.b_viol_seen + viol;
  for _ = 1 to viol do Window.note_violation w done;
  let quar = c.(L.c_quarantine) - b.b_quar_seen in
  b.b_quar_seen <- b.b_quar_seen + quar;
  for _ = 1 to quar do Window.note_quarantine w done

(* The log's episode-end hook: everything the board does per episode.
   The end row is already the newest row of the log, and the log has
   closed the episode's frame (provenance's rollback included). *)
let episode_ended net b sp =
  sync b;
  let lg = Ring.log b.b_ring in
  (* wakeup-discipline gauges mirror the network's cumulative counters
     once per episode *)
  let s = net.Types.net_stats in
  Metrics.observe_episode b.b_ks sp ~wakeups:s.Types.k_wakeups
    ~suppressed:s.Types.k_suppressed;
  (* promote from the ring before anything else overwrites it *)
  if lg.Types.lg_depth = 0 then
    Sampler.finished b.b_sampler ~start:(max 0 lg.Types.lg_ended_start)
      ~violated:(lg.Types.lg_ended_viol > 0)
      ~quarantined:(lg.Types.lg_ended_quar > 0) sp;
  let errs = s.Types.k_sink_errors in
  Window.note_sink_errors b.b_window (errs - b.b_sink_errs_seen);
  b.b_sink_errs_seen <- errs;
  (* last: may rotate the window and run the watchdog *)
  Window.observe_span b.b_window sp

let attach ?(window_width = Window.Episodes 32)
    ?(rules = Watchdog.default_rules ()) ?(pp_value = fun _ -> "<opaque>")
    ?(scope = Provenance.scope ()) net =
  let ring = Ring.create ~capacity:256 () in
  let lg = Ring.log ring in
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
      b_ks = Metrics.kernel_set metrics;
      b_profiler = Profiler.of_log lg;
      b_window = w;
      b_sampler = sampler;
      b_watchdog = wd;
      b_prov = Provenance.create ~pp_value ~scope lg net;
      b_sink_errs_seen = 0;
      b_viol_seen = 0;
      b_quar_seen = 0;
      b_history = history;
    }
  in
  Engine.attach_log net lg ~on_episode_end:(episode_ended net b);
  b

let detach net = Engine.detach_log net

let metrics b =
  sync b;
  b.b_metrics

let profiler b = b.b_profiler

let provenance b = b.b_prov

let set_history ?(prefix = "") b ts =
  b.b_history := Option.map (fun ts -> history ts prefix) ts

let history b = Option.map (fun h -> h.hi_ts) !(b.b_history)

let window b =
  sync b;
  b.b_window

let sampler b = b.b_sampler

let watchdog b = b.b_watchdog

let spans b = Ring.spans b.b_ring

(* Close the current window if it holds anything, so a one-shot health
   report sees a completed (watchdog-evaluated) boundary. *)
let checkpoint b =
  sync b;
  if (Window.current b.b_window).Window.w_episodes > 0 then
    Window.rotate b.b_window
