(* A small metrics registry: named counters, gauges and fixed-bucket
   histograms, plus the kernel instruments a board aggregates a
   network's event log into.  All instruments are O(1) per observation and
   allocation-free after creation: their float state lives in all-float
   records, which OCaml stores flat, so an update boxes nothing. *)

open Constraint_kernel.Types

type counter = { c_name : string; mutable c_count : int }

type gauge_floats = { mutable g_last : float; mutable g_max : float }

type gauge = {
  g_name : string;
  g_f : gauge_floats;
  mutable g_samples : int;
}

type histogram_floats = {
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type histogram = {
  h_name : string;
  h_bounds : float array; (* inclusive upper bounds, ascending *)
  h_counts : int array; (* length = Array.length h_bounds + 1 (overflow) *)
  mutable h_count : int;
  h_f : histogram_floats;
}

type item = Counter of counter | Gauge of gauge | Histogram of histogram

type t = {
  m_items : (string, item) Hashtbl.t;
  mutable m_order : string list; (* reverse creation order *)
}

let create () = { m_items = Hashtbl.create 32; m_order = [] }

let item_name = function
  | Counter c -> c.c_name
  | Gauge g -> g.g_name
  | Histogram h -> h.h_name

let register t it =
  let name = item_name it in
  if Hashtbl.mem t.m_items name then
    invalid_arg (Printf.sprintf "Metrics: %S already registered" name);
  Hashtbl.add t.m_items name it;
  t.m_order <- name :: t.m_order

let find t name = Hashtbl.find_opt t.m_items name

let items t =
  List.rev_map (fun n -> Hashtbl.find t.m_items n) t.m_order

let item_count t = Hashtbl.length t.m_items

(* ---------------- counters ---------------- *)

let counter t name =
  match find t name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg (Printf.sprintf "Metrics: %S is not a counter" name)
  | None ->
    let c = { c_name = name; c_count = 0 } in
    register t (Counter c);
    c

let incr ?(by = 1) c = c.c_count <- c.c_count + by

(* the hot-path increment: no optional argument to box *)
let tick c = c.c_count <- c.c_count + 1

let set_count c n = c.c_count <- n

let count c = c.c_count

(* ---------------- gauges ---------------- *)

let gauge t name =
  match find t name with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg (Printf.sprintf "Metrics: %S is not a gauge" name)
  | None ->
    let g =
      { g_name = name; g_f = { g_last = 0.; g_max = neg_infinity };
        g_samples = 0 }
    in
    register t (Gauge g);
    g

let[@inline] set_gauge g x =
  g.g_f.g_last <- x;
  if x > g.g_f.g_max then g.g_f.g_max <- x;
  g.g_samples <- g.g_samples + 1

(* ---------------- histograms ---------------- *)

(* 1-2-5 log-scale bounds, intended for microsecond latencies. *)
let default_time_bounds =
  [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1e3; 2e3; 5e3; 1e4; 2e4;
     5e4; 1e5; 1e6 |]

(* powers of two, for depths and counts *)
let default_size_bounds =
  [| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024.; 4096. |]

(* An unregistered histogram, for embedding in other structures (the
   rolling windows of {!Window} allocate one per slot; registering those
   would grow the registry without bound). *)
let histogram_standalone ?(bounds = default_time_bounds) name =
  {
    h_name = name;
    h_bounds = bounds;
    h_counts = Array.make (Array.length bounds + 1) 0;
    h_count = 0;
    h_f = { h_sum = 0.; h_min = infinity; h_max = neg_infinity };
  }

let histogram ?(bounds = default_time_bounds) t name =
  match find t name with
  | Some (Histogram h) -> h
  | Some _ -> invalid_arg (Printf.sprintf "Metrics: %S is not a histogram" name)
  | None ->
    let h = histogram_standalone ~bounds name in
    register t (Histogram h);
    h

(* Inlined, and a loop rather than a local recursive function, so the
   observed float is never boxed to make the call. *)
let[@inline] observe h x =
  let n = Array.length h.h_bounds in
  let i = ref 0 in
  while !i < n && not (x <= Array.unsafe_get h.h_bounds !i) do i := !i + 1 done;
  let i = !i in
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_count <- h.h_count + 1;
  let f = h.h_f in
  f.h_sum <- f.h_sum +. x;
  if x < f.h_min then f.h_min <- x;
  if x > f.h_max then f.h_max <- x

let mean h = if h.h_count = 0 then 0. else h.h_f.h_sum /. float_of_int h.h_count

(* Approximate quantile: find the bucket holding the q-th observation
   and interpolate linearly inside it (bounded by observed min/max). *)
let quantile h q =
  if h.h_count = 0 then 0.
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let { h_min; h_max; _ } = h.h_f in
    let rank = q *. float_of_int h.h_count in
    let n = Array.length h.h_bounds in
    let rec go i acc =
      if i > n then h_max
      else
        let acc' = acc + h.h_counts.(i) in
        if float_of_int acc' >= rank then begin
          let lo = if i = 0 then h_min else h.h_bounds.(i - 1) in
          let hi = if i = n then h_max else h.h_bounds.(i) in
          let lo = Float.min (Float.max lo h_min) h_max
          and hi = Float.max (Float.min hi h_max) h_min in
          (* an empty bucket can only satisfy the rank test at its lower
             boundary (rank = acc), so that boundary is the answer *)
          if h.h_counts.(i) = 0 then Float.min lo hi
          else
            let frac =
              (rank -. float_of_int acc) /. float_of_int h.h_counts.(i)
            in
            lo +. ((hi -. lo) *. Float.max 0. (Float.min 1. frac))
        end
        else go (i + 1) acc'
    in
    go 0 0
  end

(* ---------------- Prometheus text exposition ---------------- *)

(* The text exposition format (version 0.0.4) the Prometheus server
   scrapes.  Names are sanitised to [a-zA-Z0-9_:] (our dotted names
   become underscored); label values escape backslash, double-quote and
   newline per the format spec; HELP text escapes backslash and
   newline.  Counters gain the conventional "_total" suffix (unless the
   sanitised name already ends in it), histograms render as cumulative
   "_bucket" series plus "_sum"/"_count". *)

let prometheus_escape s =
  let clean =
    let n = String.length s in
    let rec go i =
      i >= n
      || (match String.unsafe_get s i with
         | '\\' | '"' | '\n' -> false
         | _ -> go (i + 1))
    in
    go 0
  in
  if clean then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

(* HELP text: only backslash and newline are escaped (quotes are legal
   there). *)
let help_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prometheus_name ?(namespace = "stem") name =
  let buf = Buffer.create (String.length name + String.length namespace + 1) in
  if namespace <> "" then begin
    Buffer.add_string buf namespace;
    Buffer.add_char buf '_'
  end;
  String.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> Buffer.add_char buf c
      | '0' .. '9' ->
        if i = 0 && namespace = "" then Buffer.add_char buf '_';
        Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  Buffer.contents buf

let prometheus_family ?namespace it =
  match it with
  | Counter c ->
    let base = prometheus_name ?namespace c.c_name in
    let fam =
      if String.length base >= 6 && String.sub base (String.length base - 6) 6 = "_total"
      then base
      else base ^ "_total"
    in
    (fam, "counter")
  | Gauge g -> (prometheus_name ?namespace g.g_name, "gauge")
  | Histogram h -> (prometheus_name ?namespace h.h_name, "histogram")

let add_label_set buf = function
  | [] -> ()
  | labels ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        Buffer.add_string buf (prometheus_escape v);
        Buffer.add_char buf '"')
      labels;
    Buffer.add_char buf '}'

let add_series buf name labels value =
  Buffer.add_string buf name;
  add_label_set buf labels;
  Buffer.add_char buf ' ';
  Buffer.add_string buf value;
  Buffer.add_char buf '\n'

(* %g never produces the "Inf"/"NaN" spellings Prometheus wants, so
   special-case the non-finite values. *)
let prom_float v =
  match Float.classify_float v with
  | FP_nan -> "NaN"
  | FP_infinite -> if v > 0. then "+Inf" else "-Inf"
  | _ -> Printf.sprintf "%g" v

let render_prometheus_series ?namespace ?(labels = []) buf it =
  let fam, _ = prometheus_family ?namespace it in
  match it with
  | Counter c -> add_series buf fam labels (string_of_int c.c_count)
  | Gauge g -> add_series buf fam labels (prom_float g.g_f.g_last)
  | Histogram h ->
    let acc = ref 0 in
    Array.iteri
      (fun i bound ->
        acc := !acc + h.h_counts.(i);
        add_series buf (fam ^ "_bucket")
          (labels @ [ ("le", prom_float bound) ])
          (string_of_int !acc))
      h.h_bounds;
    add_series buf (fam ^ "_bucket")
      (labels @ [ ("le", "+Inf") ])
      (string_of_int h.h_count);
    add_series buf (fam ^ "_sum") labels (prom_float h.h_f.h_sum);
    add_series buf (fam ^ "_count") labels (string_of_int h.h_count)

let add_family_header buf ~fam ~ty ~help =
  Buffer.add_string buf "# HELP ";
  Buffer.add_string buf fam;
  Buffer.add_char buf ' ';
  Buffer.add_string buf (help_escape help);
  Buffer.add_char buf '\n';
  Buffer.add_string buf "# TYPE ";
  Buffer.add_string buf fam;
  Buffer.add_char buf ' ';
  Buffer.add_string buf ty;
  Buffer.add_char buf '\n'

(* ---------------- the kernel instruments ---------------- *)

(* Aggregates a network's event stream: one counter per event type,
   outcome counters, and the histograms the bare NIL feedback of the
   paper could never answer — episode latency (overall and per phase),
   inferences per episode, agenda depth. *)

type kernel_set = {
  ks_assign : counter;
  ks_reset : counter;
  ks_activate : counter;
  ks_schedule : counter;
  ks_check : counter;
  ks_violation : counter;
  ks_restore : counter;
  ks_quarantine : counter;
  ks_ep_total : counter;
  ks_committed : counter;
  ks_rolled_back : counter;
  ks_probe_ok : counter;
  ks_probe_rejected : counter;
  ks_latency : histogram;
  ks_propagate : histogram;
  ks_drain : histogram;
  ks_check_time : histogram;
  ks_restore_time : histogram;
  ks_steps : histogram;
  ks_agenda : histogram;
  (* per-stratum agenda pushes (checking/functional/implicit cost
     classes; [ks_sched_other] catches custom priorities) *)
  ks_sched_checking : counter;
  ks_sched_functional : counter;
  ks_sched_implicit : counter;
  ks_sched_other : counter;
  (* wakeup-discipline gauges, set from the network's counters at every
     episode end by the board, which knows its network *)
  ks_wakeups : gauge;
  ks_suppressed : gauge;
}

let kernel_set t =
  {
    ks_assign = counter t "events.assign";
    ks_reset = counter t "events.reset";
    ks_activate = counter t "events.activate";
    ks_schedule = counter t "events.schedule";
    ks_check = counter t "events.check";
    ks_violation = counter t "events.violation";
    ks_restore = counter t "events.restore";
    ks_quarantine = counter t "events.quarantine";
    ks_ep_total = counter t "episodes.total";
    ks_committed = counter t "episodes.committed";
    ks_rolled_back = counter t "episodes.rolled_back";
    ks_probe_ok = counter t "episodes.probe_ok";
    ks_probe_rejected = counter t "episodes.probe_rejected";
    ks_latency = histogram t "episode.latency_us";
    ks_propagate = histogram t "episode.propagate_us";
    ks_drain = histogram t "episode.drain_us";
    ks_check_time = histogram t "episode.check_us";
    ks_restore_time = histogram t "episode.restore_us";
    ks_steps = histogram ~bounds:default_size_bounds t "episode.steps";
    ks_agenda = histogram ~bounds:default_size_bounds t "episode.agenda_depth";
    ks_sched_checking = counter t "agenda.scheduled.checking";
    ks_sched_functional = counter t "agenda.scheduled.functional";
    ks_sched_implicit = counter t "agenda.scheduled.implicit";
    ks_sched_other = counter t "agenda.scheduled.other";
    ks_wakeups = gauge t "wakeups.total";
    ks_suppressed = gauge t "wakeups.suppressed";
  }

(* An episode's latency in microseconds.  The per-episode paths call
   this (or {!observe_latency}) rather than pass floats between
   modules, which boxes them wherever cross-module inlining is off. *)
let[@inline] latency_us sp =
  let t = sp.es_timings in
  (t.ph_propagate +. t.ph_drain +. t.ph_check +. t.ph_restore) *. 1e6

let observe_latency h sp = observe h (latency_us sp)

let observe_episode ks sp ~wakeups ~suppressed =
  set_gauge ks.ks_wakeups (float_of_int wakeups);
  set_gauge ks.ks_suppressed (float_of_int suppressed);
  (match sp.es_outcome with
  | E_committed -> tick ks.ks_committed
  | E_rolled_back -> tick ks.ks_rolled_back
  | E_probe_ok -> tick ks.ks_probe_ok
  | E_probe_rejected -> tick ks.ks_probe_rejected);
  let us x = x *. 1e6 in
  observe ks.ks_latency (latency_us sp);
  observe ks.ks_propagate (us sp.es_timings.ph_propagate);
  observe ks.ks_drain (us sp.es_timings.ph_drain);
  observe ks.ks_check_time (us sp.es_timings.ph_check);
  observe ks.ks_restore_time (us sp.es_timings.ph_restore);
  observe ks.ks_steps (float_of_int sp.es_steps);
  observe ks.ks_agenda (float_of_int sp.es_agenda_hwm)

let samples h = h.h_count

let gauge_last g = g.g_f.g_last

let gauge_max g = g.g_f.g_max
