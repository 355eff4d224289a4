(* Rolling-window telemetry: the continuous-monitoring answer to "what
   happened in the last second / last N episodes", as opposed to the
   cumulative registry of {!Metrics} which only ever grows.

   The window keeps one *current* slot accumulating episode spans and
   violation/quarantine counts, and a fixed ring of the most recently
   *completed* slots — so memory is bounded by [slots] regardless of how
   long the process runs.  A slot closes ("rotates") when its width is
   reached: either a fixed number of episodes (deterministic, what the
   tests use) or a wall-clock span (what a live session wants).  Closed
   slots are frozen snapshots; their histograms are never written again,
   so readers need no locking or copying.

   Rotation is also the watchdog's heartbeat: every registered on-rotate
   callback receives the completed snapshot (see {!Watchdog.watch}). *)

open Constraint_kernel.Types

type width = Episodes of int | Seconds of float

(* A slot doubles as the snapshot type: while current its counters
   mutate, once rotated out it is frozen by convention (nothing writes
   to history entries). *)
type snapshot = {
  w_index : int; (* 0-based window number since creation *)
  w_opened : float; (* clock when the slot opened *)
  (* clock span to the close; while the slot is open, set from
     [wt_open] when read through [current] *)
  mutable w_duration : float;
  mutable w_episodes : int;
  mutable w_committed : int;
  mutable w_rolled_back : int;
  mutable w_probe_ok : int;
  mutable w_probe_rejected : int;
  mutable w_violations : int;
  mutable w_quarantines : int;
  mutable w_sink_errors : int;
  mutable w_steps : int; (* total inference runs *)
  w_latency : Metrics.histogram; (* episode latency, µs *)
}

type open_span = { mutable o_duration : float }

type t = {
  wt_width : width;
  wt_clock : unit -> float;
  wt_slots : int; (* completed snapshots retained *)
  wt_history : snapshot option array; (* ring, indexed by index mod slots *)
  mutable wt_completed : int; (* total windows ever closed *)
  mutable wt_cur : snapshot;
  (* the open slot's span to its latest episode, in an all-float
     record so the per-episode update boxes nothing *)
  wt_open : open_span;
  mutable wt_on_rotate : (snapshot -> unit) list; (* registration order *)
}

(* The default clock, compared physically so the common case reads it
   without boxing the result. *)
let default_clock : unit -> float = Unix.gettimeofday

let[@inline] now clock =
  if clock == default_clock then Unix.gettimeofday () else clock ()

let fresh_slot ~clock index =
  {
    w_index = index;
    w_opened = clock ();
    w_duration = 0.;
    w_episodes = 0;
    w_committed = 0;
    w_rolled_back = 0;
    w_probe_ok = 0;
    w_probe_rejected = 0;
    w_violations = 0;
    w_quarantines = 0;
    w_sink_errors = 0;
    w_steps = 0;
    w_latency = Metrics.histogram_standalone "window.latency_us";
  }

let create ?(slots = 8) ?(width = Episodes 64)
    ?(clock = default_clock) () =
  let slots = max 1 slots in
  (match width with
  | Episodes n when n < 1 -> invalid_arg "Window.create: width < 1 episode"
  | Seconds s when s <= 0. -> invalid_arg "Window.create: width <= 0 s"
  | _ -> ());
  {
    wt_width = width;
    wt_clock = clock;
    wt_slots = slots;
    wt_history = Array.make slots None;
    wt_completed = 0;
    wt_cur = fresh_slot ~clock 0;
    wt_open = { o_duration = 0. };
    wt_on_rotate = [];
  }

let on_rotate t f = t.wt_on_rotate <- t.wt_on_rotate @ [ f ]

let rotate t =
  let closed = t.wt_cur in
  closed.w_duration <- t.wt_clock () -. closed.w_opened;
  t.wt_history.(closed.w_index mod t.wt_slots) <- Some closed;
  t.wt_completed <- t.wt_completed + 1;
  t.wt_cur <- fresh_slot ~clock:t.wt_clock (closed.w_index + 1);
  t.wt_open.o_duration <- 0.;
  List.iter (fun f -> f closed) t.wt_on_rotate

let maybe_rotate t =
  match t.wt_width with
  | Episodes n -> if t.wt_cur.w_episodes >= n then rotate t
  | Seconds s -> if t.wt_open.o_duration >= s then rotate t

let note_violation t = t.wt_cur.w_violations <- t.wt_cur.w_violations + 1

let note_quarantine t = t.wt_cur.w_quarantines <- t.wt_cur.w_quarantines + 1

let note_sink_errors t n =
  if n > 0 then t.wt_cur.w_sink_errors <- t.wt_cur.w_sink_errors + n

let observe_span t sp =
  let w = t.wt_cur in
  w.w_episodes <- w.w_episodes + 1;
  (match sp.es_outcome with
  | E_committed -> w.w_committed <- w.w_committed + 1
  | E_rolled_back -> w.w_rolled_back <- w.w_rolled_back + 1
  | E_probe_ok -> w.w_probe_ok <- w.w_probe_ok + 1
  | E_probe_rejected -> w.w_probe_rejected <- w.w_probe_rejected + 1);
  w.w_steps <- w.w_steps + sp.es_steps;
  Metrics.observe_latency w.w_latency sp;
  t.wt_open.o_duration <- now t.wt_clock -. w.w_opened;
  maybe_rotate t

(* A live view whose duration runs to the latest episode, so reading it
   twice with nothing in between answers the same. *)
let current t =
  t.wt_cur.w_duration <- t.wt_open.o_duration;
  t.wt_cur

let completed_count t = t.wt_completed

let completed t =
  let n = min t.wt_completed t.wt_slots in
  List.init n (fun i ->
      match t.wt_history.((t.wt_completed - n + i) mod t.wt_slots) with
      | Some s -> s
      | None -> assert false)

let last t =
  if t.wt_completed = 0 then None
  else t.wt_history.((t.wt_completed - 1) mod t.wt_slots)

(* ---------------- derived readings ---------------- *)

let p50 s = Metrics.quantile s.w_latency 0.5

let p95 s = Metrics.quantile s.w_latency 0.95

let p99 s = Metrics.quantile s.w_latency 0.99

(* Episodes per second; 0 when the slot covers no measurable time
   (e.g. a frozen test clock). *)
let episode_rate s =
  if s.w_duration > 0. then float_of_int s.w_episodes /. s.w_duration else 0.

(* Violations per episode — time-free, so thresholds on it are
   deterministic under test clocks. *)
let violation_rate s =
  if s.w_episodes = 0 then 0.
  else float_of_int s.w_violations /. float_of_int s.w_episodes
