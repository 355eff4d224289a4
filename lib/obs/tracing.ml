(* Hierarchical span tracer with ring storage and Chrome trace-event
   export.  See tracing.mli for the model.

   Storage follows the Ring idiom: power-of-two capacity, parallel
   arrays indexed by [seen land mask], allocated lazily on the first
   push so an idle tracer owns no arrays.  Spans finish from HTTP
   worker threads and from the engine thread driving a kernel sink.
   The push path is lock-free to keep the per-request overhead inside
   the E22 budget: ids and ring slots are claimed with atomic
   fetch-and-add (two writers always land on distinct slots) and the
   slot fields are then written plainly.  The server runs on
   systhreads (one domain), so a reader interleaves at safepoints and
   can at worst observe the few slots claimed but not yet fully
   written — a torn span is cosmetic in a diagnostics ring and the
   exporter already tolerates in-flight traces.  The mutex guards only
   the structures a race would corrupt: the open-episode table and the
   one-time lazy array allocation. *)

open Constraint_kernel

type ctx = { tc_trace : int; tc_span : int }

type span = {
  sp_trace : int;
  sp_id : int;
  sp_parent : int;
  sp_name : string;
  sp_start : float;
  sp_dur : float;
  sp_note : string;
}

type handle = {
  h_trace : int;
  h_id : int;
  h_parent : int;
  h_name : string;
  h_start : float;
  mutable h_done : bool;
}

type t = {
  tr_mu : Mutex.t;
  tr_clock : unit -> float;
  (* true iff [tr_clock] is the built-in monotonic clock; lets the hot
     path call the unboxed external directly instead of through the
     closure (saves the indirect call and the float boxing). *)
  tr_default_clock : bool;
  tr_cap : int;
  tr_mask : int;
  mutable tr_enabled : bool;
  tr_seen : int Atomic.t; (* spans recorded over the lifetime *)
  tr_next_trace : int Atomic.t;
  tr_next_span : int Atomic.t;
  mutable tr_ambient : ctx option;
  (* Ring storage, [||] until the first push.  The numeric columns
     (trace, id, parent, start, dur) pack into one flat float array at
     stride 5 — ids are push counters, far below 2^53, so the float
     round-trip is exact — because a push then touches ~3 cache lines
     (numbers + name + note) instead of 7 parallel arrays' worth; the
     ring cycles through a multi-hundred-KB working set, so cold lines
     are the push path's dominant cost after the clock. *)
  mutable tr_num : float array;
  mutable tr_name : string array;
  mutable tr_note : string array;
  (* open episode spans keyed by (net, episode id), for parent_ref
     correlation across networks; the string is the origin label.
     The single-slot fields are the fast path for the overwhelmingly
     common case — exactly one write episode open at a time (write
     episodes serialize on the store's episode lock); the table only
     sees nested/overlapping episodes.  An empty slot has
     [tr_open1_net == no_open_net] (physical equality). *)
  mutable tr_open1_net : string;
  mutable tr_open1_id : int;
  mutable tr_open1_h : handle;
  mutable tr_open1_label : string;
  tr_open_eps : (string * int, handle * string) Hashtbl.t;
  tr_metrics : Metrics.t;
  tr_stage_h : (string, Metrics.histogram) Hashtbl.t;
  (* pointer-keyed memo in front of [tr_stage_h]: span names at the
     call sites are literals, one object per site, so after a site's
     first span the lookup is a short [==] scan instead of a string
     hash.  Misses append (bounded); a name that is not a stage memoizes
     as [None] too.  Unlocked: a racing append can at worst drop or skip
     an entry, and the scan falls back to the table for unseen keys. *)
  tr_stage_memo : (string * Metrics.histogram option) array;
  mutable tr_stage_memo_n : int;
}

(* Monotonic seconds, unboxed and noalloc: a calibrated TSC read on
   x86-64 (~10ns vs ~40ns for the trapped clock_gettime syscall here),
   clock_gettime(CLOCK_MONOTONIC) elsewhere.  Immune to wall-clock
   steps; Chrome trace timestamps only need a consistent origin.  See
   tracing_stubs.c. *)
external monotonic_now : unit -> (float[@unboxed])
  = "stem_tracing_monotonic_now" "stem_tracing_monotonic_now_unboxed"
[@@noalloc]

(* One-time per-process TSC calibration (no-op off x86-64 and on
   repeat calls); run when a tracer adopts the default clock. *)
external calibrate_clock : unit -> unit = "stem_tracing_clock_calibrate"

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* A string object no net can alias (freshly allocated, compared with
   [==] only), marking the single-slot episode cache empty. *)
let no_open_net = Bytes.unsafe_to_string (Bytes.create 0)

let dummy_handle =
  { h_trace = 0; h_id = 0; h_parent = 0; h_name = ""; h_start = 0.0; h_done = true }

let create ?(capacity = 4096) ?clock ?(stage_prefix = "stage.") ?(stages = [])
    () =
  let default_clock = Option.is_none clock in
  if default_clock then calibrate_clock ();
  let clock = match clock with Some c -> c | None -> monotonic_now in
  let cap = next_pow2 (max 1 capacity) in
  let m = Metrics.create () in
  let stage_h = Hashtbl.create 8 in
  List.iter
    (fun s ->
      Hashtbl.replace stage_h s (Metrics.histogram m (stage_prefix ^ s)))
    stages;
  {
    tr_mu = Mutex.create ();
    tr_clock = clock;
    tr_default_clock = default_clock;
    tr_cap = cap;
    tr_mask = cap - 1;
    tr_enabled = false;
    tr_seen = Atomic.make 0;
    tr_next_trace = Atomic.make 0;
    tr_next_span = Atomic.make 0;
    tr_ambient = None;
    tr_num = [||];
    tr_name = [||];
    tr_note = [||];
    tr_open1_net = no_open_net;
    tr_open1_id = 0;
    tr_open1_h = dummy_handle;
    tr_open1_label = "";
    tr_open_eps = Hashtbl.create 16;
    tr_metrics = m;
    tr_stage_h = stage_h;
    tr_stage_memo = Array.make 32 ("", None);
    tr_stage_memo_n = 0;
  }

let enabled t = t.tr_enabled
let set_enabled t b = t.tr_enabled <- b

let now t = if t.tr_default_clock then monotonic_now () else t.tr_clock ()

let metrics t = t.tr_metrics

(* For cold paths only ([spans], [clear]); the hot path uses bare
   lock/unlock around straight-line critical sections instead. *)
let with_lock t f =
  Mutex.lock t.tr_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.tr_mu) f

let new_trace t = { tc_trace = 1 + Atomic.fetch_and_add t.tr_next_trace 1; tc_span = 0 }

let fresh_span_id t = 1 + Atomic.fetch_and_add t.tr_next_span 1

let start ?at t ~parent name =
  let at = match at with Some x -> x | None -> now t in
  {
    h_trace = parent.tc_trace;
    h_id = fresh_span_id t;
    h_parent = parent.tc_span;
    h_name = name;
    h_start = at;
    h_done = false;
  }

let ctx_of h = { tc_trace = h.h_trace; tc_span = h.h_id }

(* One-time lazy allocation, double-checked under the mutex.  Arrays
   only ever go from [||] to capacity (clear keeps them), so a push
   that has witnessed non-empty arrays can write without locking. *)
let ensure_arrays t =
  if Array.length t.tr_num = 0 then begin
    Mutex.lock t.tr_mu;
    if Array.length t.tr_num = 0 then begin
      t.tr_name <- Array.make t.tr_cap "";
      t.tr_note <- Array.make t.tr_cap "";
      (* published last: non-empty tr_num means all arrays exist *)
      t.tr_num <- Array.make (t.tr_cap * 5) 0.0
    end;
    Mutex.unlock t.tr_mu
  end

let rec memo_scan t name i =
  if i >= t.tr_stage_memo_n then begin
    let r = Hashtbl.find_opt t.tr_stage_h name in
    let n = t.tr_stage_memo_n in
    if n < Array.length t.tr_stage_memo then begin
      t.tr_stage_memo.(n) <- (name, r);
      t.tr_stage_memo_n <- n + 1
    end;
    r
  end
  else
    let k, r = t.tr_stage_memo.(i) in
    if k == name then r else memo_scan t name (i + 1)

let observe_stage t name dur =
  match memo_scan t name 0 with
  | None -> ()
  | Some h -> Metrics.observe h (dur *. 1e6)

(* Lock-free push: claim a slot atomically, then write it plainly. *)
let push_raw t ~trace ~id ~parent ~name ~start ~dur ~note =
  ensure_arrays t;
  let i = Atomic.fetch_and_add t.tr_seen 1 land t.tr_mask in
  let num = t.tr_num and o = i * 5 in
  num.(o) <- float_of_int trace;
  num.(o + 1) <- float_of_int id;
  num.(o + 2) <- float_of_int parent;
  num.(o + 3) <- start;
  num.(o + 4) <- dur;
  t.tr_name.(i) <- name;
  t.tr_note.(i) <- note

let record t ~trace ~id ~parent ~name ~start ~dur ~note =
  push_raw t ~trace ~id ~parent ~name ~start ~dur ~note;
  observe_stage t name dur

let finish ?name ?note ?at t h =
  if not h.h_done then begin
    h.h_done <- true;
    let stop = match at with Some x -> x | None -> now t in
    let dur = stop -. h.h_start in
    let dur = if dur < 0.0 then 0.0 else dur in
    let name = match name with Some n -> n | None -> h.h_name in
    let note = match note with Some n -> n | None -> "" in
    record t ~trace:h.h_trace ~id:h.h_id ~parent:h.h_parent ~name
      ~start:h.h_start ~dur ~note
  end

let add t ~trace ~parent ~name ~start ~dur ?(note = "") () =
  let id = fresh_span_id t in
  record t ~trace ~id ~parent ~name ~start ~dur ~note

(* Handle-free fast path for stage spans: the ring write is inlined
   here (not delegated through [record]) so the only allocation on
   this path is the caller's two boxed floats at the call boundary —
   a [start]/[finish] pair costs a 10-word handle plus an option cell
   per defaulted argument on top of that. *)
let span t ~parent ~name ~start ~stop ~note =
  ensure_arrays t;
  let dur = if stop > start then stop -. start else 0.0 in
  let i = Atomic.fetch_and_add t.tr_seen 1 land t.tr_mask in
  let num = t.tr_num and o = i * 5 in
  num.(o) <- float_of_int parent.tc_trace;
  num.(o + 1) <- float_of_int (fresh_span_id t);
  num.(o + 2) <- float_of_int parent.tc_span;
  num.(o + 3) <- start;
  num.(o + 4) <- dur;
  t.tr_name.(i) <- name;
  t.tr_note.(i) <- note;
  observe_stage t name dur

let seen t = Atomic.get t.tr_seen

let spans t =
  with_lock t (fun () ->
      let seen = Atomic.get t.tr_seen in
      let n = min seen t.tr_cap in
      let out = ref [] in
      for k = 0 to n - 1 do
        (* newest-first walk, consed into oldest-first order *)
        let i = (seen - 1 - k) land t.tr_mask in
        let o = i * 5 in
        out :=
          {
            sp_trace = int_of_float t.tr_num.(o);
            sp_id = int_of_float t.tr_num.(o + 1);
            sp_parent = int_of_float t.tr_num.(o + 2);
            sp_name = t.tr_name.(i);
            sp_start = t.tr_num.(o + 3);
            sp_dur = t.tr_num.(o + 4);
            sp_note = t.tr_note.(i);
          }
          :: !out
      done;
      !out)

(* ------------------------------------------------------------------ *)
(* Ambient context                                                     *)
(* ------------------------------------------------------------------ *)

let with_ambient t ctx f =
  let saved = t.tr_ambient in
  t.tr_ambient <- Some ctx;
  match f () with
  | v ->
    t.tr_ambient <- saved;
    v
  | exception e ->
    t.tr_ambient <- saved;
    raise e

(* ------------------------------------------------------------------ *)
(* Kernel sink: episode brackets -> spans with phase children          *)
(* ------------------------------------------------------------------ *)

let kernel_sink_name = "tracing"

let episode_parent t = function
  | Some pr ->
      if
        pr.Types.pr_episode = t.tr_open1_id
        && String.equal pr.Types.pr_net t.tr_open1_net
      then ctx_of t.tr_open1_h
      else (
        Mutex.lock t.tr_mu;
        let e =
          Hashtbl.find_opt t.tr_open_eps (pr.Types.pr_net, pr.Types.pr_episode)
        in
        Mutex.unlock t.tr_mu;
        match e with
        | Some (h, _) -> ctx_of h
        | None -> ( match t.tr_ambient with Some c -> c | None -> new_trace t))
  | None -> ( match t.tr_ambient with Some c -> c | None -> new_trace t)

(* Phase children laid end to end from the episode start, then the
   episode span itself.  The episode's wall duration is the phase sum —
   the engine already measured the phases with the same clock, and
   reusing the sum saves a clock read on the per-episode path (the
   bookkeeping between the last phase and this sink call is not span
   material). *)
let close_episode t h tm ~note =
  let cursor = ref h.h_start in
  let child name d =
    (* push_raw, not record: phase names are never stage histograms,
       so skip the lookup on this per-episode path *)
    if d > 0.0 then begin
      push_raw t ~trace:h.h_trace ~id:(fresh_span_id t) ~parent:h.h_id ~name
        ~start:!cursor ~dur:d ~note:"";
      cursor := !cursor +. d
    end
  in
  child "propagate" tm.Types.ph_propagate;
  child "drain" tm.Types.ph_drain;
  child "check" tm.Types.ph_check;
  child "restore" tm.Types.ph_restore;
  record t ~trace:h.h_trace ~id:h.h_id ~parent:h.h_parent ~name:h.h_name
    ~start:h.h_start ~dur:(!cursor -. h.h_start) ~note

(* The open-episode bookkeeping mutates the single slot without the
   mutex: episode brackets are serialized by the engine (systhreads,
   and write episodes additionally serialize on the store's episode
   lock), so starts and ends never race each other; only the overflow
   table, shared with [episode_parent] readers, takes the lock. *)
let kernel_sink t ~net =
  (* per-sink scratch for episode notes; safe unshared because episode
     brackets on one net are serialized (see above) *)
  let nbuf = Buffer.create 64 in
  let emit _ep _seq ev =
    if t.tr_enabled then
      match ev with
      | Types.T_episode_start (id, label, parent) ->
          let pctx = episode_parent t parent in
          let h = start t ~parent:pctx "episode" in
          if t.tr_open1_net == no_open_net then begin
            t.tr_open1_net <- net;
            t.tr_open1_id <- id;
            t.tr_open1_h <- h;
            t.tr_open1_label <- label
          end
          else begin
            Mutex.lock t.tr_mu;
            Hashtbl.replace t.tr_open_eps (net, id) (h, label);
            Mutex.unlock t.tr_mu
          end
      | Types.T_episode_end sp ->
          let id = sp.Types.es_id in
          let entry =
            if t.tr_open1_net == net && t.tr_open1_id = id then begin
              let h = t.tr_open1_h and label = t.tr_open1_label in
              t.tr_open1_net <- no_open_net;
              t.tr_open1_h <- dummy_handle;
              Some (h, label)
            end
            else begin
              Mutex.lock t.tr_mu;
              let key = (net, id) in
              let e = Hashtbl.find_opt t.tr_open_eps key in
              (match e with
              | Some _ -> Hashtbl.remove t.tr_open_eps key
              | None -> ());
              Mutex.unlock t.tr_mu;
              e
            end
          in
          (match entry with
          | None -> ()
          | Some (h, label) ->
              h.h_done <- true;
              Buffer.clear nbuf;
              Buffer.add_string nbuf net;
              Buffer.add_char nbuf ':';
              Buffer.add_string nbuf label;
              Buffer.add_char nbuf ' ';
              Buffer.add_string nbuf
                (Jsonl.outcome_string sp.Types.es_outcome);
              Buffer.add_string nbuf " steps=";
              Buffer.add_string nbuf (string_of_int sp.Types.es_steps);
              close_episode t h sp.Types.es_timings
                ~note:(Buffer.contents nbuf))
      | _ -> ()
  in
  { Types.snk_name = kernel_sink_name; snk_emit = emit }

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

let chrome_json t =
  let event sp =
    Jsonl.J_obj
      [
        ("name", J_str sp.sp_name);
        ("cat", J_str "stem");
        ("ph", J_str "X");
        ("ts", J_float (sp.sp_start *. 1e6));
        ("dur", J_float (sp.sp_dur *. 1e6));
        ("pid", J_int 1);
        ("tid", J_int sp.sp_trace);
        ( "args",
          J_obj
            [
              ("span", J_int sp.sp_id);
              ("parent", J_int sp.sp_parent);
              ("note", J_str sp.sp_note);
            ] );
      ]
  in
  Jsonl.to_string
    (J_obj
       [
         ("traceEvents", J_arr (List.map event (spans t)));
         ("displayTimeUnit", J_str "ms");
       ])
