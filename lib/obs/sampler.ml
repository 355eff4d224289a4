(* Tail-sampled episode exemplars.

   Production tracing can't afford to keep every episode's full event
   trace, but the episodes worth keeping — the slow ones, the ones that
   violated or quarantined — are only identifiable *after* they end.
   The classic answer is to buffer everything cheaply and promote on
   outcome, and this module leans on a trick: the {!Ring} the board
   already reads *is* that buffer, and the log knows the row each
   episode started at.  At episode end, if the outcome qualifies, the
   exemplar is the range of ring rows the episode wrote — its last
   [Ring.capacity] rows at most.  Promotion stores four ints; events are
   rebuilt only when an exemplar is read.

   The ring's backing arrays outlast its read capacity, so a stored
   range usually stays in place until the store evicts it.  The store
   guards the oldest range still in the ring; just before the ring
   would overwrite it, the rows are copied out per column.

   Promotion reasons:
   - [Slow]: among the K slowest episodes of the current window (a
     streaming top-K; reset at each window rotation);
   - [Violating]: the episode emitted a violation or rolled back;
   - [Quarantining]: the episode quarantined a constraint;
   - [Head]: 1-in-N head sampling of routine episodes (off by default).

   The exemplar store is a fixed array used as a FIFO (newest kept), so
   a misbehaving network can't grow it without bound. *)

open Constraint_kernel.Types

type reason = Head | Slow | Violating | Quarantining

(* reason bits, and the truncation flag, of a stored exemplar *)
let bit_head = 1
let bit_violating = 2
let bit_quarantining = 4
let bit_slow = 8
let bit_truncated = 16

type 'a t = {
  sa_ring : 'a Ring.t; (* the episode event buffer (usually the board's) *)
  sa_capacity : int; (* exemplar store bound *)
  sa_head_every : int; (* 1-in-N head sampling; 0 = off *)
  sa_slow_k : int; (* K slowest per window *)
  sa_top : float array; (* current window's top-K latencies, min first *)
  mutable sa_top_n : int; (* filled entries of sa_top *)
  (* The store: promotion [k] lives in slot [k mod sa_capacity]; the
     stored promotions are [sa_promoted - sa_stored, sa_promoted). *)
  sa_lo : int array; (* ring position of the exemplar's first row *)
  sa_n : int array; (* rows held *)
  sa_bits : int array; (* reasons and truncation *)
  sa_copy : 'a Ring.rows option array; (* rows copied out of the ring *)
  (* promotions from [sa_live] on still read from the ring; older
     stored ones were copied out *)
  mutable sa_live : int;
  mutable sa_stored : int;
  mutable sa_seen : int; (* outermost episodes ended *)
  mutable sa_promoted : int;
}

type 'a source = {
  so_sampler : 'a t;
  so_promotion : int;
  so_lo : int;
  so_n : int;
  so_copy : 'a Ring.rows option; (* as copied when the exemplar was read *)
}

type 'a exemplar = {
  ex_episode : int;
  ex_span : episode_span;
  ex_reasons : reason list;
  ex_length : int;
  ex_truncated : bool;
  ex_source : 'a source;
}

let slot t k = k mod t.sa_capacity

(* Guard the oldest range still in the ring. *)
let guard t =
  Ring.guard t.sa_ring
    (if t.sa_live < t.sa_promoted then t.sa_lo.(slot t t.sa_live) else max_int)

(* The ring is about to drop every row below [bound]: copy out the
   stored ranges that start there. *)
let spill t bound =
  while t.sa_live < t.sa_promoted && t.sa_lo.(slot t t.sa_live) < bound do
    let s = slot t t.sa_live in
    t.sa_copy.(s) <- Some (Ring.copy t.sa_ring t.sa_lo.(s) t.sa_n.(s));
    t.sa_live <- t.sa_live + 1
  done;
  guard t

let create ?(capacity = 32) ?(head_every = 0) ?(slow_k = 4) ~ring () =
  let capacity = max 1 capacity in
  let t =
    {
      sa_ring = ring;
      sa_capacity = capacity;
      sa_head_every = max 0 head_every;
      sa_slow_k = max 0 slow_k;
      sa_top = Array.make (max 1 slow_k) 0.;
      sa_top_n = 0;
      sa_lo = Array.make capacity 0;
      sa_n = Array.make capacity 0;
      sa_bits = Array.make capacity 0;
      sa_copy = Array.make capacity None;
      sa_live = 0;
      sa_stored = 0;
      sa_seen = 0;
      sa_promoted = 0;
    }
  in
  Ring.on_lose ring (spill t);
  t

(* ---------------- promotion ---------------- *)

(* Streaming "among the K slowest this window": qualify if the top-K is
   not yet full or this latency beats its minimum (which it then
   replaces), then restore the order by insertion. *)
let qualifies_slow t sp =
  if t.sa_slow_k = 0 then false
  else begin
    (* [span_total], computed here: a float returned from another
       module is boxed wherever cross-module inlining is off *)
    let ph = sp.es_timings in
    let latency_us =
      (ph.ph_propagate +. ph.ph_drain +. ph.ph_check +. ph.ph_restore) *. 1e6
    in
    let top = t.sa_top in
    let i =
      if t.sa_top_n < t.sa_slow_k then begin
        t.sa_top_n <- t.sa_top_n + 1;
        t.sa_top_n - 1
      end
      else if latency_us > top.(0) then 0
      else -1
    in
    if i < 0 then false
    else begin
      (* sift the new value into place: down from a fresh tail slot,
         up from the evicted minimum *)
      let j = ref i in
      while !j > 0 && top.(!j - 1) > latency_us do
        top.(!j) <- top.(!j - 1);
        decr j
      done;
      while !j < t.sa_top_n - 1 && top.(!j + 1) < latency_us do
        top.(!j) <- top.(!j + 1);
        incr j
      done;
      top.(!j) <- latency_us;
      true
    end
  end

(* Store the episode that just ended, whose start row was at [start]:
   its last rows in the ring, at most the ring's read capacity.  The
   episode's end row is the newest row. *)
let promote t start bits =
  let hi = Ring.seen t.sa_ring in
  let n = max 0 (hi - start) in
  let held = min n (Ring.capacity t.sa_ring) in
  let k = t.sa_promoted in
  let s = slot t k in
  t.sa_lo.(s) <- hi - held;
  t.sa_n.(s) <- held;
  t.sa_bits.(s) <-
    (if n > Ring.capacity t.sa_ring then bits lor bit_truncated else bits);
  t.sa_copy.(s) <- None;
  t.sa_promoted <- k + 1;
  t.sa_stored <- min t.sa_capacity (t.sa_stored + 1);
  (* an evicted promotion no longer needs its rows *)
  t.sa_live <- max t.sa_live (t.sa_promoted - t.sa_stored);
  guard t

(* An outermost episode ended: its start row and whether it violated or
   quarantined are known. *)
let finished t ~start ~violated ~quarantined sp =
  t.sa_seen <- t.sa_seen + 1;
  let bits =
    if t.sa_head_every > 0 && t.sa_seen mod t.sa_head_every = 0 then
      bit_head
    else 0
  in
  let bits =
    if
      violated
      ||
      match sp.es_outcome with
      | E_rolled_back | E_probe_rejected -> true
      | E_committed | E_probe_ok -> false
    then bits lor bit_violating
    else bits
  in
  let bits = if quarantined then bits lor bit_quarantining else bits in
  let bits =
    if qualifies_slow t sp then bits lor bit_slow
    else bits
  in
  if bits <> 0 then promote t start bits

(* Window boundary: the next window gets a fresh top-K. *)
let rotate t = t.sa_top_n <- 0

(* ---------------- reading ---------------- *)

let reasons bits =
  List.filter_map
    (fun (b, r) -> if bits land b <> 0 then Some r else None)
    [ (bit_slow, Slow); (bit_quarantining, Quarantining);
      (bit_violating, Violating); (bit_head, Head) ]

let exemplar t k =
  let s = slot t k in
  let lo = t.sa_lo.(s) and n = t.sa_n.(s) and copy = t.sa_copy.(s) in
  let span =
    match copy with
    | Some rows -> Ring.rows_span rows
    | None -> Ring.span_of t.sa_ring (lo + n - 1)
  in
  match span with
  | None -> invalid_arg "Sampler: an exemplar must end at its episode's end"
  | Some sp ->
    {
      ex_episode = sp.es_id;
      ex_span = sp;
      ex_reasons = reasons t.sa_bits.(s);
      ex_length = n;
      ex_truncated = t.sa_bits.(s) land bit_truncated <> 0;
      ex_source =
        { so_sampler = t; so_promotion = k; so_lo = lo; so_n = n;
          so_copy = copy };
    }

(* An exemplar still stored reads from the store, which copies its rows
   before the ring loses them; one evicted since it was read keeps what
   it had, or what of its rows the ring still holds. *)
let events ex =
  let so = ex.ex_source in
  let t = so.so_sampler in
  let stored = so.so_promotion >= t.sa_promoted - t.sa_stored in
  let copy =
    if stored then t.sa_copy.(slot t so.so_promotion) else so.so_copy
  in
  match copy with
  | Some rows -> Ring.rows_events rows
  | None -> Ring.read t.sa_ring so.so_lo so.so_n

let exemplars t =
  List.init t.sa_stored (fun i -> exemplar t (t.sa_promoted - t.sa_stored + i))

let latest t =
  if t.sa_stored = 0 then None else Some (exemplar t (t.sa_promoted - 1))

let slowest t =
  List.fold_left
    (fun best ex ->
      match best with
      | None -> Some ex
      | Some b ->
        if span_total ex.ex_span > span_total b.ex_span then Some ex else best)
    None (List.rev (exemplars t))

let stored t = t.sa_stored

let seen t = t.sa_seen

let promoted t = t.sa_promoted

let reason_label = function
  | Head -> "head"
  | Slow -> "slow"
  | Violating -> "violating"
  | Quarantining -> "quarantining"
