(* Tail-sampled episode exemplars.

   Production tracing can't afford to keep every episode's full event
   trace, but the episodes worth keeping — the slow ones, the ones that
   violated or quarantined — are only identifiable *after* they end.
   The classic answer is to buffer everything cheaply and promote on
   outcome, and this module leans on a trick: the {!Ring} the board
   already maintains *is* that buffer.  At episode start we remember the
   ring's absolute stream position (one int store); at episode end, if
   the outcome qualifies, the episode's events are still sitting in the
   ring and are copied out into an exemplar.  The per-event cost of
   sampling is therefore zero beyond the ring push every board pays
   anyway; only promoted episodes pay for boxing their events.

   Promotion reasons:
   - [Slow]: among the K slowest episodes of the current window (a
     streaming top-K; reset at each window rotation);
   - [Violating]: the episode emitted a violation or rolled back;
   - [Quarantining]: the episode quarantined a constraint;
   - [Head]: 1-in-N head sampling of routine episodes (off by default).

   The exemplar store is a bounded FIFO (newest kept), so a misbehaving
   network can't grow it without bound. *)

open Constraint_kernel.Types

type reason = Head | Slow | Violating | Quarantining

type 'a exemplar = {
  ex_episode : int;
  ex_span : episode_span;
  ex_reasons : reason list;
  ex_events : 'a tagged_event list; (* oldest first *)
  ex_truncated : bool; (* ring wrapped: leading events evicted *)
}

type 'a t = {
  sa_ring : 'a Ring.t; (* the episode event buffer (usually the board's) *)
  sa_capacity : int; (* exemplar store bound *)
  sa_head_every : int; (* 1-in-N head sampling; 0 = off *)
  sa_slow_k : int; (* K slowest per window *)
  sa_top : float array; (* current window's top-K latencies, min first *)
  mutable sa_top_n : int; (* filled entries of sa_top *)
  mutable sa_store : 'a exemplar list; (* newest first, length <= capacity *)
  mutable sa_stored : int;
  mutable sa_seen : int; (* outermost episodes ended *)
  mutable sa_promoted : int;
  mutable sa_ep_mark : int; (* ring position at episode start *)
  mutable sa_depth : int; (* episode nesting depth *)
  mutable sa_viol : bool; (* violation seen this episode *)
  mutable sa_quar : bool;
}

let create ?(capacity = 32) ?(head_every = 0) ?(slow_k = 4) ~ring () =
  {
    sa_ring = ring;
    sa_capacity = max 1 capacity;
    sa_head_every = max 0 head_every;
    sa_slow_k = max 0 slow_k;
    sa_top = Array.make (max 1 slow_k) 0.;
    sa_top_n = 0;
    sa_store = [];
    sa_stored = 0;
    sa_seen = 0;
    sa_promoted = 0;
    sa_ep_mark = 0;
    sa_depth = 0;
    sa_viol = false;
    sa_quar = false;
  }

(* ---------------- the fused-sink entry points ---------------- *)

let episode_started t _ep =
  if t.sa_depth = 0 then begin
    (* the start event itself is already in the ring (the board pushes
       before dispatching), hence the -1 *)
    t.sa_ep_mark <- Ring.seen t.sa_ring - 1;
    t.sa_viol <- false;
    t.sa_quar <- false
  end;
  t.sa_depth <- t.sa_depth + 1

let violation_seen t = t.sa_viol <- true

let quarantine_seen t = t.sa_quar <- true

(* Streaming "among the K slowest this window": qualify if the top-K is
   not yet full or this latency beats its minimum (which it then
   replaces).  K is small, so a re-sort of the filled prefix is fine. *)
let resort_top t =
  let filled = Array.sub t.sa_top 0 t.sa_top_n in
  Array.sort compare filled;
  Array.blit filled 0 t.sa_top 0 t.sa_top_n

let qualifies_slow t latency_us =
  if t.sa_slow_k = 0 then false
  else if t.sa_top_n < t.sa_slow_k then begin
    t.sa_top.(t.sa_top_n) <- latency_us;
    t.sa_top_n <- t.sa_top_n + 1;
    resort_top t;
    true
  end
  else if latency_us > t.sa_top.(0) then begin
    t.sa_top.(0) <- latency_us;
    resort_top t;
    true
  end
  else false

let episode_ended t sp =
  if t.sa_depth > 0 then t.sa_depth <- t.sa_depth - 1;
  if t.sa_depth = 0 then begin
    t.sa_seen <- t.sa_seen + 1;
    let reasons = [] in
    let reasons =
      if
        t.sa_head_every > 0 && t.sa_seen mod t.sa_head_every = 0
      then Head :: reasons
      else reasons
    in
    let reasons =
      if
        t.sa_viol
        ||
        match sp.es_outcome with
        | E_rolled_back | E_probe_rejected -> true
        | E_committed | E_probe_ok -> false
      then Violating :: reasons
      else reasons
    in
    let reasons = if t.sa_quar then Quarantining :: reasons else reasons in
    let latency_us = span_total sp *. 1e6 in
    let reasons =
      if qualifies_slow t latency_us then Slow :: reasons else reasons
    in
    if reasons <> [] then begin
      let events = Ring.since t.sa_ring t.sa_ep_mark in
      let ex =
        {
          ex_episode = sp.es_id;
          ex_span = sp;
          ex_reasons = reasons;
          ex_events = events;
          ex_truncated = not (Ring.since_complete t.sa_ring t.sa_ep_mark);
        }
      in
      t.sa_promoted <- t.sa_promoted + 1;
      t.sa_store <- ex :: t.sa_store;
      t.sa_stored <- t.sa_stored + 1;
      if t.sa_stored > t.sa_capacity then begin
        (* drop the oldest *)
        t.sa_store <- List.filteri (fun i _ -> i < t.sa_capacity) t.sa_store;
        t.sa_stored <- t.sa_capacity
      end
    end
  end

(* Window boundary: the next window gets a fresh top-K. *)
let rotate t = t.sa_top_n <- 0

(* ---------------- reading ---------------- *)

let exemplars t = List.rev t.sa_store

let latest t = match t.sa_store with [] -> None | ex :: _ -> Some ex

let slowest t =
  List.fold_left
    (fun best ex ->
      match best with
      | None -> Some ex
      | Some b ->
        if span_total ex.ex_span > span_total b.ex_span then Some ex else best)
    None t.sa_store

let stored t = t.sa_stored

let seen t = t.sa_seen

let promoted t = t.sa_promoted

let reason_label = function
  | Head -> "head"
  | Slow -> "slow"
  | Violating -> "violating"
  | Quarantining -> "quarantining"
