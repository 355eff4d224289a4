(* Bounded event ring for post-mortems: reads see the last [capacity]
   events of an {!Constraint_kernel.Event_log}, rebuilt from its rows
   into {!Types.tagged_event}s only when read.  A board's ring reads the
   log the engine writes; [create] makes a ring with a log of its own,
   fed through [push].

   The log's backing holds [spare] times the next power of two above
   the capacity.  Rows older than the read capacity stay in place until
   overwritten: that is what lets {!Sampler} keep an exemplar as a range
   of rows.  A guard tells the log the oldest position still wanted;
   before overwriting it the log calls the guard's hook, which copies
   the rows out. *)

open Constraint_kernel
open Constraint_kernel.Types
module L = Event_log

type 'a t = {
  r_cap : int; (* requested capacity: what reads are clamped to *)
  r_log : 'a event_log;
}

(* backing rows per read slot *)
let spare = 8

let create ~capacity () =
  let cap = max 1 capacity in
  let size = ref 1 in
  while !size < cap do size := !size * 2 done;
  { r_cap = cap; r_log = L.create ~rows:(spare * !size) () }

let log r = r.r_log

let push r ep seq ev = L.push r.r_log ep seq ev

let length r = min r.r_cap r.r_log.lg_seen

let capacity r = r.r_cap

let seen r = r.r_log.lg_seen

(* rows [lo, hi) of the backing store, oldest first *)
let range r lo hi =
  let lg = r.r_log in
  List.init (hi - lo) (fun d -> L.event lg.lg_rows ((lo + d) land lg.lg_mask))

let to_list r = range r (seen r - length r) (seen r)

let spans r =
  let lg = r.r_log in
  let rec go p acc =
    if p < seen r - length r then acc
    else
      go (p - 1)
        (match L.end_span lg.lg_rows (p land lg.lg_mask) with
        | Some sp -> sp :: acc
        | None -> acc)
  in
  go (seen r - 1) []

(* ---------------- retained ranges ---------------- *)

let guard r p =
  let lg = r.r_log in
  lg.lg_guard <- (if p = max_int then max_int else p + lg.lg_mask + 1)

let on_lose r f = r.r_log.lg_on_lose <- f

let oldest_held r = seen r - r.r_log.lg_mask - 1

let read r p n =
  let lo = max p (oldest_held r) in
  range r lo (max lo (p + n))

type 'a rows = 'a log_rows

let copy r p n =
  let lg = r.r_log in
  L.copy lg.lg_rows lg.lg_mask (p land lg.lg_mask) n

let span_of r p =
  let lg = r.r_log in
  if p >= oldest_held r && p < seen r then
    L.end_span lg.lg_rows (p land lg.lg_mask)
  else None

let rows_events b = List.init (L.rows_count b) (L.event b)

(* the last row's episode span; a copied range ends at its episode's
   end row *)
let rows_span b =
  let i = L.rows_count b - 1 in
  if i >= 0 then L.end_span b i else None
