(* Bounded in-memory event ring for post-mortems: keeps the last
   [capacity] events, overwriting the oldest.  The store is three
   parallel arrays — two unboxed int arrays for the episode/sequence
   tags and one pointer array for the events — so a push allocates
   nothing at all; events are boxed into {!Types.tagged_event} only
   when read back.

   The backing arrays are sized to the next power of two and indexed by
   [r_seen land r_mask], so a push is three stores and one counter
   bump: no wrap branch, no separate cursor or length field.  Reads
   clamp to the requested capacity, which may be below the array size.
   The arrays are allocated on the first push (the event array seeded
   with that event, so unused slots hold a live value and the length
   derived from [r_seen] bounds what is exposed). *)

open Constraint_kernel.Types

type 'a t = {
  r_cap : int; (* requested capacity: what reads are clamped to *)
  r_mask : int; (* array size - 1; size = next power of two >= r_cap *)
  mutable r_ep : int array; (* [||] until the first push *)
  mutable r_seq : int array;
  mutable r_ev : 'a trace_event array;
  mutable r_seen : int; (* total events ever pushed (evicted included) *)
}

let create ~capacity () =
  let cap = max 1 capacity in
  let size = ref 1 in
  while !size < cap do size := !size * 2 done;
  { r_cap = cap; r_mask = !size - 1; r_ep = [||]; r_seq = [||];
    r_ev = [||]; r_seen = 0 }

let push r ep seq ev =
  if Array.length r.r_ev = 0 then begin
    let size = r.r_mask + 1 in
    r.r_ep <- Array.make size 0;
    r.r_seq <- Array.make size 0;
    r.r_ev <- Array.make size ev
  end;
  let i = r.r_seen land r.r_mask in
  Array.unsafe_set r.r_ep i ep;
  Array.unsafe_set r.r_seq i seq;
  Array.unsafe_set r.r_ev i ev;
  r.r_seen <- r.r_seen + 1

let length r = min r.r_cap r.r_seen

let capacity r = r.r_cap

let seen r = r.r_seen

let clear r =
  (* drop the arrays so stored events are collectable *)
  r.r_ep <- [||];
  r.r_seq <- [||];
  r.r_ev <- [||];
  r.r_seen <- 0

let to_list r =
  let len = length r in
  List.init len (fun i ->
      let j = (r.r_seen - len + i) land r.r_mask in
      { te_episode = r.r_ep.(j); te_seq = r.r_seq.(j); te_event = r.r_ev.(j) })

(* Events from absolute stream position [from_] (the value [seen]
   returned when the caller marked its spot) to the present, oldest
   first.  Anything already evicted is silently absent; [since_complete]
   tells the caller whether the range survived intact. *)
let since r from_ =
  let len = length r in
  let lo = max (max 0 from_) (r.r_seen - len) in
  let n = r.r_seen - lo in
  List.init n (fun i ->
      let j = (lo + i) land r.r_mask in
      { te_episode = r.r_ep.(j); te_seq = r.r_seq.(j); te_event = r.r_ev.(j) })

let since_complete r from_ = max 0 from_ >= r.r_seen - length r

let spans r =
  List.filter_map
    (fun te ->
      match te.te_event with T_episode_end sp -> Some sp | _ -> None)
    (to_list r)
