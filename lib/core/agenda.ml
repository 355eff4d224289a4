open Types

(* One bit of [ag_live] per stratum; OCaml ints give us 62 usable bits,
   comfortably beyond the three cost classes plus any custom
   priorities. *)
let max_strata = Sys.int_size - 1

let create () =
  {
    ag_prios = [||];
    ag_slots = [||];
    ag_live = 0;
    ag_stamp = fresh_stamp ();
    ag_len = 0;
    ag_pushed = [||];
    ag_popped = [||];
    ag_hwm = [||];
  }

(* Membership lives on the constraint ([c_queued]/[c_queued_keys]), so
   deduplication is a stamp compare plus a scan of that constraint's own
   pending keys — one key for functional constraints, at most one per
   argument for var-keyed ones — instead of hashing a (cstr, var) pair. *)
let key_of var = match var with None -> -1 | Some v -> v.v_id

(* The pending keys of [c] in [a]; marks left by other agendas are stale. *)
let keys a c = if c.c_queued = a.ag_stamp then c.c_queued_keys else []

(* Shared so that queueing an entry with no variable allocates no list. *)
let unkeyed = [ -1 ]

let rec remove_key k = function
  | [] -> []
  | k' :: rest -> if k' = k then rest else k' :: remove_key k rest

(* Slot of [priority], registering a new stratum if needed.  Strata are
   few and registration is rare, so the lookup is a linear scan of a
   small int array (cheaper than hashing at this size) and insertion
   rebuilds the arrays. *)
let slot_of a priority =
  let n = Array.length a.ag_prios in
  let rec find i =
    if i >= n then -1 else if a.ag_prios.(i) = priority then i else find (i + 1)
  in
  let s = find 0 in
  if s >= 0 then s
  else begin
    if n >= max_strata then
      invalid_arg
        (Printf.sprintf "Agenda: more than %d distinct priorities" max_strata);
    (* insertion point keeping ascending priority order *)
    let rec point i =
      if i >= n || a.ag_prios.(i) > priority then i else point (i + 1)
    in
    let at = point 0 in
    let insert pad arr v =
      let out = Array.make (n + 1) pad in
      Array.blit arr 0 out 0 at;
      out.(at) <- v;
      Array.blit arr at out (at + 1) (n - at);
      out
    in
    a.ag_prios <- insert 0 a.ag_prios priority;
    a.ag_slots <- insert (Queue.create ()) a.ag_slots (Queue.create ());
    a.ag_pushed <- insert 0 a.ag_pushed 0;
    a.ag_popped <- insert 0 a.ag_popped 0;
    a.ag_hwm <- insert 0 a.ag_hwm 0;
    (* live bits at or above the insertion point shift up by one *)
    let low = a.ag_live land ((1 lsl at) - 1) in
    let high = a.ag_live lxor low in
    a.ag_live <- low lor (high lsl 1);
    at
  end

let schedule a ~priority c ~var =
  let key = key_of var in
  let pending = keys a c in
  if List.mem key pending then false
  else begin
    let s = slot_of a priority in
    let q = a.ag_slots.(s) in
    Queue.add { e_cstr = c; e_var = var } q;
    c.c_queued <- a.ag_stamp;
    c.c_queued_keys <-
      (if pending = [] && key = -1 then unkeyed else key :: pending);
    a.ag_len <- a.ag_len + 1;
    a.ag_live <- a.ag_live lor (1 lsl s);
    a.ag_pushed.(s) <- a.ag_pushed.(s) + 1;
    let depth = Queue.length q in
    if depth > a.ag_hwm.(s) then a.ag_hwm.(s) <- depth;
    true
  end

(* Index of the least-significant set bit.  [m land -m] isolates the
   bit; the shift loop then runs for the bit's position only, which for
   the checking/functional/implicit strata is 0-2 iterations. *)
let lsb_index m =
  let b = m land -m in
  let rec go i b = if b land 1 = 1 then i else go (i + 1) (b lsr 1) in
  go 0 b

let pop a =
  if a.ag_live = 0 then None
  else begin
    let s = lsb_index a.ag_live in
    let q = a.ag_slots.(s) in
    let e = Queue.pop q in
    if Queue.is_empty q then a.ag_live <- a.ag_live land lnot (1 lsl s);
    a.ag_popped.(s) <- a.ag_popped.(s) + 1;
    a.ag_len <- a.ag_len - 1;
    let c = e.e_cstr in
    if c.c_queued = a.ag_stamp then
      c.c_queued_keys <- remove_key (key_of e.e_var) c.c_queued_keys;
    Some e
  end

let is_empty a = a.ag_live = 0

let length a = a.ag_len

type stratum_stats = {
  sa_priority : int;
  sa_label : string;
  sa_depth : int; (* entries currently pending in this stratum *)
  sa_pushed : int;
  sa_popped : int;
  sa_hwm : int;
}

let stats a =
  List.filter_map
    (fun s ->
      if a.ag_pushed.(s) = 0 && Queue.is_empty a.ag_slots.(s) then None
      else
        Some
          {
            sa_priority = a.ag_prios.(s);
            sa_label = stratum_label a.ag_prios.(s);
            sa_depth = Queue.length a.ag_slots.(s);
            sa_pushed = a.ag_pushed.(s);
            sa_popped = a.ag_popped.(s);
            sa_hwm = a.ag_hwm.(s);
          })
    (List.init (Array.length a.ag_prios) Fun.id)

let clear a =
  a.ag_stamp <- fresh_stamp ();
  a.ag_len <- 0;
  Array.iter Queue.clear a.ag_slots;
  a.ag_live <- 0
