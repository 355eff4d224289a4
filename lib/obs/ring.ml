(* Bounded in-memory event ring for post-mortems: reads see the last
   [capacity] events.  The store keeps rows, not events, laid out so a
   push touches as few cache lines as it can and boxes nothing:

   - three ints per row, side by side in one array: episode, sequence,
     and the kind packed with two small payloads — a variable or
     constraint as its id, an agenda priority, an episode id, a label
     as its index in a small string table, an episode end's extras
     slot;
   - the variables and constraints themselves sit once each in
     id-indexed tables, and label and source strings in a table of at
     most [max_strings]; an assignment's source label is its justifying
     constraint's, named through that constraint's id;
   - pointer columns only for the assigned value (which the variable
     holds anyway), a string the tables cannot name, and rare events (a
     violation, a quarantine, an episode start with a parent or an id
     too large to pack, a payload too large to pack), which are kept
     boxed, as the event itself;
   - an episode end's id, steps, agenda high-water mark and phase
     timings in a small ring of end extras of their own, so every end
     row, whatever its id, is an end row.

   Events are rebuilt into {!Types.tagged_event}s only when read.

   The backing arrays hold [spare] times the next power of two above
   the capacity and are indexed by [position land mask].  Rows older
   than the read capacity stay in place until overwritten: that is what
   lets {!Sampler} keep an exemplar as a range of rows.  A guard tells
   the ring the oldest position still wanted; before overwriting it the
   ring calls the guard's hook, which copies the rows out. *)

open Constraint_kernel.Types

(* row kinds; an episode end's outcome is folded into its kind *)
let k_assign = 0
let k_reset = 1
let k_activate = 2 (* no changed variable *)
let k_activate_var = 3
let k_schedule = 4
let k_check_failed = 5
let k_check_ok = 6
let k_restore = 7
let k_start = 8 (* no parent *)
let k_rare = 9 (* the boxed event is in the rare column *)
let k_end = 10 (* + outcome code *)

let outcome_code = function
  | E_committed -> 0
  | E_rolled_back -> 1
  | E_probe_ok -> 2
  | E_probe_rejected -> 3

let outcome_of_code = function
  | 0 -> E_committed
  | 1 -> E_rolled_back
  | 2 -> E_probe_ok
  | _ -> E_probe_rejected

(* The packed word: kind in 4 bits, payload [a] in the next 30, payload
   [b] in the 28 above. *)
let a_bits = 30
let a_max = (1 lsl a_bits) - 1
let b_max = (1 lsl (62 - 4 - a_bits)) - 1

let pack kind a b = kind lor (a lsl 4) lor (b lsl (4 + a_bits))

let kind_of w = w land 15

let a_of w = (w lsr 4) land a_max

let b_of w = w lsr (4 + a_bits)

let max_strings = 16

(* What rows refer to by number.  Entries are only ever added, so a
   copied range can keep the tables it was copied with. *)
type 'a names = {
  mutable n_vars : 'a var array; (* by [v_id] *)
  mutable n_cstrs : 'a cstr array; (* by [c_id] *)
  n_strs : string array;
  mutable n_nstrs : int;
}

(* The rows.  The ring's backing store and a copied-out range share
   this shape; the pointer columns start empty and are seeded by the
   first row that uses them.  An end row's [a] payload names its slot
   in the end extras, masked by [b_emask]: in the ring the extras are a
   ring of their own, indexed by the count of end rows pushed; a copy
   numbers its end rows densely from 0. *)
type 'a rows = {
  b_w : int array; (* 3 per row: episode, sequence, packed kind *)
  mutable b_eint : int array; (* 4 per end: id, steps, agenda hwm, position *)
  mutable b_etime : float array; (* 4 per end: the phase timings *)
  mutable b_emask : int;
  mutable b_val : 'a array;
  mutable b_str : string array;
  mutable b_rare : 'a trace_event array;
  b_names : 'a names;
}

let rows_count b = Array.length b.b_w / 3

let is_end w = kind_of w >= k_end

(* [n] end slots, none of them holding a row *)
let end_ints n =
  let a = Array.make (4 * n) 0 in
  for j = 0 to n - 1 do a.((4 * j) + 3) <- min_int done;
  a

let make_rows names size ends =
  { b_w = Array.make (3 * size) 0; b_eint = end_ints ends;
    b_etime = Array.make (4 * ends) 0.; b_emask = ends - 1; b_val = [||];
    b_str = [||]; b_rare = [||]; b_names = names }

(* a copy of [n] rows starting at row [i] of [b], which wraps at [mask] *)
let copy_rows b mask i n =
  let row d = (i + d) land mask in
  let word d = b.b_w.((3 * row d) + 2) in
  let rows_where p = List.filter (fun d -> p (word d)) (List.init n Fun.id) in
  let ends = Array.of_list (rows_where is_end) in
  let extra stride a =
    Array.init (stride * Array.length ends) (fun k ->
        let w = word ends.(k / stride) in
        a.((stride * (a_of w land b.b_emask)) + (k mod stride)))
  in
  let col used a =
    if Array.length a = 0 || not used then [||]
    else Array.init n (fun d -> a.(row d))
  in
  (* string code 0 = the row's string column *)
  let own_string w =
    let k = kind_of w in
    (k = k_assign || k = k_reset || k = k_start || k >= k_end) && b_of w = 0
  in
  let w = Array.init (3 * n) (fun d -> b.b_w.((3 * row (d / 3)) + (d mod 3))) in
  (* the copy's end rows name their extras by their rank *)
  Array.iteri
    (fun k d ->
      let x = w.((3 * d) + 2) in
      w.((3 * d) + 2) <- pack (kind_of x) k (b_of x))
    ends;
  { b_w = w; b_eint = extra 4 b.b_eint; b_etime = extra 4 b.b_etime;
    b_emask = a_max; b_val = col true b.b_val;
    b_str = col (rows_where own_string <> []) b.b_str;
    b_rare = col (rows_where (fun w -> kind_of w = k_rare) <> []) b.b_rare;
    b_names = b.b_names }

(* A string code: 0 = in the row's string column, [2k+1] = string table
   entry [k], [2k+2] = constraint [k]'s source label. *)
let string_of b i code =
  if code = 0 then b.b_str.(i)
  else if code land 1 = 1 then b.b_names.n_strs.(code lsr 1)
  else b.b_names.n_cstrs.((code lsr 1) - 1).c_source_label

let span_at b i =
  let w = b.b_w.((3 * i) + 2) in
  let e = 4 * (a_of w land b.b_emask) in
  {
    es_id = b.b_eint.(e);
    es_label = string_of b i (b_of w);
    es_outcome = outcome_of_code (kind_of w - k_end);
    es_timings =
      {
        ph_propagate = b.b_etime.(e);
        ph_drain = b.b_etime.(e + 1);
        ph_check = b.b_etime.(e + 2);
        ph_restore = b.b_etime.(e + 3);
      };
    es_steps = b.b_eint.(e + 1);
    es_agenda_hwm = b.b_eint.(e + 2);
  }

let event_at b i =
  let w = b.b_w.((3 * i) + 2) in
  let k = kind_of w and x = a_of w and y = b_of w in
  let vars = b.b_names.n_vars and cstrs = b.b_names.n_cstrs in
  let ev =
    if is_end w then T_episode_end (span_at b i)
    else if k = k_assign then T_assign (vars.(x), b.b_val.(i), string_of b i y)
    else if k = k_reset then T_reset (vars.(x), string_of b i y)
    else if k = k_activate then T_activate (cstrs.(x), None)
    else if k = k_activate_var then T_activate (cstrs.(x), Some vars.(y))
    else if k = k_schedule then T_schedule (cstrs.(x), y)
    else if k = k_check_failed then T_check (cstrs.(x), false)
    else if k = k_check_ok then T_check (cstrs.(x), true)
    else if k = k_restore then T_restore vars.(x)
    else if k = k_start then T_episode_start (x, string_of b i y, None)
    else b.b_rare.(i)
  in
  { te_episode = b.b_w.(3 * i); te_seq = b.b_w.((3 * i) + 1); te_event = ev }

let rows_events b = List.init (rows_count b) (event_at b)

(* the last row's episode span; a copied range ends at its episode's
   end row *)
let rows_span b =
  let i = rows_count b - 1 in
  if i >= 0 && is_end b.b_w.((3 * i) + 2) then Some (span_at b i)
  else None

type 'a t = {
  r_cap : int; (* requested capacity: what reads are clamped to *)
  r_mask : int; (* rows - 1 *)
  r_names : 'a names;
  mutable r_rows : 'a rows; (* no rows until the first push *)
  mutable r_seen : int; (* total events ever pushed (evicted included) *)
  mutable r_ends : int; (* end rows ever pushed *)
  (* the guard: pushing at position [r_guard] or later would overwrite
     a row somebody still wants; [max_int] = nothing guarded *)
  mutable r_guard : int;
  mutable r_on_lose : int -> unit; (* rows below the argument go next *)
}

(* backing rows per read slot *)
let spare = 8

let create ~capacity () =
  let cap = max 1 capacity in
  let size = ref 1 in
  while !size < cap do size := !size * 2 done;
  let names =
    { n_vars = [||]; n_cstrs = [||]; n_strs = Array.make max_strings "";
      n_nstrs = 0 }
  in
  { r_cap = cap; r_mask = (spare * !size) - 1; r_names = names;
    r_rows = make_rows names 0 0; r_seen = 0; r_ends = 0; r_guard = max_int;
    r_on_lose = ignore }

(* Enter [x] at [id] of [tbl] (grown to cover [id]): [id], or -1 when
   the slot already holds another entry with that id ([named]). *)
let enter tbl id x named =
  let tbl =
    if id < Array.length tbl then tbl
    else begin
      let grown = Array.make (max (id + 1) (2 * Array.length tbl)) x in
      Array.blit tbl 0 grown 0 (Array.length tbl);
      grown
    end
  in
  let cur = tbl.(id) in
  if cur == x then (tbl, id)
  else if named cur then (tbl, -1)
  else begin
    tbl.(id) <- x;
    (tbl, id)
  end

(* The id a row stores for [v], entering [v] in the table on first
   sight; -1 when the id does not fit or already names another variable
   (events of two networks in one ring): the event is then kept
   boxed. *)
let var_id names v =
  let id = v.v_id in
  let tbl = names.n_vars in
  if id < Array.length tbl && Array.unsafe_get tbl id == v then id
  else if id < 0 || id > b_max then -1
  else begin
    let tbl, id = enter tbl id v (fun cur -> cur.v_id = id) in
    names.n_vars <- tbl;
    id
  end

let cstr_id names c =
  let id = c.c_id in
  let tbl = names.n_cstrs in
  if id < Array.length tbl && Array.unsafe_get tbl id == c then id
  else if id < 0 || (2 * id) + 2 > b_max then -1
  else begin
    let tbl, id = enter tbl id c (fun cur -> cur.c_id = id) in
    names.n_cstrs <- tbl;
    id
  end

(* [s]'s code in the string table, entering it while there is room;
   otherwise 0, with [s] stored in row [i]'s string column. *)
let rec string_code_from b i s k =
  let names = b.b_names in
  if k = names.n_nstrs then
    if k < max_strings then begin
      names.n_strs.(k) <- s;
      names.n_nstrs <- k + 1;
      (2 * k) + 1
    end
    else begin
      if Array.length b.b_str = 0 then b.b_str <- Array.make (rows_count b) s
      else Array.unsafe_set b.b_str i s;
      0
    end
  else if Array.unsafe_get names.n_strs k == s then (2 * k) + 1
  else string_code_from b i s (k + 1)

let string_code b i s = string_code_from b i s 0

(* an assignment's source: its constraint's label, by the constraint's
   id, when the variable's justification names that constraint *)
let source_code b i v src =
  match v.v_just with
  | Propagated { source; _ } when source.c_source_label == src -> (
    match cstr_id b.b_names source with
    | -1 -> string_code b i src
    | id -> (2 * id) + 2)
  | _ -> string_code b i src

(* The extras slot of end row [e], pushed at position [s].  The slot's
   last occupant must no longer be held once row [s] is written; when it
   still is (a run of short episodes, or end rows alone), the extras
   ring doubles first. *)
let end_slot r e s =
  let b = r.r_rows in
  let j = e land b.b_emask in
  if b.b_eint.((4 * j) + 3) > s - r.r_mask - 1 then begin
    (* rows are held newest first, so the slots hold the newest [size]
       ends, all held; their counts are consecutive, so they land in
       distinct slots of the doubled ring *)
    let size = b.b_emask + 1 in
    let ints = end_ints (2 * size) and times = Array.make (8 * size) 0. in
    for k = 0 to size - 1 do
      let p = b.b_eint.((4 * k) + 3) in
      let c = a_of b.b_w.((3 * (p land r.r_mask)) + 2) in
      let k' = c land ((2 * size) - 1) in
      Array.blit b.b_eint (4 * k) ints (4 * k') 4;
      Array.blit b.b_etime (4 * k) times (4 * k') 4
    done;
    b.b_eint <- ints;
    b.b_etime <- times;
    b.b_emask <- (2 * size) - 1
  end;
  e land b.b_emask

let put_rare b i ev =
  if Array.length b.b_rare = 0 then b.b_rare <- Array.make (rows_count b) ev
  else Array.unsafe_set b.b_rare i ev;
  k_rare

let push r ep seq ev =
  let s = r.r_seen in
  if s >= r.r_guard then r.r_on_lose (s - r.r_mask);
  if Array.length r.r_rows.b_w = 0 then
    r.r_rows <- make_rows r.r_names (r.r_mask + 1) ((r.r_mask + 1) / spare);
  let b = r.r_rows and names = r.r_names in
  (* [i] is masked into the row count, so the unchecked accesses are in
     bounds *)
  let i = s land r.r_mask in
  let word =
    match ev with
    | T_assign (v, x, src) -> (
      match var_id names v with
      | -1 -> put_rare b i ev
      | id ->
        if Array.length b.b_val = 0 then b.b_val <- Array.make (rows_count b) x
        else Array.unsafe_set b.b_val i x;
        pack k_assign id (source_code b i v src))
    | T_reset (v, src) -> (
      match var_id names v with
      | -1 -> put_rare b i ev
      | id -> pack k_reset id (string_code b i src))
    | T_activate (c, None) -> (
      match cstr_id names c with
      | -1 -> put_rare b i ev
      | id -> pack k_activate id 0)
    | T_activate (c, Some v) -> (
      match (cstr_id names c, var_id names v) with
      | -1, _ | _, -1 -> put_rare b i ev
      | id, vid -> pack k_activate_var id vid)
    | T_schedule (c, priority) -> (
      match cstr_id names c with
      | id when id >= 0 && priority >= 0 && priority <= b_max ->
        pack k_schedule id priority
      | _ -> put_rare b i ev)
    | T_check (c, ok) -> (
      match cstr_id names c with
      | -1 -> put_rare b i ev
      | id -> pack (if ok then k_check_ok else k_check_failed) id 0)
    | T_restore v -> (
      match var_id names v with
      | -1 -> put_rare b i ev
      | id -> pack k_restore id 0)
    | T_episode_start (id, label, None) when id >= 0 && id <= a_max ->
      pack k_start id (string_code b i label)
    | T_episode_end sp ->
      let e = r.r_ends in
      let f = 4 * end_slot r e s in
      let ints = b.b_eint and times = b.b_etime in
      Array.unsafe_set ints f sp.es_id;
      Array.unsafe_set ints (f + 1) sp.es_steps;
      Array.unsafe_set ints (f + 2) sp.es_agenda_hwm;
      Array.unsafe_set ints (f + 3) s;
      let t = sp.es_timings in
      Array.unsafe_set times f t.ph_propagate;
      Array.unsafe_set times (f + 1) t.ph_drain;
      Array.unsafe_set times (f + 2) t.ph_check;
      Array.unsafe_set times (f + 3) t.ph_restore;
      r.r_ends <- e + 1;
      pack (k_end + outcome_code sp.es_outcome) (e land a_max)
        (string_code b i sp.es_label)
    | T_violation _ | T_quarantine _ | T_episode_start _ -> put_rare b i ev
  in
  let w = 3 * i in
  Array.unsafe_set b.b_w w ep;
  Array.unsafe_set b.b_w (w + 1) seq;
  Array.unsafe_set b.b_w (w + 2) word;
  r.r_seen <- s + 1

let length r = min r.r_cap r.r_seen

let capacity r = r.r_cap

let seen r = r.r_seen

(* rows [lo, hi) of the backing store, oldest first *)
let range r lo hi =
  List.init (hi - lo) (fun d -> event_at r.r_rows ((lo + d) land r.r_mask))

let to_list r = range r (r.r_seen - length r) r.r_seen

let spans r =
  let b = r.r_rows in
  let rec go p acc =
    if p < r.r_seen - length r then acc
    else
      let i = p land r.r_mask in
      go (p - 1)
        (if is_end b.b_w.((3 * i) + 2) then span_at b i :: acc else acc)
  in
  go (r.r_seen - 1) []

(* ---------------- retained ranges ---------------- *)

let guard r p = r.r_guard <- (if p = max_int then max_int else p + r.r_mask + 1)

let on_lose r f = r.r_on_lose <- f

let oldest_held r = r.r_seen - r.r_mask - 1

let read r p n =
  let lo = max p (oldest_held r) in
  range r lo (max lo (p + n))

let copy r p n = copy_rows r.r_rows r.r_mask (p land r.r_mask) n

let span_of r p =
  let i = p land r.r_mask in
  if p >= oldest_held r && p < r.r_seen
     && is_end r.r_rows.b_w.((3 * i) + 2)
  then Some (span_at r.r_rows i)
  else None
