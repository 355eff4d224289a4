(* The event log of an observed network: one row per trace event,
   written by the engine at the event's site without building the
   event, and read by the observers ([Obs.Ring], [Obs.Sampler],
   [Obs.Provenance], the board's metrics and profiler).  Each
   assignment is recorded once, as a row and as a span, and every
   reader works from that one record.

   Rows are laid out so a write touches as few cache lines as it can
   and boxes nothing:

   - three ints per row, side by side in one array: episode, sequence,
     and the kind packed with two small payloads — a constraint or
     variable as its id, an agenda priority, an episode id, a label as
     its index in a small string table, an episode end's extras slot,
     an assignment's span slot;
   - variables and constraints sit once each in id-indexed tables,
     labels in a table of at most [max_strings];
   - rare events (a violation, a quarantine, an episode start with a
     parent or an id too large to pack, a payload too large to pack, a
     second network's clashing ids) are kept boxed, as the event
     itself;
   - an episode end's id, steps, agenda high-water mark and phase
     timings sit in a small ring of end extras of their own (doubled
     when the slot it would reuse still belongs to a held row), so
     every end row, whatever its id, is an end row.

   The backing arrays are a ring indexed by [position land mask].  A
   guard names the oldest position a reader still wants; before
   overwriting it the log calls the guard's hook.

   Spans.  An assignment or reset row names a span: the variable, the
   value (not for a reset) and the source label, plus what provenance
   needs — episode, sequence, the justification, the variable's
   previous latest span and the latest span of each of the justifying
   constraint's other arguments at the time (its possible antecedents,
   filtered by the constraint's dependency record only when read).
   Spans are numbered from 1 and kept for the newest [span_capacity];
   the antecedent ids sit in a pool that doubles when a write would
   reach entries of a span still held.  An episode that does not commit
   marks its spans dead and restores each variable's latest span, so
   the index agrees with the network.

   The log also keeps the open episodes (for the cross-network parent
   of every span and the rollback, and the kernel's violation and
   quarantine counts at each start) and the newest [max_episodes]
   episodes.  It counts nothing: the kernel's counters are the tallies,
   and the log holds their values at attach as the base an observer
   subtracts. *)

open Types

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

let is_end w = kind_of w >= k_end

let max_strings = 16

let span_capacity = 8192

let max_episodes = 1024

(* span flags, in the low bits of the info word; the source code in
   the 5 bits above them, the prior latest span id above that *)
let flag_value = 1
let flag_dead = 2
let flag_cross = 4
let info_bits = 8

(* a span's antecedent entries: the pool position above 20 bits *)
let ants_bits = 20
let ants_max = (1 lsl ants_bits) - 1

(* [n] end slots, none of them holding a row *)
let end_ints n =
  let a = Array.make (4 * n) 0 in
  for j = 0 to n - 1 do a.((4 * j) + 3) <- min_int done;
  a

let make_rows names ~rows ~ends ~spans =
  { b_w = Array.make (3 * rows) 0; b_eint = end_ints ends;
    b_etime = Array.make (4 * ends) 0.; b_emask = ends - 1; b_str = [||];
    b_rare = [||]; b_swho = Array.make spans 0; b_sval = [||]; b_svar = [||];
    b_sjust = [||]; b_srec = [||]; b_ssrc = [||]; b_smask = spans - 1;
    b_names = names }

let names () =
  { n_vars = [||]; n_cstrs = [||]; n_strs = Array.make max_strings "";
    n_nstrs = 0 }

let create ~rows () =
  let size = ref 1 in
  while !size < max 1 rows do size := !size * 2 done;
  let rows = !size in
  {
    lg_rows =
      make_rows (names ()) ~rows ~ends:(max 1 (rows / 8)) ~spans:span_capacity;
    lg_mask = rows - 1;
    lg_seen = 0;
    lg_ends = 0;
    lg_guard = max_int;
    lg_on_lose = ignore;
    lg_on_end = ignore;
    lg_next_span = 1;
    lg_sp_ep = Array.make span_capacity 0;
    lg_sp_seq = Array.make span_capacity 0;
    lg_sp_info = Array.make span_capacity 0;
    lg_sp_ants = Array.make span_capacity 0;
    lg_sp_cross = [||];
    lg_pool = Array.make 1024 0;
    lg_pool_next = 0;
    lg_latest = [||];
    lg_depth = 0;
    lg_frames = Array.make (5 * 4) 0;
    lg_frame_parent = Array.make 4 None;
    lg_ended_start = -1;
    lg_ended_viol = 0;
    lg_ended_quar = 0;
    lg_ep_id = Array.make max_episodes 0;
    lg_ep_label = Array.make max_episodes "";
    lg_ep_parent = Array.make max_episodes None;
    lg_ep_outcome = Array.make max_episodes (-1);
    lg_last_epi = 0;
    lg_kernel = fresh_counters ();
    lg_base = fresh_counters ();
    lg_base_pushed = [];
  }

let rows_count b = Array.length b.b_w / 3

(* ---------------- names ---------------- *)

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
   (events of two networks in one log): the event is then kept
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
  else if id < 0 || id > a_max then -1
  else begin
    let tbl, id = enter tbl id c (fun cur -> cur.c_id = id) in
    names.n_cstrs <- tbl;
    id
  end

(* [s]'s code [2k+1] in the string table, entering it as entry [k]
   while there is room; -1 when the table is full without it. *)
let rec table_code names s k =
  if k = names.n_nstrs then
    if k < max_strings then begin
      names.n_strs.(k) <- s;
      names.n_nstrs <- k + 1;
      (2 * k) + 1
    end
    else -1
  else if Array.unsafe_get names.n_strs k == s then (2 * k) + 1
  else table_code names s (k + 1)

(* A label's code: from the table, or 0 with [s] stored in row [i]'s
   string column. *)
let string_code b i s =
  match table_code b.b_names s 0 with
  | -1 ->
    if Array.length b.b_str = 0 then b.b_str <- Array.make (rows_count b) s
    else Array.unsafe_set b.b_str i s;
    0
  | code -> code

(* A span's variable and justification, as [b_swho] holds them: the
   variable's id (bits 0-27) or [own_var] with the variable in the
   [b_svar] column; a justification tag (bits 29-31): the five constant
   justifications, [jt_all_args] — the shared [All_arguments]
   justification of the constraint whose id is in bits 32-61 —,
   [jt_single] — that constraint's [Single_var] record, its variable's
   id in the [b_srec] column — or [jt_own], with the justification in
   the [b_sjust] column.  A span's number costs an int store where a
   pointer would cost a write barrier, and a justification the engine
   built for one step would be promoted with the span. *)
let own_var = 1 lsl 28
let jt_shift = 29
let jt_all_args = 5
let jt_own = 6
let jt_single = 7
let cid_shift = 32

(* [col] with [x] at span [j]; an empty column is made on first use *)
let own_column col b j x =
  if Array.length col = 0 then Array.make (b.b_smask + 1) x
  else begin
    col.(j) <- x;
    col
  end

let own_just b j just =
  b.b_sjust <- own_column b.b_sjust b j just;
  jt_own lsl jt_shift

let who b j v =
  let names = b.b_names in
  let vw =
    match var_id names v with
    | -1 ->
      b.b_svar <- own_column b.b_svar b j v;
      own_var
    | id -> id
  in
  let jw =
    match v.v_just with
    | Default -> 0
    | User -> 1 lsl jt_shift
    | Application -> 2 lsl jt_shift
    | Update -> 3 lsl jt_shift
    | Tentative -> 4 lsl jt_shift
    | Propagated { source; record = All_arguments } as just
      when just == source.c_all_args_just -> (
      match cstr_id names source with
      | -1 -> own_just b j just
      | id -> (jt_all_args lsl jt_shift) lor (id lsl cid_shift))
    | Propagated { source; record = Single_var w } as just -> (
      match (cstr_id names source, var_id names w) with
      | -1, _ | _, -1 -> own_just b j just
      | id, wid ->
        b.b_srec <- own_column b.b_srec b j wid;
        (jt_single lsl jt_shift) lor (id lsl cid_shift))
    | Propagated _ as just -> own_just b j just
  in
  vw lor jw

let span_var b j =
  let w = b.b_swho.(j) in
  if w land own_var <> 0 then b.b_svar.(j) else b.b_names.n_vars.(w land b_max)

let span_just b j =
  let w = b.b_swho.(j) in
  match (w lsr jt_shift) land 7 with
  | 0 -> Default
  | 1 -> User
  | 2 -> Application
  | 3 -> Update
  | 4 -> Tentative
  | 5 -> b.b_names.n_cstrs.(w lsr cid_shift).c_all_args_just
  | 6 -> b.b_sjust.(j)
  | _ ->
    Propagated
      {
        source = b.b_names.n_cstrs.(w lsr cid_shift);
        record = Single_var b.b_names.n_vars.(b.b_srec.(j));
      }

(* A span's source code: 0 when it is the label of the constraint its
   variable's justification names, else from the table, or 2 with [src]
   stored in span [j]'s source column. *)
let source_code b j v src =
  match v.v_just with
  | Propagated { source; _ } when source.c_source_label == src -> 0
  | Propagated _ | Default | User | Application | Update | Tentative -> (
    match table_code b.b_names src 0 with
    | -1 ->
      b.b_ssrc <- own_column b.b_ssrc b j src;
      2
    | code -> code)

let source_of b j code =
  if code = 2 then b.b_ssrc.(j)
  else if code land 1 = 1 then b.b_names.n_strs.(code lsr 1)
  else
    match span_just b j with
    | Propagated { source; _ } -> source.c_source_label
    | Default | User | Application | Update | Tentative -> ""

let span_source lg j =
  source_of lg.lg_rows j ((lg.lg_sp_info.(j) lsr 3) land 31)

let put_rare b i ev =
  if Array.length b.b_rare = 0 then b.b_rare <- Array.make (rows_count b) ev
  else Array.unsafe_set b.b_rare i ev;
  k_rare

(* ---------------- rows ---------------- *)

(* The backing index of the next row, after warning the guard's hook
   when that row is still wanted. *)
let[@inline] next_row lg =
  let s = lg.lg_seen in
  if s >= lg.lg_guard then lg.lg_on_lose (s - lg.lg_mask);
  s land lg.lg_mask

(* [i] is masked into the row count, so the unchecked stores are in
   bounds *)
let[@inline] put_row lg i ep seq word =
  let w = lg.lg_rows.b_w and j = 3 * i in
  Array.unsafe_set w j ep;
  Array.unsafe_set w (j + 1) seq;
  Array.unsafe_set w (j + 2) word;
  lg.lg_seen <- lg.lg_seen + 1

let activate lg ep seq c changed =
  let i = next_row lg in
  let names = lg.lg_rows.b_names in
  let word =
    match changed with
    | None -> (
      match cstr_id names c with
      | -1 -> put_rare lg.lg_rows i (T_activate (c, changed))
      | id -> pack k_activate id 0)
    | Some v -> (
      match (cstr_id names c, var_id names v) with
      | -1, _ | _, -1 -> put_rare lg.lg_rows i (T_activate (c, changed))
      | id, vid -> pack k_activate_var id vid)
  in
  put_row lg i ep seq word

let schedule lg ep seq c priority =
  let i = next_row lg in
  let word =
    match cstr_id lg.lg_rows.b_names c with
    | id when id >= 0 && priority >= 0 && priority <= b_max ->
      pack k_schedule id priority
    | _ -> put_rare lg.lg_rows i (T_schedule (c, priority))
  in
  put_row lg i ep seq word

let check lg ep seq c ok =
  let i = next_row lg in
  let word =
    match cstr_id lg.lg_rows.b_names c with
    | -1 -> put_rare lg.lg_rows i (T_check (c, ok))
    | id -> pack (if ok then k_check_ok else k_check_failed) id 0
  in
  put_row lg i ep seq word

let restore lg ep seq v =
  let i = next_row lg in
  let word =
    match var_id lg.lg_rows.b_names v with
    | -1 -> put_rare lg.lg_rows i (T_restore v)
    | id -> pack k_restore id 0
  in
  put_row lg i ep seq word

(* ---------------- spans ---------------- *)

let held lg id =
  id >= 1 && id < lg.lg_next_span && id >= lg.lg_next_span - span_capacity

let grow_latest lg vid =
  let len = Array.length lg.lg_latest in
  let latest = Array.make (max (vid + 1) ((2 * len) + 16)) 0 in
  Array.blit lg.lg_latest 0 latest 0 len;
  lg.lg_latest <- latest

(* Double the pool, keeping its entries from [lo] up to [pos]. *)
let grow_pool lg lo pos =
  let old = lg.lg_pool in
  let size = 2 * Array.length old in
  let pool = Array.make size 0 in
  for q = lo to pos - 1 do
    pool.(q land (size - 1)) <- old.(q land (Array.length old - 1))
  done;
  lg.lg_pool <- pool

(* The latest span of each of [args] other than [v], in order, from
   pool position [pos] on (at most [ants_max] of them); the position
   after them.  Entries from [lo] on belong to spans still held: the
   pool doubles rather than overwrite them. *)
let rec fill lg v lo start pos = function
  | [] -> pos
  | a :: rest ->
    if a.v_id = v.v_id || pos - start = ants_max then fill lg v lo start pos rest
    else begin
      if pos - Array.length lg.lg_pool >= lo then grow_pool lg lo pos;
      let latest = lg.lg_latest and pool = lg.lg_pool in
      let id =
        if a.v_id < Array.length latest then Array.unsafe_get latest a.v_id
        else 0
      in
      Array.unsafe_set pool (pos land (Array.length pool - 1)) id;
      fill lg v lo start (pos + 1) rest
    end

let cross_of lg ep =
  let d = lg.lg_depth in
  if d > 0 && lg.lg_frames.(5 * (d - 1)) = ep then lg.lg_frame_parent.(d - 1)
  else None

(* Record [v]'s new state as the next span; its row word but for the
   kind (payloads: the span's slot and source code).  [v]'s
   justification is the new one (the engine assigns before it logs). *)
let span lg ep seq v src flags =
  let id = lg.lg_next_span in
  lg.lg_next_span <- id + 1;
  let j = id land (span_capacity - 1) in
  let b = lg.lg_rows in
  Array.unsafe_set b.b_swho j (who b j v);
  let code = source_code b j v src in
  Array.unsafe_set lg.lg_sp_ep j ep;
  Array.unsafe_set lg.lg_sp_seq j seq;
  let vid = v.v_id in
  if vid >= Array.length lg.lg_latest then grow_latest lg vid;
  let flags =
    match cross_of lg ep with
    | None -> flags
    | Some _ as parent ->
      if Array.length lg.lg_sp_cross = 0 then
        lg.lg_sp_cross <- Array.make span_capacity None;
      lg.lg_sp_cross.(j) <- parent;
      flags lor flag_cross
  in
  Array.unsafe_set lg.lg_sp_info j
    ((Array.unsafe_get lg.lg_latest vid lsl info_bits) lor (code lsl 3)
    lor flags);
  let start = lg.lg_pool_next in
  let next =
    match v.v_just with
    | Propagated { source; _ } ->
      (* the oldest span still held once this one is written *)
      let lo =
        if id <= span_capacity then 0
        else lg.lg_sp_ants.((id + 1) land (span_capacity - 1)) lsr ants_bits
      in
      fill lg v lo start start source.c_args
    | Default | User | Application | Update | Tentative -> start
  in
  Array.unsafe_set lg.lg_sp_ants j ((start lsl ants_bits) lor (next - start));
  lg.lg_pool_next <- next;
  Array.unsafe_set lg.lg_latest vid id;
  pack 0 j code

let assign lg ep seq v x src =
  let i = next_row lg in
  let word = span lg ep seq v src flag_value in
  let b = lg.lg_rows in
  if Array.length b.b_sval = 0 then b.b_sval <- Array.make span_capacity x
  else Array.unsafe_set b.b_sval (a_of word) x;
  put_row lg i ep seq (k_assign lor word)

let reset lg ep seq v src =
  let i = next_row lg in
  put_row lg i ep seq (k_reset lor span lg ep seq v src 0)

(* ---------------- episodes ---------------- *)

let start lg ep seq id label parent =
  let i = next_row lg in
  let word =
    match parent with
    | None when id >= 0 && id <= a_max ->
      pack k_start id (string_code lg.lg_rows i label)
    | _ -> put_rare lg.lg_rows i (T_episode_start (id, label, parent))
  in
  let d = lg.lg_depth in
  if d = Array.length lg.lg_frame_parent then begin
    let frames = Array.make (10 * d) 0 and parents = Array.make (2 * d) None in
    Array.blit lg.lg_frames 0 frames 0 (5 * d);
    Array.blit lg.lg_frame_parent 0 parents 0 d;
    lg.lg_frames <- frames;
    lg.lg_frame_parent <- parents
  end;
  let f = lg.lg_frames and k = 5 * d in
  f.(k) <- id;
  f.(k + 1) <- lg.lg_next_span;
  f.(k + 2) <- lg.lg_seen;
  f.(k + 3) <- lg.lg_kernel.k_violations;
  f.(k + 4) <- lg.lg_kernel.k_quarantined;
  lg.lg_frame_parent.(d) <- parent;
  lg.lg_depth <- d + 1;
  (* noting overwrites the slot of the episode [max_episodes] ids back:
     eviction is the store itself *)
  let e = id land (max_episodes - 1) in
  lg.lg_ep_id.(e) <- id;
  lg.lg_ep_label.(e) <- label;
  lg.lg_ep_parent.(e) <- parent;
  lg.lg_ep_outcome.(e) <- -1;
  lg.lg_last_epi <- id;
  put_row lg i ep seq word

(* The extras slot of end row [e], pushed at position [s].  The slot's
   last occupant must no longer be held once row [s] is written; when it
   still is (a run of short episodes, or end rows alone), the extras
   ring doubles first. *)
let end_slot lg e s =
  let b = lg.lg_rows in
  let j = e land b.b_emask in
  if b.b_eint.((4 * j) + 3) > s - lg.lg_mask - 1 then begin
    (* rows are held newest first, so the slots hold the newest [size]
       ends, all held; their counts are consecutive, so they land in
       distinct slots of the doubled ring *)
    let size = b.b_emask + 1 in
    let ints = end_ints (2 * size) and times = Array.make (8 * size) 0. in
    for k = 0 to size - 1 do
      let p = b.b_eint.((4 * k) + 3) in
      let c = a_of b.b_w.((3 * (p land lg.lg_mask)) + 2) in
      let k' = c land ((2 * size) - 1) in
      Array.blit b.b_eint (4 * k) ints (4 * k') 4;
      Array.blit b.b_etime (4 * k) times (4 * k') 4
    done;
    b.b_eint <- ints;
    b.b_etime <- times;
    b.b_emask <- (2 * size) - 1
  end;
  e land b.b_emask

(* An episode that did not commit leaves the network as it found it:
   its spans die and each variable's latest span goes back to the one
   its first span displaced — newest to oldest, so the oldest prior is
   written last and wins.  Spans the episode lost to eviction take
   their prior with them: the variable's latest entry then names an
   evicted span, which reads as "no recorded span" — a truncation,
   never a wrong answer. *)
let kill lg ep first =
  for id = lg.lg_next_span - 1 downto first do
    let j = id land (span_capacity - 1) in
    if held lg id && lg.lg_sp_ep.(j) = ep then begin
      let info = lg.lg_sp_info.(j) in
      lg.lg_sp_info.(j) <- info lor flag_dead;
      lg.lg_latest.((span_var lg.lg_rows j).v_id) <- info lsr info_bits
    end
  done

let finish lg ep seq sp =
  let i = next_row lg in
  let e = lg.lg_ends in
  let f = 4 * end_slot lg e lg.lg_seen in
  let b = lg.lg_rows in
  let ints = b.b_eint and times = b.b_etime in
  ints.(f) <- sp.es_id;
  ints.(f + 1) <- sp.es_steps;
  ints.(f + 2) <- sp.es_agenda_hwm;
  ints.(f + 3) <- lg.lg_seen;
  let t = sp.es_timings in
  times.(f) <- t.ph_propagate;
  times.(f + 1) <- t.ph_drain;
  times.(f + 2) <- t.ph_check;
  times.(f + 3) <- t.ph_restore;
  lg.lg_ends <- e + 1;
  let outcome = outcome_code sp.es_outcome in
  put_row lg i ep seq
    (pack (k_end + outcome) (e land a_max) (string_code b i sp.es_label));
  let k = sp.es_id land (max_episodes - 1) in
  if lg.lg_ep_id.(k) = sp.es_id then lg.lg_ep_outcome.(k) <- outcome;
  let d = lg.lg_depth in
  if d > 0 && lg.lg_frames.(5 * (d - 1)) = sp.es_id then begin
    let fr = 5 * (d - 1) in
    lg.lg_depth <- d - 1;
    lg.lg_frame_parent.(d - 1) <- None;
    lg.lg_ended_start <- lg.lg_frames.(fr + 2);
    lg.lg_ended_viol <- lg.lg_kernel.k_violations - lg.lg_frames.(fr + 3);
    lg.lg_ended_quar <- lg.lg_kernel.k_quarantined - lg.lg_frames.(fr + 4);
    if sp.es_outcome <> E_committed then kill lg sp.es_id lg.lg_frames.(fr + 1)
  end
  else begin
    (* unbalanced: the log was attached mid-episode *)
    lg.lg_ended_start <- -1;
    lg.lg_ended_viol <- 0;
    lg.lg_ended_quar <- 0
  end

(* ---------------- reading ---------------- *)

let is_span w =
  let k = kind_of w in
  k = k_assign || k = k_reset

(* a start or end row whose label is in the row's string column *)
let own_string w =
  let k = kind_of w in
  (k = k_start || k >= k_end) && b_of w = 0

(* A copy of [n] rows starting at row [i] of [b], which wraps at [mask]:
   the copy's end rows name their extras, and its assignment and reset
   rows their spans, by rank. *)
let copy b mask i n =
  let row d = (i + d) land mask in
  let word d = b.b_w.((3 * row d) + 2) in
  (* the offsets of the rows whose word satisfies [p], in order *)
  let rows_where p =
    let m = ref 0 in
    for d = 0 to n - 1 do if p (word d) then incr m done;
    let a = Array.make !m 0 and k = ref 0 in
    for d = 0 to n - 1 do
      if p (word d) then begin
        a.(!k) <- d;
        incr k
      end
    done;
    a
  in
  let rec any p d = d < n && (p (word d) || any p (d + 1)) in
  let ends = rows_where is_end and spans = rows_where is_span in
  let extra stride a =
    Array.init (stride * Array.length ends) (fun k ->
        let w = word ends.(k / stride) in
        a.((stride * (a_of w land b.b_emask)) + (k mod stride)))
  in
  let span_col a =
    if Array.length a = 0 then [||]
    else Array.map (fun d -> a.(a_of (word d) land b.b_smask)) spans
  in
  let col used a =
    if Array.length a = 0 || not used then [||]
    else Array.init n (fun d -> a.(row d))
  in
  let w = Array.make (3 * n) 0 in
  for d = 0 to n - 1 do Array.blit b.b_w (3 * row d) w (3 * d) 3 done;
  let renumber rows =
    Array.iteri
      (fun k d ->
        let x = w.((3 * d) + 2) in
        w.((3 * d) + 2) <- pack (kind_of x) k (b_of x))
      rows
  in
  renumber ends;
  renumber spans;
  { b_w = w; b_eint = extra 4 b.b_eint; b_etime = extra 4 b.b_etime;
    b_emask = a_max; b_str = col (any own_string 0) b.b_str;
    b_rare = col (any (fun w -> kind_of w = k_rare) 0) b.b_rare;
    b_swho = span_col b.b_swho; b_sval = span_col b.b_sval;
    b_svar = span_col b.b_svar; b_sjust = span_col b.b_sjust;
    b_srec = span_col b.b_srec; b_ssrc = span_col b.b_ssrc;
    b_smask = a_max; b_names = b.b_names }

(* A string code: 0 = in the row's string column, [2k+1] = string table
   entry [k]. *)
let string_of b i code =
  if code = 0 then b.b_str.(i) else b.b_names.n_strs.(code lsr 1)

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

let event b i =
  let w = b.b_w.((3 * i) + 2) in
  let k = kind_of w and x = a_of w and y = b_of w in
  let vars = b.b_names.n_vars and cstrs = b.b_names.n_cstrs in
  let j = x land b.b_smask in
  let ev =
    if is_end w then T_episode_end (span_at b i)
    else if k = k_assign then
      T_assign (span_var b j, b.b_sval.(j), source_of b j y)
    else if k = k_reset then T_reset (span_var b j, source_of b j y)
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

(* the span of row [i], if it is an episode end *)
let end_span b i = if is_end b.b_w.((3 * i) + 2) then Some (span_at b i) else None

(* The fields of the log's span in slot [j], as provenance reads them. *)

let span_value lg j =
  if lg.lg_sp_info.(j) land flag_value <> 0 then Some lg.lg_rows.b_sval.(j)
  else None

let span_dead lg j = lg.lg_sp_info.(j) land flag_dead <> 0

let span_cross lg j =
  if lg.lg_sp_info.(j) land flag_cross <> 0 then lg.lg_sp_cross.(j) else None

(* The antecedents of the span in slot [j]: the logged entries are the
   latest span, at the time, of each argument of the justifying
   constraint other than the span's variable, in argument order; the
   dependency record keeps those whose variable it names.  A held entry
   names its variable through its own span; an evicted one through the
   argument in its place. *)
let span_antecedents lg j =
  let v = span_var lg.lg_rows j in
  match span_just lg.lg_rows j with
  | Propagated { source; record } ->
    let word = lg.lg_sp_ants.(j) in
    let pos = word lsr ants_bits and n = word land ants_max in
    let pool = lg.lg_pool in
    let rec go k args =
      if k = n then []
      else
        match args with
        | a :: rest when a.v_id = v.v_id -> go k rest
        | _ -> (
          let arg, rest =
            match args with a :: rest -> (Some a, rest) | [] -> (None, [])
          in
          let id = pool.((pos + k) land (Array.length pool - 1)) in
          let var =
            if held lg id then
              Some (span_var lg.lg_rows (id land (span_capacity - 1)))
            else arg
          in
          match var with
          | Some u
            when id <> 0 && u.v_id <> v.v_id
                 && source.c_in_dependency source record u ->
            id :: go (k + 1) rest
          | Some _ | None -> go (k + 1) rest)
    in
    go 0 source.c_args
  | Default | User | Application | Update | Tentative -> []

(* ---------------- any event ---------------- *)

let push lg ep seq (ev : _ trace_event) =
  match ev with
  | T_assign (v, x, src) -> assign lg ep seq v x src
  | T_reset (v, src) -> reset lg ep seq v src
  | T_activate (c, changed) -> activate lg ep seq c changed
  | T_schedule (c, priority) -> schedule lg ep seq c priority
  | T_check (c, ok) -> check lg ep seq c ok
  | T_restore v -> restore lg ep seq v
  | T_episode_start (id, label, parent) -> start lg ep seq id label parent
  | T_episode_end sp -> finish lg ep seq sp
  | T_violation _ | T_quarantine _ ->
    let i = next_row lg in
    put_row lg i ep seq (put_rare lg.lg_rows i ev)
