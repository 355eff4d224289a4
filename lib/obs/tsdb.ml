(* Embedded time-series store: Gorilla-style compressed blocks inside
   CRC-framed segment files (the [Framing] discipline the journal
   uses, so crash recovery behaves identically: torn tails truncate,
   bit-flips skip one block).  One mutex guards everything — samples
   arrive once per window tick and queries are human-rate, so there is
   nothing here worth lock-free cleverness. *)

(* ---------------- bit-level reader/writer ---------------- *)

module Bits = struct
  type writer = { mutable w_cur : int; mutable w_used : int; w_buf : Buffer.t }

  let writer () = { w_cur = 0; w_used = 0; w_buf = Buffer.create 64 }

  let put w bit =
    w.w_cur <- (w.w_cur lsl 1) lor (if bit then 1 else 0);
    w.w_used <- w.w_used + 1;
    if w.w_used = 8 then begin
      Buffer.add_char w.w_buf (Char.chr w.w_cur);
      w.w_cur <- 0;
      w.w_used <- 0
    end

  (* the low [n] bits of [v], most significant first *)
  let put_bits w v n =
    for i = n - 1 downto 0 do
      put w (Int64.logand (Int64.shift_right_logical v i) 1L = 1L)
    done

  let contents w =
    let whole = Buffer.contents w.w_buf in
    if w.w_used = 0 then whole
    else whole ^ String.make 1 (Char.chr (w.w_cur lsl (8 - w.w_used)))

  type reader = { r_data : string; r_base : int; mutable r_pos : int }

  let reader data base = { r_data = data; r_base = base; r_pos = 0 }

  let get r =
    let byte = r.r_base + (r.r_pos / 8) in
    if byte >= String.length r.r_data then
      failwith "Tsdb: truncated bitstream";
    let bit = 7 - (r.r_pos mod 8) in
    r.r_pos <- r.r_pos + 1;
    (Char.code r.r_data.[byte] lsr bit) land 1 = 1

  let get_bits r n =
    let v = ref 0L in
    for _ = 1 to n do
      v := Int64.logor (Int64.shift_left !v 1) (if get r then 1L else 0L)
    done;
    !v
end

let clz64 x =
  if x = 0L then 64
  else begin
    let n = ref 0 and x = ref x in
    if Int64.shift_right_logical !x 32 = 0L then begin
      n := !n + 32;
      x := Int64.shift_left !x 32
    end;
    if Int64.shift_right_logical !x 48 = 0L then begin
      n := !n + 16;
      x := Int64.shift_left !x 16
    end;
    if Int64.shift_right_logical !x 56 = 0L then begin
      n := !n + 8;
      x := Int64.shift_left !x 8
    end;
    if Int64.shift_right_logical !x 60 = 0L then begin
      n := !n + 4;
      x := Int64.shift_left !x 4
    end;
    if Int64.shift_right_logical !x 62 = 0L then begin
      n := !n + 2;
      x := Int64.shift_left !x 2
    end;
    if Int64.shift_right_logical !x 63 = 0L then incr n;
    !n
  end

let ctz64 x =
  if x = 0L then 64
  else begin
    let n = ref 0 and x = ref x in
    if Int64.logand !x 0xFFFFFFFFL = 0L then begin
      n := !n + 32;
      x := Int64.shift_right_logical !x 32
    end;
    if Int64.logand !x 0xFFFFL = 0L then begin
      n := !n + 16;
      x := Int64.shift_right_logical !x 16
    end;
    if Int64.logand !x 0xFFL = 0L then begin
      n := !n + 8;
      x := Int64.shift_right_logical !x 8
    end;
    if Int64.logand !x 0xFL = 0L then begin
      n := !n + 4;
      x := Int64.shift_right_logical !x 4
    end;
    if Int64.logand !x 0x3L = 0L then begin
      n := !n + 2;
      x := Int64.shift_right_logical !x 2
    end;
    if Int64.logand !x 1L = 0L then incr n;
    !n
  end

(* ---------------- the Gorilla codec ---------------- *)

(* Timestamps: millisecond integers, delta-of-delta with the classic
   bucket ladder ('0' for the regular-cadence common case, then 7/9/12
   bits, then a raw 64-bit escape so arbitrary jumps still round-trip).
   Values: XOR against the previous value; '0' for unchanged, else the
   meaningful bits, reusing the previous leading/length window when
   they fit ('10') and re-describing it in 6+6 bits when not ('11'). *)

let put_dod w dod =
  if dod = 0L then Bits.put w false
  else if dod >= -63L && dod <= 64L then begin
    Bits.put_bits w 0b10L 2;
    Bits.put_bits w (Int64.add dod 63L) 7
  end
  else if dod >= -255L && dod <= 256L then begin
    Bits.put_bits w 0b110L 3;
    Bits.put_bits w (Int64.add dod 255L) 9
  end
  else if dod >= -2047L && dod <= 2048L then begin
    Bits.put_bits w 0b1110L 4;
    Bits.put_bits w (Int64.add dod 2047L) 12
  end
  else begin
    Bits.put_bits w 0b1111L 4;
    Bits.put_bits w dod 64
  end

let get_dod r =
  if not (Bits.get r) then 0L
  else if not (Bits.get r) then Int64.sub (Bits.get_bits r 7) 63L
  else if not (Bits.get r) then Int64.sub (Bits.get_bits r 9) 255L
  else if not (Bits.get r) then Int64.sub (Bits.get_bits r 12) 2047L
  else Bits.get_bits r 64

type vstate = {
  mutable vs_bits : int64;
  mutable vs_lead : int; (* -1: no window established yet *)
  mutable vs_mlen : int;
}

let put_val w st bits =
  let x = Int64.logxor st.vs_bits bits in
  st.vs_bits <- bits;
  if x = 0L then Bits.put w false
  else begin
    Bits.put w true;
    let lead = clz64 x in
    let trail = ctz64 x in
    let prev_trail = 64 - st.vs_lead - st.vs_mlen in
    if st.vs_lead >= 0 && lead >= st.vs_lead && trail >= prev_trail then begin
      Bits.put w false;
      Bits.put_bits w (Int64.shift_right_logical x prev_trail) st.vs_mlen
    end
    else begin
      let mlen = 64 - lead - trail in
      Bits.put w true;
      Bits.put_bits w (Int64.of_int lead) 6;
      Bits.put_bits w (Int64.of_int (mlen - 1)) 6;
      Bits.put_bits w (Int64.shift_right_logical x trail) mlen;
      st.vs_lead <- lead;
      st.vs_mlen <- mlen
    end
  end

let get_val r st =
  if not (Bits.get r) then st.vs_bits
  else begin
    let x =
      if not (Bits.get r) then
        Int64.shift_left (Bits.get_bits r st.vs_mlen)
          (64 - st.vs_lead - st.vs_mlen)
      else begin
        let lead = Int64.to_int (Bits.get_bits r 6) in
        let mlen = Int64.to_int (Bits.get_bits r 6) + 1 in
        st.vs_lead <- lead;
        st.vs_mlen <- mlen;
        Int64.shift_left (Bits.get_bits r mlen) (64 - lead - mlen)
      end
    in
    st.vs_bits <- Int64.logxor st.vs_bits x;
    st.vs_bits
  end

(* ---------------- block payloads ---------------- *)

let version = 1

let ms_of t = Int64.of_float (Float.round (t *. 1000.))

let t_of ms = Int64.to_float ms /. 1000.

(* the millisecond quantization [append] applies; block index bounds
   use this so they agree exactly with what decode returns *)
let quantize t = t_of (ms_of t)

let put_u16 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff))

let get_u16 s off = Char.code s.[off] lor (Char.code s.[off + 1] lsl 8)

let put_i64 buf v =
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL)))
  done

let get_i64 s off =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[off + i]))
  done;
  !v

(* version(1) | name len(2) name | count(2) | t0 ms(8) | t_last ms(8)
   | v0 bits(8) | bitstream.  The last timestamp rides in the header
   so recovery can index a block's time range without decoding it. *)

let encode_block ~series pts =
  let n = Array.length pts in
  if n = 0 then invalid_arg "Tsdb.encode_block: empty block";
  if n > 0xffff then invalid_arg "Tsdb.encode_block: too many points";
  if String.length series > 0xffff then
    invalid_arg "Tsdb.encode_block: series name too long";
  let buf = Buffer.create (40 + String.length series + n) in
  Buffer.add_char buf (Char.chr version);
  put_u16 buf (String.length series);
  Buffer.add_string buf series;
  put_u16 buf n;
  let t0, v0 = pts.(0) in
  put_i64 buf (ms_of t0);
  put_i64 buf (ms_of (fst pts.(n - 1)));
  put_i64 buf (Int64.bits_of_float v0);
  let w = Bits.writer () in
  let st = { vs_bits = Int64.bits_of_float v0; vs_lead = -1; vs_mlen = 0 } in
  let prev_t = ref (ms_of t0) and prev_delta = ref 0L in
  for i = 1 to n - 1 do
    let t, v = pts.(i) in
    let tm = ms_of t in
    let delta = Int64.sub tm !prev_t in
    put_dod w (Int64.sub delta !prev_delta);
    prev_t := tm;
    prev_delta := delta;
    put_val w st (Int64.bits_of_float v)
  done;
  Buffer.add_string buf (Bits.contents w);
  Buffer.contents buf

(* Header-only view: (series, count, t0, t_last, bitstream offset). *)
let block_header payload =
  let len = String.length payload in
  if len < 5 then None
  else if Char.code payload.[0] <> version then None
  else
    let nlen = get_u16 payload 1 in
    let hdr = 3 + nlen + 2 + 24 in
    if len < hdr then None
    else
      let series = String.sub payload 3 nlen in
      let count = get_u16 payload (3 + nlen) in
      if count = 0 then None
      else
        let t0 = get_i64 payload (3 + nlen + 2) in
        let t1 = get_i64 payload (3 + nlen + 10) in
        Some (series, count, t_of t0, t_of t1, hdr)

let decode_block payload =
  match block_header payload with
  | None -> failwith "Tsdb: malformed block header"
  | Some (series, count, t0, t_last, bits_off) ->
    let v0 =
      Int64.float_of_bits (get_i64 payload (bits_off - 8))
    in
    let pts = Array.make count (t0, v0) in
    let r = Bits.reader payload bits_off in
    let st = { vs_bits = Int64.bits_of_float v0; vs_lead = -1; vs_mlen = 0 } in
    let prev_t = ref (ms_of t0) and prev_delta = ref 0L in
    for i = 1 to count - 1 do
      let delta = Int64.add !prev_delta (get_dod r) in
      prev_t := Int64.add !prev_t delta;
      prev_delta := delta;
      let v = Int64.float_of_bits (get_val r st) in
      pts.(i) <- (t_of !prev_t, v)
    done;
    if count > 1 && fst pts.(count - 1) <> t_last then
      failwith "Tsdb: block trailer timestamp mismatch";
    (series, pts)

(* ---------------- the segment store ---------------- *)

type loc = { lo_path : string; lo_off : int; lo_len : int }

type block = {
  bl_series : string;
  bl_count : int;
  bl_t0 : float;
  bl_t1 : float;
  bl_loc : loc;
}

(* An open block: its points in arrival order, unboxed in two float
   arrays that grow by doubling up to the block size. *)
type builder = {
  bu_name : string;
  mutable bu_t : float array;
  mutable bu_v : float array;
  mutable bu_n : int;
}

(* earliest and latest timestamp of an open block's [bu_n > 0] points *)
let bu_bounds bu =
  let lo = ref bu.bu_t.(0) and hi = ref bu.bu_t.(0) in
  for i = 1 to bu.bu_n - 1 do
    let x = bu.bu_t.(i) in
    if x < !lo then lo := x;
    if x > !hi then hi := x
  done;
  (!lo, !hi)

type seg = { sg_path : string; sg_id : int; mutable sg_bytes : int }

type t = {
  ts_dir : string;
  ts_seg_bytes : int;
  ts_retain : int;
  ts_ppb : int;
  ts_mu : Mutex.t;
  ts_warnings : string list;
  mutable ts_segs : seg list; (* newest first; head = active *)
  mutable ts_fd : Unix.file_descr option;
  mutable ts_blocks : block list; (* sealed, newest first *)
  ts_open : (string, builder) Hashtbl.t;
  mutable ts_next_seg : int;
  mutable ts_points : int;
  mutable ts_sealed_points : int;
  mutable ts_sealed_bytes : int;
  mutable ts_closed : bool;
}

let with_lock t f =
  Mutex.lock t.ts_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.ts_mu) f

let dir t = t.ts_dir

let recovery_warnings t = t.ts_warnings

let seg_name id = Printf.sprintf "seg-%08d.tsdb" id

let seg_id_of name =
  if
    String.length name = 17
    && String.sub name 0 4 = "seg-"
    && Filename.check_suffix name ".tsdb"
  then int_of_string_opt (String.sub name 4 8)
  else None

let rec mkdir_p d =
  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
  else begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()
  end

let open_ ?(seg_bytes = 1 lsl 20) ?(retain_bytes = 64 * 1024 * 1024)
    ?(points_per_block = 240) dir =
  mkdir_p dir;
  let ids =
    Sys.readdir dir |> Array.to_list
    |> List.filter_map seg_id_of
    |> List.sort compare
  in
  let warnings = ref [] in
  let blocks = ref [] (* newest first *) in
  let segs =
    List.map
      (fun id ->
        let path = Filename.concat dir (seg_name id) in
        let data = Framing.read_file path in
        let records, warns, valid_end = Framing.scan data in
        List.iter
          (fun (idx, msg) ->
            warnings :=
              Printf.sprintf "%s: record %d: %s" (seg_name id) idx msg
              :: !warnings)
          warns;
        List.iter
          (fun (off, payload) ->
            match block_header payload with
            | Some (series, count, t0, t1, _) ->
              blocks :=
                {
                  bl_series = series;
                  bl_count = count;
                  bl_t0 = t0;
                  bl_t1 = t1;
                  bl_loc =
                    { lo_path = path; lo_off = off; lo_len = String.length payload };
                }
                :: !blocks
            | None ->
              warnings :=
                Printf.sprintf "%s: unrecognized block at offset %d — skipped"
                  (seg_name id) off
                :: !warnings)
          records;
        (* appends resume at [valid_end]; bytes past it are the torn
           tail the next writer truncates away *)
        { sg_path = path; sg_id = id; sg_bytes = valid_end })
      ids
  in
  let points =
    List.fold_left (fun acc b -> acc + b.bl_count) 0 !blocks
  in
  let sealed_bytes =
    List.fold_left
      (fun acc b -> acc + Framing.header_len + b.bl_loc.lo_len)
      0 !blocks
  in
  {
    ts_dir = dir;
    ts_seg_bytes = max 4096 seg_bytes;
    ts_retain = max 8192 retain_bytes;
    ts_ppb = max 2 (min 0xffff points_per_block);
    ts_mu = Mutex.create ();
    ts_warnings = List.rev !warnings;
    ts_segs = List.rev segs;
    ts_fd = None;
    ts_blocks = !blocks;
    ts_open = Hashtbl.create 32;
    ts_next_seg = (match ids with [] -> 0 | _ -> List.fold_left max 0 ids + 1);
    ts_points = points;
    ts_sealed_points = points;
    ts_sealed_bytes = sealed_bytes;
    ts_closed = false;
  }

let close_fd_locked t =
  match t.ts_fd with
  | None -> ()
  | Some fd ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    t.ts_fd <- None

(* The active segment (opening or rotating as needed) with room for a
   frame of [frlen] bytes.  The fd opens lazily so a read-only open
   (e.g. `stem report`) never touches the directory. *)
let active_for_locked t frlen =
  (match t.ts_segs with
  | cur :: _
    when t.ts_fd <> None
         && cur.sg_bytes > 0
         && cur.sg_bytes + frlen > t.ts_seg_bytes ->
    close_fd_locked t
  | _ -> ());
  match t.ts_fd with
  | Some fd -> (List.hd t.ts_segs, fd)
  | None ->
    let seg =
      match t.ts_segs with
      | cur :: _ when cur.sg_bytes = 0 || cur.sg_bytes + frlen <= t.ts_seg_bytes
        ->
        cur
      | _ ->
        let s =
          {
            sg_path = Filename.concat t.ts_dir (seg_name t.ts_next_seg);
            sg_id = t.ts_next_seg;
            sg_bytes = 0;
          }
        in
        t.ts_next_seg <- t.ts_next_seg + 1;
        t.ts_segs <- s :: t.ts_segs;
        s
    in
    (* the scan stopped at sg_bytes: appends resume after the sealed
       blocks *)
    let fd = Framing.open_at seg.sg_path seg.sg_bytes in
    t.ts_fd <- Some fd;
    (seg, fd)

let retention_locked t =
  let total () = List.fold_left (fun a s -> a + s.sg_bytes) 0 t.ts_segs in
  while List.length t.ts_segs > 1 && total () > t.ts_retain do
    match List.rev t.ts_segs with
    | [] -> assert false
    | oldest :: _ ->
      t.ts_segs <- List.filter (fun s -> s != oldest) t.ts_segs;
      (try Sys.remove oldest.sg_path with Sys_error _ -> ());
      let dropped, kept =
        List.partition (fun b -> b.bl_loc.lo_path = oldest.sg_path) t.ts_blocks
      in
      t.ts_blocks <- kept;
      List.iter
        (fun b ->
          t.ts_points <- t.ts_points - b.bl_count;
          t.ts_sealed_points <- t.ts_sealed_points - b.bl_count;
          t.ts_sealed_bytes <-
            t.ts_sealed_bytes - Framing.header_len - b.bl_loc.lo_len)
        dropped
  done

let seal_locked t name bu =
  if bu.bu_n > 0 then begin
    let pts = Array.init bu.bu_n (fun i -> (bu.bu_t.(i), bu.bu_v.(i))) in
    let first, last = bu_bounds bu in
    let payload = encode_block ~series:name pts in
    let fr = Framing.frame payload in
    let seg, fd = active_for_locked t (String.length fr) in
    let off = seg.sg_bytes + Framing.header_len in
    Framing.write_all fd fr;
    seg.sg_bytes <- seg.sg_bytes + String.length fr;
    t.ts_blocks <-
      {
        bl_series = name;
        bl_count = bu.bu_n;
        bl_t0 = quantize first;
        bl_t1 = quantize last;
        bl_loc =
          { lo_path = seg.sg_path; lo_off = off; lo_len = String.length payload };
      }
      :: t.ts_blocks;
    t.ts_sealed_points <- t.ts_sealed_points + bu.bu_n;
    t.ts_sealed_bytes <- t.ts_sealed_bytes + String.length fr;
    bu.bu_n <- 0;
    retention_locked t
  end

let builder_locked t series =
  match Hashtbl.find_opt t.ts_open series with
  | Some bu -> bu
  | None ->
    let bu = { bu_name = series; bu_t = [||]; bu_v = [||]; bu_n = 0 } in
    Hashtbl.add t.ts_open series bu;
    bu

let put_locked t bu time v =
  if bu.bu_n = Array.length bu.bu_t then begin
    let size = min t.ts_ppb (max 16 (2 * bu.bu_n)) in
    let grow a = Array.append a (Array.make (size - bu.bu_n) 0.) in
    bu.bu_t <- grow bu.bu_t;
    bu.bu_v <- grow bu.bu_v
  end;
  bu.bu_t.(bu.bu_n) <- time;
  bu.bu_v.(bu.bu_n) <- v;
  bu.bu_n <- bu.bu_n + 1;
  t.ts_points <- t.ts_points + 1;
  if bu.bu_n >= t.ts_ppb then seal_locked t bu.bu_name bu

let append t ~series ~t:time ~v =
  with_lock t (fun () ->
      if t.ts_closed then invalid_arg "Tsdb.append: closed store";
      put_locked t (builder_locked t series) time v)

type handle = builder

let handle t series = with_lock t (fun () -> builder_locked t series)

let append_batch t ~t:time f =
  with_lock t (fun () ->
      if t.ts_closed then invalid_arg "Tsdb.append: closed store";
      f (fun bu v -> put_locked t bu time v))

let flush_locked t =
  Hashtbl.iter (fun name bu -> seal_locked t name bu) t.ts_open;
  Option.iter Unix.fsync t.ts_fd

let flush t = with_lock t (fun () -> if not t.ts_closed then flush_locked t)

let close t =
  with_lock t (fun () ->
      if not t.ts_closed then
        Fun.protect
          ~finally:(fun () ->
            close_fd_locked t;
            t.ts_closed <- true)
          (fun () -> flush_locked t))

(* ---------------- queries ---------------- *)

let read_payload loc =
  try
    In_channel.with_open_bin loc.lo_path (fun ic ->
        In_channel.seek ic (Int64.of_int loc.lo_off);
        match In_channel.really_input_string ic loc.lo_len with
        | Some s -> s
        | None -> "")
  with Sys_error _ -> ""

let query t ~series ~from_ ~to_ =
  with_lock t (fun () ->
      let sealed =
        List.filter
          (fun b -> b.bl_series = series && b.bl_t0 <= to_ && b.bl_t1 >= from_)
          t.ts_blocks
        |> List.rev (* oldest first *)
      in
      let of_block b =
        match decode_block (read_payload b.bl_loc) with
        | _, pts -> Array.to_list pts
        | exception _ -> []
      in
      let in_range (ts, _) = ts >= from_ && ts <= to_ in
      let disk = List.concat_map (fun b -> List.filter in_range (of_block b)) sealed in
      let live =
        match Hashtbl.find_opt t.ts_open series with
        | None -> []
        | Some bu ->
          List.init bu.bu_n (fun i -> (quantize bu.bu_t.(i), bu.bu_v.(i)))
          |> List.filter in_range
      in
      List.stable_sort
        (fun (a, _) (b, _) -> Float.compare a b)
        (disk @ live))

type bucket = {
  bk_t : float;
  bk_min : float;
  bk_max : float;
  bk_avg : float;
  bk_count : int;
}

let query_range t ~series ~from_ ~to_ ~step =
  if step <= 0. then invalid_arg "Tsdb.query_range: step <= 0";
  let pts = query t ~series ~from_ ~to_ in
  let acc : (int, float ref * float ref * float ref * int ref) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (ts, v) ->
      let i = int_of_float ((ts -. from_) /. step) in
      match Hashtbl.find_opt acc i with
      | Some (mn, mx, sum, n) ->
        if v < !mn then mn := v;
        if v > !mx then mx := v;
        sum := !sum +. v;
        incr n
      | None -> Hashtbl.add acc i (ref v, ref v, ref v, ref 1))
    pts;
  Hashtbl.fold
    (fun i (mn, mx, sum, n) rows ->
      {
        bk_t = from_ +. (float_of_int i *. step);
        bk_min = !mn;
        bk_max = !mx;
        bk_avg = !sum /. float_of_int !n;
        bk_count = !n;
      }
      :: rows)
    acc []
  |> List.sort (fun a b -> Float.compare a.bk_t b.bk_t)

let series t =
  with_lock t (fun () ->
      let table : (string, int ref * float ref * float ref) Hashtbl.t =
        Hashtbl.create 32
      in
      let note name count first last =
        match Hashtbl.find_opt table name with
        | Some (n, fst_, lst) ->
          n := !n + count;
          if first < !fst_ then fst_ := first;
          if last > !lst then lst := last
        | None -> Hashtbl.add table name (ref count, ref first, ref last)
      in
      List.iter (fun b -> note b.bl_series b.bl_count b.bl_t0 b.bl_t1) t.ts_blocks;
      Hashtbl.iter
        (fun name bu ->
          if bu.bu_n > 0 then begin
            let first, last = bu_bounds bu in
            note name bu.bu_n (quantize first) (quantize last)
          end)
        t.ts_open;
      Hashtbl.fold
        (fun name (n, fst_, lst) rows -> (name, !n, !fst_, !lst) :: rows)
        table []
      |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b))

type stats = {
  st_segments : int;
  st_blocks : int;
  st_points : int;
  st_disk_bytes : int;
  st_sealed_points : int;
  st_sealed_bytes : int;
  st_ratio : float;
}

let stats t =
  with_lock t (fun () ->
      {
        st_segments = List.length t.ts_segs;
        st_blocks = List.length t.ts_blocks;
        st_points = t.ts_points;
        st_disk_bytes = List.fold_left (fun a s -> a + s.sg_bytes) 0 t.ts_segs;
        st_sealed_points = t.ts_sealed_points;
        st_sealed_bytes = t.ts_sealed_bytes;
        st_ratio =
          (if t.ts_sealed_bytes = 0 then 0.
           else float_of_int (16 * t.ts_sealed_points) /. float_of_int t.ts_sealed_bytes);
      })

let segments t =
  with_lock t (fun () -> List.rev_map (fun s -> s.sg_path) t.ts_segs)

(* ---------------- sparklines ---------------- *)

let bars = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |]

let sparkline vs =
  match vs with
  | [] -> ""
  | _ ->
    let finite = List.filter (fun v -> Float.is_finite v) vs in
    let lo = List.fold_left min infinity finite in
    let hi = List.fold_left max neg_infinity finite in
    let span = hi -. lo in
    String.concat ""
      (List.map
         (fun v ->
           if not (Float.is_finite v) then " "
           else if span <= 0. then bars.(3)
           else
             let i = int_of_float ((v -. lo) /. span *. 8.) in
             bars.(max 0 (min 7 i)))
         vs)
