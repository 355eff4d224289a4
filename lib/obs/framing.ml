(* The record-framing discipline under every on-disk log in the tree:
   the write-ahead journal and the time-series segments share this one
   reader/writer so they also share its crash semantics — a torn final
   frame is truncated away, a bit-flipped payload is skipped, anything
   else is kept verbatim. *)

(* ---------------- CRC-32 (IEEE 802.3, zlib polynomial) ---------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let t = Lazy.force crc_table in
  let c = ref 0xffffffff in
  String.iter
    (fun ch -> c := t.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff

(* ---------------- framing ---------------- *)

(* [u32 LE length][u32 LE crc32(payload)][payload] *)

let header_len = 8

let max_record = 16 * 1024 * 1024

let put_u32 b off v =
  Bytes.set b off (Char.chr (v land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 3) (Char.chr ((v lsr 24) land 0xff))

let get_u32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let frame payload =
  let n = String.length payload in
  let b = Bytes.create (header_len + n) in
  put_u32 b 0 n;
  put_u32 b 4 (crc32 payload);
  Bytes.blit_string payload 0 b header_len n;
  Bytes.unsafe_to_string b

let scan data =
  let n = String.length data in
  let records = ref [] in
  let warnings = ref [] in
  let valid_end = ref 0 in
  let warn idx msg = warnings := (idx, msg) :: !warnings in
  let rec go off idx =
    if off >= n then ()
    else if off + header_len > n then
      warn idx
        (Printf.sprintf
           "torn record: %d header byte(s) at end of file (need %d) — \
            discarded"
           (n - off) header_len)
    else
      let len = get_u32 data off in
      let crc = get_u32 data (off + 4) in
      if len > max_record then
        warn idx
          (Printf.sprintf
             "corrupt framing: implausible record length %d — rest of file \
              discarded"
             len)
      else if off + header_len + len > n then
        warn idx
          (Printf.sprintf
             "torn record: %d payload byte(s) present of %d — discarded"
             (n - off - header_len) len)
      else begin
        let payload = String.sub data (off + header_len) len in
        let next = off + header_len + len in
        (* the frame is structurally whole either way: appends resume
           after it, only a CRC mismatch drops the payload *)
        valid_end := next;
        if crc32 payload <> crc then
          warn idx
            (Printf.sprintf
               "CRC mismatch (stored %08x, computed %08x) — record skipped" crc
               (crc32 payload))
        else records := (off + header_len, payload) :: !records;
        go next (idx + 1)
      end
  in
  go 0 1;
  (List.rev !records, List.rev !warnings, !valid_end)

(* At most the size [stat] reports: a device that reads without end
   (/dev/zero, /dev/full) reports 0 and reads as empty. *)
let read_file path =
  if not (Sys.file_exists path) then ""
  else
    let size = (Unix.stat path).Unix.st_size in
    In_channel.with_open_bin path (fun ic ->
        let buf = Bytes.create size in
        let rec fill off =
          if off = size then off
          else
            match In_channel.input ic buf off (size - off) with
            | 0 -> off
            | n -> fill (off + n)
        in
        Bytes.sub_string buf 0 (fill 0))

(* ---------------- appending ---------------- *)

let open_at path valid_end =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644
  in
  (* cut a torn tail only when there is one, and raise rather than let
     new frames overwrite the file from offset 0 *)
  (try
     if (Unix.fstat fd).Unix.st_size > valid_end then Unix.ftruncate fd valid_end;
     ignore (Unix.lseek fd valid_end Unix.SEEK_SET)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let write_all fd s =
  let n = String.length s in
  let b = Bytes.unsafe_of_string s in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0
