(** Length-prefixed, CRC-guarded record framing — the on-disk
    discipline shared by the write-ahead journal ([Serve.Journal]) and
    the time-series store ({!Tsdb}).

    A frame is [[u32 LE length][u32 LE crc32(payload)][payload]]. The
    reader is deliberately forgiving about exactly the two corruptions
    a crash can produce — a torn final frame (the process died
    mid-append) and a bit-flipped payload (detected by the CRC) — and
    strict about everything else. *)

(** CRC-32 (IEEE 802.3, the zlib polynomial). *)
val crc32 : string -> int

(** Frame header size in bytes (length + CRC words). *)
val header_len : int

(** A frame length beyond this is not a record, it is corrupted
    framing: readers stop rather than skip gigabytes on a garbage
    length field. *)
val max_record : int

val put_u32 : Bytes.t -> int -> int -> unit

val get_u32 : string -> int -> int

(** Wrap one payload in a frame. *)
val frame : string -> string

(** Scan a raw file image. Returns the kept payloads with the byte
    offset of each frame's payload (in order), [(record number,
    message)] warnings (1-based, counting frames as the reader meets
    them), and the offset just past the last structurally whole frame
    (where appends may safely resume). *)
val scan : string -> (int * string) list * (int * string) list * int

(** Whole-file read of at most the size [Unix.stat] reports; [""] when
    the file does not exist or reports size 0 (a character device). *)
val read_file : string -> string
