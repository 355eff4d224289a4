(** Length-prefixed, CRC-guarded record framing — the on-disk
    discipline shared by the write-ahead journal ([Serve.Journal]) and
    the time-series store ({!Tsdb}).

    A frame is [[u32 LE length][u32 LE crc32(payload)][payload]]. The
    reader is deliberately forgiving about exactly the two corruptions
    a crash can produce — a torn final frame (the process died
    mid-append) and a bit-flipped payload (detected by the CRC) — and
    strict about everything else. *)

(** Frame header size in bytes (length + CRC words). *)
val header_len : int

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

(** {1 Appending} *)

(** [open_at path valid_end] — open [path] for appending (creating it)
    with the write offset at [valid_end], the end {!scan} found. A file
    longer than that loses its torn tail first. A failed truncate or
    seek closes the descriptor and raises the [Unix_error]. *)
val open_at : string -> int -> Unix.file_descr

(** Write the whole string (raises [Unix_error] as [Unix.write] does;
    some bytes may have been written by then). *)
val write_all : Unix.file_descr -> string -> unit
