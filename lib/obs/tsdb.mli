(** Embedded on-disk time-series store for long-horizon telemetry.

    Where {!Metrics} accumulates forever in memory and {!Window} keeps
    a short ring of recent slots, a Tsdb makes the scaling curve of a
    six-hour soak durable: each sample is one [(series, timestamp,
    value)] point, points batch into Gorilla-style compressed blocks
    (delta-of-delta timestamps at millisecond resolution, XOR-encoded
    float values), and sealed blocks append to CRC-framed segment
    files sharing {!Framing}'s crash discipline — a torn tail is
    truncated on reopen, a bit-flipped block is skipped, every fully
    framed block survives [kill -9].

    Size-based retention deletes whole segments oldest-first once the
    directory exceeds its budget, so a store left running bounds its
    own disk use.

    Writers and readers share one lock; sampling happens on window
    ticks (see {!Board.set_history}), never on the propagation hot
    path. *)

type t

(** [open_ dir] opens (creating the directory if needed) a store.
    Existing segments are scanned — torn tails truncated, corrupt
    blocks skipped with a warning — and appends resume in the last
    segment. [seg_bytes] rotates the active segment past that size
    (default 1 MiB); [retain_bytes] caps the whole directory, deleting
    the oldest segments (default 64 MiB); [points_per_block] seals a
    series block after that many points (default 240). *)
val open_ :
  ?seg_bytes:int -> ?retain_bytes:int -> ?points_per_block:int -> string -> t

val dir : t -> string

(** Warnings met while scanning existing segments at {!open_}. *)
val recovery_warnings : t -> string list

(** [quantize t] — [t] rounded to the millisecond, the quantization
    {!append} applies to timestamps. *)
val quantize : float -> float

(** Record one point. Timestamps are quantized to milliseconds. A
    point that fills its block seals it to the active segment; when
    that segment cannot be opened, cut to its scanned length or
    positioned there, the [Unix.Unix_error] is raised. *)
val append : t -> series:string -> t:float -> v:float -> unit

(** A series of one store, resolved once for repeated batches. *)
type handle

val handle : t -> string -> handle

(** [append_batch t ~t f] — [f put] records points with [put series v],
    all at time [t], under one acquisition of the store's lock; each
    [series] is a handle of [t]. [put] must not be called after [f]
    returns. *)
val append_batch : t -> t:float -> ((handle -> float -> unit) -> unit) -> unit

(** Seal every open block to disk and fsync the active segment — the
    graceful-shutdown (SIGTERM) path. Idempotent; appends may
    continue afterwards (they start fresh blocks). A failed write or
    fsync raises its [Unix.Unix_error]. *)
val flush : t -> unit

(** {!flush}, then close the segment file. Further appends raise. The
    file is closed and the store marked closed even when the flush
    raises; the error is then re-raised. *)
val close : t -> unit

(** {1 Queries} *)

(** Known series, sorted; [(name, points, first, last)]. *)
val series : t -> (string * int * float * float) list

(** Raw points of [series] with [from_ <= t <= to_], in time order
    (sealed blocks and the open block both answer). *)
val query : t -> series:string -> from_:float -> to_:float -> (float * float) list

type bucket = {
  bk_t : float;  (** bucket start time *)
  bk_min : float;
  bk_max : float;
  bk_avg : float;
  bk_count : int;
}

(** Downsample to fixed [step]-second buckets over [[from_, to_]];
    empty buckets are omitted. [step <= 0] raises [Invalid_argument]. *)
val query_range :
  t -> series:string -> from_:float -> to_:float -> step:float -> bucket list

type stats = {
  st_segments : int;
  st_blocks : int;  (** sealed blocks *)
  st_points : int;  (** total points, open blocks included *)
  st_disk_bytes : int;  (** bytes across segment files *)
  st_sealed_points : int;
  st_sealed_bytes : int;  (** frame bytes of sealed blocks *)
  st_ratio : float;  (** 16 bytes/point vs sealed block bytes; 0 if none *)
}

val stats : t -> stats

(** Segment file paths, oldest first. *)
val segments : t -> string list

(** {1 Block codec} (exposed for property tests)

    The payload layout: version byte, series name, point count, first
    timestamp (ms), last timestamp (ms), first value (IEEE-754 bits),
    then a bitstream of delta-of-delta timestamps (Gorilla bucket
    codes) and XOR-encoded values (leading/meaningful-bit windows). *)

(** Encode one block; timestamps quantize to milliseconds, values are
    preserved bit-exactly (NaN included). Raises [Invalid_argument] on
    an empty array or an oversized series name. *)
val encode_block : series:string -> (float * float) array -> string

(** Decode a block payload back to [(series, points)]. Raises
    [Failure] on a malformed payload. *)
val decode_block : string -> string * (float * float) array

(** {1 Rendering} *)

(** Unicode sparkline (▁▂▃▄▅▆▇█) of the values, scaled to their own
    min/max; [""] for the empty list, spaces for NaN gaps. *)
val sparkline : float list -> string
