(** The write store: hosted, writable constraint networks behind the
    HTTP write API, with optional crash-safe durability, and the one
    registry of every network the telemetry server publishes.

    The durability contract: a set is acknowledged only after its
    episode committed {e and} its [wal_set] record reached the journal
    under the configured fsync policy — so after a [kill -9] the
    recovered state is bit-identical to the last acknowledged episode.
    Snapshots ({!snapshot_every} sets, and on {!drop}/{!close_all})
    fold the journal into a temp+rename'd file of the externally
    entered values only; recovery re-enters every set through
    [Engine.set], re-deriving all propagated values, and — with
    [~verify] — differential-checks the result via
    [Obs.Replay.diff_live] over the from-creation recovery trace.

    Every episode in this module runs under one global mutex
    ({!with_episode_lock}): the engine's ambient episode stack is
    process-global, so concurrent episodes from worker threads must
    serialize. Any non-HTTP thread that runs its own episodes while
    the write API is live (e.g. a demo workload loop) must wrap them
    in the same lock. *)

open Constraint_kernel

(** {1 Value tokens} — records carry values as [Dval.to_token]
    strings; this is their parser ([Dval.of_string]). *)

val value_of_token : string -> Dval.t option

(** ["user"]/["application"] (the only externally assertable
    justifications). *)
val just_of_string : string -> Dval.t Types.justification option

(** {1 Spec DSL}

    Line-oriented network descriptions:
    [var PATH [= VALUE]], [eq PATH PATH+], [sum RESULT PATH+],
    [max RESULT PATH+], [min RESULT PATH+], [add A B SUM], [le A B],
    [cap PATH VALUE], [floor PATH VALUE], [range PATH LO..HI];
    [#] comments. Errors are line-numbered. *)

exception Spec_error of int * string

(** [build_spec ~id text] — the network plus the initial [(path,
    value)] sets declared with [var PATH = VALUE] (not yet applied).
    Raises {!Spec_error}. *)
val build_spec :
  id:string -> string -> Dval.t Types.network * (string * Dval.t) list

(** {1 The global episode lock} *)

val with_episode_lock : (unit -> 'a) -> 'a

(** {1 Hosted entries} *)

type entry

val id : entry -> string

val tenant : entry -> string

val net : entry -> Dval.t Types.network

val board : entry -> Dval.t Obs.Board.t

(** The board's provenance store. *)
val prov : entry -> Dval.t Obs.Provenance.t

val journal : entry -> Journal.t option

(** Sets acknowledged through {!apply_set} on this entry. *)
val acked : entry -> int

val find : id:string -> entry option

(** Hosted entries, sorted by id. *)
val list : unit -> entry list

(** {1 The served-network registry}

    One process-global table lists every network the telemetry server
    publishes: each hosted entry (served from {!create}, {!adopt} or
    {!recover} until {!drop}) and each network exposed read-only with
    {!expose}. Names are unique across both. A board exposed read-only
    and also hosted is listed once, under its hosted id, while it is
    hosted. *)

(** A served network with its value type hidden. Its [/events] feed
    sink is attached only while the {!hub} has a subscriber. *)
type served =
  | Served : {
      name : string;
      net : 'a Types.network;
      board : 'a Obs.Board.t;
    }
      -> served

(** Every served network, sorted by name; an exposure shadowed by the
    hosting of its board is left out. *)
val served : unit -> served list

(** The [/events] hub every served network publishes into. *)
val hub : Stream.t

(** [expose ~board net] serves [net] read-only under [?name] (default
    the network's name); lines on [/events] render values with
    [?pp_value]. Re-exposing a name replaces the previous exposure.
    Raises [Invalid_argument] if the name is hosted. *)
val expose :
  ?name:string ->
  ?pp_value:('a -> string) ->
  board:'a Obs.Board.t ->
  'a Types.network ->
  unit

(** Withdraw a read-only exposure: feed sink detached, history
    sampling unwired. [false] if the name is not exposed read-only
    (unknown, or hosted — {!drop} withdraws those). *)
val unexpose : string -> bool

(** {1 Durability configuration} — process-global defaults applied to
    subsequently created networks. [dir = None] (the default) disables
    durability entirely. *)

val configure :
  ?dir:string ->
  ?fsync:Journal.fsync_policy ->
  ?snapshot_every:int ->
  unit ->
  unit

(** {1 Writes} *)

type set_error =
  | Unknown_var of string
  | Violation of { message : string; over_budget : bool }
      (** [over_budget]: the episode blew its step budget — admission
          counts it as a strike *)
  | Not_durable of string
      (** the journal failed an fsync ({!Journal.Failed}), now or
          earlier, or the snapshot this set triggered could not be
          written ({!Snapshot_failed}): the set is not acknowledged *)

val set_error_message : set_error -> string

(** [decode_set fields] — the one decoder of a set line's parsed
    fields ([Obs.Jsonl.parse_line]) into [(path, value, just)], shared
    by the HTTP batch, journal replay and snapshot load. A missing
    ["just"] reads as ["user"]. Record readers check ["t"] =
    ["wal_set"] before calling it. *)
val decode_set :
  (string * Obs.Jsonl.json) list ->
  (string * Dval.t * Dval.t Types.justification, string) result

(** [apply_set e ~path ~value ~just] — one write episode under the
    global lock, journaled after commit, acknowledged after the
    journal append. [?trace] threads a request trace context through
    the write: the tracer's kernel sink is attached to the net if it
    is not yet, the engine episode runs under the context as the
    ambient one (so the sink parents the episode span here) and the
    journal append/fsync record as child spans. *)
val apply_set :
  ?trace:Obs.Tracing.t * Obs.Tracing.ctx ->
  entry ->
  path:string ->
  value:Dval.t ->
  just:Dval.t Types.justification ->
  (unit, set_error) result

(** Detach the tracer's kernel sink from every hosted net {!apply_set}
    attached it to. *)
val untrace : Obs.Tracing.t -> unit

(** Every variable as [(path, rendered value option, justification)],
    sorted by path. *)
val state : entry -> (string * string option * string) list

(** Raised by {!snapshot} when the snapshot file cannot be written
    (the write, its fsync or the rename fails), with the error. The
    journal is not poisoned and not truncated: it still holds every
    set since the last snapshot. *)
exception Snapshot_failed of string

(** Force a snapshot now (then truncate the journal). No-op without a
    data dir. Call under {!with_episode_lock} only if you already hold
    it — this function takes no lock itself. Raises {!Snapshot_failed},
    or {!Journal.Failed} when the journal reset fails. *)
val snapshot : entry -> unit

(** {1 Lifecycle} *)

(** [create ~id ~spec ()] — build, apply initial sets, write the
    first snapshot (when durability is configured), host and serve.
    [Error] on bad id, duplicate id, spec parse errors (line-numbered),
    a violated initial set, or a journal or first snapshot that fails
    (["not durable: …"]). *)
val create :
  ?tenant:string ->
  ?step_budget:int ->
  id:string ->
  spec:string ->
  unit ->
  (entry, string) result

(** Host an externally-owned network (the shell session's): write API
    only, no durability; the board stays owned by the caller and is
    not detached on {!drop}. *)
val adopt :
  ?tenant:string ->
  id:string ->
  net:Dval.t Types.network ->
  board:Dval.t Obs.Board.t ->
  unit ->
  (entry, string) result

(** Final snapshot, journal flush+close, observability detached (for
    owned entries), withdrawn from the registry. On-disk files remain,
    so [drop] then {!recover} round-trips. [false] if the id is not
    hosted. Raises {!Snapshot_failed} if the final snapshot cannot be
    written, or {!Journal.Failed} if its journal reset fails its fsync;
    the entry is withdrawn and released anyway. *)
val drop : id:string -> bool

(** {!drop} every hosted network (graceful drain); returns the ids
    drained. A network whose journal fails is released, warned about on
    stderr and left out of the list. *)
val close_all : unit -> string list

(** {1 Recovery} *)

type recovery = {
  rc_entry : entry;
  rc_snapshot_sets : int;  (** wal_set records in the snapshot *)
  rc_journal_replayed : int;  (** intact journal records re-entered *)
  rc_warnings : (string * int * string) list;
      (** (source ["snapshot"]/["journal"], record or line number,
          message) — torn tails and CRC-corrupt records land here *)
  rc_verified : bool;  (** the [~verify] differential check ran *)
  rc_divergences : Obs.Replay.divergence list;
      (** empty = recovered state exactly re-derivable from its own
          episode trace *)
}

(** [recover ~dir ~id ()] — snapshot + journal tail, tolerating a torn
    final record (warning, never a failure). [~verify] runs the
    [Obs.Replay.diff_live] differential check over the from-creation
    recovery trace. The recovered network is hosted and served again,
    and its journal checkpointed into a fresh snapshot; a checkpoint
    that fails answers [Error "not durable: …"]. *)
val recover :
  ?verify:bool -> dir:string -> id:string -> unit -> (recovery, string) result

(** Recover every [*.snap] in a directory (server startup), removing
    stray [*.tmp] files from saves that died mid-write. Returns the
    recoveries plus a list of notes/errors. *)
val recover_dir : ?verify:bool -> string -> recovery list * string list
