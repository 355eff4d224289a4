(** Metrics registry: named counters, gauges and fixed-bucket
    histograms, plus the kernel instruments a board aggregates a
    constraint network's event log into.

    This registry is the only home of latency/histogram aggregates —
    [Engine.stats] stays a plain snapshot of event counters. A board
    ({!Board.attach}) populates its registry's {!kernel_set}: episode latency (overall and per phase, microseconds),
    inferences per episode, agenda-depth high-water marks, event and
    outcome counts. *)

open Constraint_kernel.Types

type t

type counter

type gauge

type histogram

type item = Counter of counter | Gauge of gauge | Histogram of histogram

val create : unit -> t

(** Find-or-create. Raise [Invalid_argument] if the name is already
    taken by an instrument of another kind. *)
val counter : t -> string -> counter

val incr : ?by:int -> counter -> unit

(** [tick c] = [incr c], monomorphic for the per-event hot path. *)
val tick : counter -> unit

(** [set_count c n] — [c] reads [n]: for a counter that mirrors a count
    kept elsewhere (a board's kernel-event counters mirror its event
    log's), so setting it twice is harmless. *)
val set_count : counter -> int -> unit

val count : counter -> int

val gauge : t -> string -> gauge

val set_gauge : gauge -> float -> unit

(** [histogram ?bounds t name] — fixed buckets with the given inclusive
    upper bounds (default {!default_time_bounds}, a 1-2-5 log scale
    meant for microseconds). *)
val histogram : ?bounds:float array -> t -> string -> histogram

(** [histogram_standalone ?bounds name] — a histogram that belongs to no
    registry, for embedding in other structures (e.g. one per rolling
    window slot) without growing a registry forever. *)
val histogram_standalone : ?bounds:float array -> string -> histogram

val observe : histogram -> float -> unit

val mean : histogram -> float

(** Number of observations recorded. *)
val samples : histogram -> int

val gauge_last : gauge -> float

val gauge_max : gauge -> float

(** Approximate quantile by linear interpolation inside the matching
    bucket, clamped to the observed min/max. *)
val quantile : histogram -> float -> float

val find : t -> string -> item option

(** Instruments in creation order. *)
val items : t -> item list

(** Number of registered instruments. *)
val item_count : t -> int

(** The name an instrument was registered under. *)
val item_name : item -> string

(** {1 Prometheus text exposition (format version 0.0.4)}

    Dotted instrument names sanitise to underscored families under a
    namespace prefix (default ["stem"]): ["episode.latency_us"] becomes
    ["stem_episode_latency_us"]. Counters gain the conventional
    ["_total"] suffix (unless already present), histograms render as
    cumulative ["_bucket"] series (with an ["le"] label per bound plus
    ["+Inf"]) and ["_sum"]/["_count"]. *)

(** Escape a label value: backslash, double-quote and newline become
    their backslash escapes. *)
val prometheus_escape : string -> string

(** Sanitise one metric name ([a-zA-Z0-9_:] kept, everything else
    [_]) under [namespace] (default ["stem"]; [""] for none). *)
val prometheus_name : ?namespace:string -> string -> string

(** Family name (counters suffixed ["_total"]) and exposition type
    (["counter"], ["gauge"] or ["histogram"]). *)
val prometheus_family : ?namespace:string -> item -> string * string

(** Series lines only (no [# HELP]/[# TYPE]), with [labels] on every
    sample — the building block multi-network expositions use to keep
    each family's series contiguous across registries. *)
val render_prometheus_series :
  ?namespace:string -> ?labels:(string * string) list -> Buffer.t -> item -> unit

(** [add_family_header buf ~fam ~ty ~help] — the [# HELP] (help text
    escaped) and [# TYPE] lines that open family [fam]. *)
val add_family_header :
  Buffer.t -> fam:string -> ty:string -> help:string -> unit

(** [add_series buf name labels value] — one sample line, label values
    escaped with {!prometheus_escape}. *)
val add_series : Buffer.t -> string -> (string * string) list -> string -> unit

(** The kernel instruments, pre-created and exposed so a board can
    bring them up to its event log's counts and observe each finished
    episode. *)
type kernel_set = {
  ks_assign : counter;
  ks_reset : counter;
  ks_activate : counter;
  ks_schedule : counter;
  ks_check : counter;
  ks_violation : counter;
  ks_restore : counter;
  ks_quarantine : counter;
  ks_ep_total : counter;
  ks_committed : counter;
  ks_rolled_back : counter;
  ks_probe_ok : counter;
  ks_probe_rejected : counter;
  ks_latency : histogram;
  ks_propagate : histogram;
  ks_drain : histogram;
  ks_check_time : histogram;
  ks_restore_time : histogram;
  ks_steps : histogram;
  ks_agenda : histogram;
  ks_sched_checking : counter;  (** agenda pushes, checking stratum *)
  ks_sched_functional : counter;  (** agenda pushes, functional stratum *)
  ks_sched_implicit : counter;  (** agenda pushes, implicit stratum *)
  ks_sched_other : counter;  (** agenda pushes, custom priorities *)
  ks_wakeups : gauge;  (** [st_wakeups], mirrored at episode end *)
  ks_suppressed : gauge;  (** [st_suppressed], mirrored at episode end *)
}

(** Find-or-create the whole set in [t] (idempotent). *)
val kernel_set : t -> kernel_set

(** Record one completed episode: outcome counter, every span
    histogram, and the network's cumulative wakeup counts as the
    wakeup gauges. *)
val observe_episode :
  kernel_set -> episode_span -> wakeups:int -> suppressed:int -> unit

(** [observe_latency h sp] — observe [sp]'s latency in microseconds. *)
val observe_latency : histogram -> episode_span -> unit
