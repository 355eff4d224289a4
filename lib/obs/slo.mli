(** Service-level objectives evaluated as multi-window burn rates over
    {!Tsdb} data, firing through a {!Watchdog}.

    An objective states a target fraction of good outcomes (e.g.
    99% of writes accepted, or 99% of windows with p99 under a bound).
    The {e error budget} is [1 - target]; the {e burn rate} over a
    lookback window is the observed bad fraction divided by that
    budget — burn 1.0 spends the budget exactly at the objective
    horizon, burn 14 exhausts a 30-day budget in ~2 days. An
    objective fires only when {e every} configured window exceeds its
    threshold (the classic fast-burn/slow-burn pairing: a short window
    for responsiveness, a long one so a transient spike cannot page).

    Each {!t} owns a watchdog named ["slo:<name>"]; the telemetry
    server that created the objective lists it on its own [/alerts] and
    lets it flip its own [/healthz] to 503. *)

type kind =
  | Error_ratio of { total : string; errors : string }
      (** two counter series: bad fraction = Δerrors / Δtotal over the
          window (0 when the total did not move, no data with fewer
          than two samples of the total) *)
  | Latency_above of { series : string; limit : float }
      (** a sampled quantile series: bad fraction = fraction of
          samples above [limit] *)

type objective = {
  ob_name : string;  (** the watchdog is named ["slo:<ob_name>"] *)
  ob_kind : kind;
  ob_target : float;  (** good-fraction target, e.g. [0.99] *)
  ob_windows : (float * float) list;
      (** [(lookback seconds, burn threshold)] — all must exceed *)
}

(** Availability objective over request/error counters. Defaults:
    target 0.99, windows [(60, 2.0); (300, 1.0)]. *)
val availability :
  ?target:float ->
  ?windows:(float * float) list ->
  name:string ->
  total:string ->
  errors:string ->
  unit ->
  objective

(** Latency objective over a sampled quantile series (same defaults). *)
val latency :
  ?target:float ->
  ?windows:(float * float) list ->
  name:string ->
  series:string ->
  limit:float ->
  unit ->
  objective

type t

(** Create the objective and its backing watchdog, named
    ["slo:<ob_name>"]. *)
val create : Tsdb.t -> objective -> t

val objective : t -> objective

(** The backing watchdog: its firing state and alert transitions. *)
val watchdog : t -> Watchdog.t

(** [(lookback, threshold, burn)] per configured window ending at [now]
    (quantized to the millisecond, as {!Tsdb.append} stores
    timestamps). [burn] is [None] when the window holds no data: fewer
    than two samples of the total counter, or no latency sample. A
    window without data never counts as exceeded. *)
val burn_rates : t -> now:float -> (float * float * float option) list

(** Evaluate at [now] and push the firing/cleared transition through
    the {!watchdog} (visible in its {!Watchdog.firing} and alert log). *)
val evaluate : t -> now:float -> unit

val firing : t -> bool
