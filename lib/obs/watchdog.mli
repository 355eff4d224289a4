(** Declarative health rules over rolling windows, with firing/cleared
    alert transitions.

    A {!rule} inspects one completed {!Window.snapshot} and returns
    [Some detail] when unhealthy. Rules are evaluated at window
    boundaries (wire with {!watch}); only *transitions* are logged — an
    alert when a rule starts firing, another when it clears — so the
    log stays readable and bounded.

    There is no registry: a watchdog belongs to its monitored board or
    SLO, and a health roll-up is computed over the watchdogs its reader
    holds (the telemetry server's [/healthz] over the boards it serves
    and its own SLOs). *)

type rule

(** Custom rule: [Some detail] = unhealthy for this window. *)
val rule : name:string -> (Window.snapshot -> string option) -> rule

(** Stock rules. [latency_p99_above t] (µs) ignores empty windows;
    [violation_rate_above r] compares violations per episode. *)
val latency_p99_above : float -> rule

val violation_rate_above : float -> rule

val quarantine_any : unit -> rule

val sink_errors_any : unit -> rule

(** [quarantine_any] + [sink_errors_any] — the always-sensible pair
    (violations are routine design-rule feedback in this domain). *)
val default_rules : unit -> rule list

type state_kind = [ `Firing | `Cleared ]

type alert = {
  al_net : string;
  al_rule : string;
  al_window : int;
  al_state : state_kind;
  al_detail : string;
}

type t

(** [create rules] — alert log bounded at [log_capacity] (default 64)
    transitions. [name] (default ["watchdog"]) is fixed here and names
    the alerts: a monitored board's is its network's name, an SLO's is
    ["slo:<name>"]. *)
val create : ?name:string -> ?log_capacity:int -> rule list -> t

val name : t -> string

(** Evaluate all rules against one completed window; returns (and logs)
    the transitions it produced. *)
val evaluate : t -> Window.snapshot -> alert list

(** Subscribe to a window's rotation boundary. *)
val watch : t -> Window.t -> unit

(** Currently-firing rules as [(rule name, detail)]. *)
val firing : t -> (string * string) list

val ok : t -> bool

val rules : t -> string list

(** Logged transitions, oldest first. *)
val alerts : t -> alert list

(** Windows evaluated so far. *)
val evaluations : t -> int

(** One alert transition as a schema-v2 JSONL record ([{"v":2,
    "t":"alert","net":…,"rule":…,"window":…,"state":"firing"|"cleared",
    "detail":…}]) — parseable by [Jsonl.parse_line] and ignored as
    [R_other] by replay, so health logs interleave with traces. *)
val alert_json : alert -> string

val pp_alert : Format.formatter -> alert -> unit

(** One watchdog's current status ("OK (...)" or the firing rules). *)
val pp_status : Format.formatter -> t -> unit
