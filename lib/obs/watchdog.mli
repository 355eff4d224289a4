(** Declarative health rules over rolling windows, with firing/cleared
    alert transitions.

    A {!rule} inspects one completed {!Window.snapshot} and returns
    [Some detail] when unhealthy. Rules are evaluated at window
    boundaries (wire with {!watch}); only *transitions* are logged — an
    alert when a rule starts firing, another when it clears — so the
    log stays readable and bounded. {!record} takes verdicts computed
    elsewhere — an SLO's burn-rate verdict per evaluation — through
    the same transition log.

    There is no registry: a watchdog belongs to its board or
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

(** Any quarantine, any sink error — the always-sensible pair
    (violations are routine design-rule feedback in this domain). *)
val default_rules : unit -> rule list

type state_kind = [ `Firing | `Cleared ]

(** One transition; its watchdog's {!name} names it. *)
type alert = {
  al_rule : string;
  al_window : int;
  al_state : state_kind;
  al_detail : string;
}

type t

(** [create rules] — alert log bounded at [log_capacity] (default 64)
    transitions. [name] (default ["watchdog"]) is fixed here and names
    the alerts: a board's is its network's name, an SLO's is
    ["slo:<name>"]. *)
val create : ?name:string -> ?log_capacity:int -> rule list -> t

val name : t -> string

(** [record t ~index verdicts] — the one entry point: record each named
    rule's verdict ([Some detail] = firing) for evaluation [index] (a
    window index, or an SLO's evaluation count); returns (and logs) the
    transitions, stamped with [index]. The firing set becomes exactly
    the rules given [Some] here. *)
val record : t -> index:int -> (string * string option) list -> alert list

(** [record] of every rule's verdict on one completed window, at its
    index. *)
val evaluate : t -> Window.snapshot -> alert list

(** Subscribe to a window's rotation boundary. *)
val watch : t -> Window.t -> unit

(** Currently-firing rules as [(rule name, detail)]. *)
val firing : t -> (string * string) list

val ok : t -> bool

val rules : t -> string list

(** Logged transitions, oldest first. *)
val alerts : t -> alert list

(** Verdict sets recorded so far (windows evaluated, for a board's
    watchdog). *)
val evaluations : t -> int
