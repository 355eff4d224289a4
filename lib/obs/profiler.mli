(** Per-constraint-kind profiler.

    Constraint activity — activations, agenda pushes, satisfaction
    checks (and how many failed), violations, quarantines — is counted
    by the network's {!Constraint_kernel.Event_log} as each event is
    written, per constraint, and attributed here to the constraint's
    [c_kind]. {!entries} ranks kinds by activation count, answering
    "which constraint family is doing all the work" without
    per-activation clock reads (counting stays cheap enough to leave
    on). *)

type entry = {
  e_kind : string;
  mutable e_activations : int;
  mutable e_scheduled : int;
  mutable e_checks : int;
  mutable e_check_failures : int;
  mutable e_violations : int;
  mutable e_quarantines : int;
}

type t

(** The profiler reading [log]'s counts. *)
val of_log : 'a Constraint_kernel.Types.event_log -> t

(** All kinds seen so far, most activations first (ties by name). *)
val entries : t -> entry list

(** Forget every count so far. *)
val clear : t -> unit
