(** Per-constraint-kind profiler.

    Constraint activity — activations, agenda pushes, satisfaction
    checks (and how many failed), violations, quarantines — is counted
    by the kernel on each constraint, and summed here over the
    network's constraints by [c_kind]. {!entries} ranks kinds by
    activation count, answering "which constraint family is doing all
    the work" without per-activation clock reads. A constraint removed
    from the network leaves the profile. *)

type entry = {
  e_kind : string;
  e_activations : int;
  e_scheduled : int;
  e_checks : int;
  e_check_failures : int;
  e_violations : int;
  e_quarantines : int;
}

type t

(** The profiler of [net], counting from now. *)
val of_net : 'a Constraint_kernel.Types.network -> t

(** Kinds with activity since the profiler was made, most activations
    first (ties by name). *)
val entries : t -> entry list
