(** Per-constraint-kind profiler.

    The board's sink attributes constraint activity —
    activations, agenda pushes, satisfaction checks (and how many
    failed), violations, quarantines — to the constraint's [c_kind].
    {!entries} ranks kinds by activation count, answering "which
    constraint family is doing all the work" without per-activation
    clock reads (counting stays cheap enough to leave on). *)

open Constraint_kernel.Types

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

val create : unit -> t

(** Find-or-create the entry for a constraint kind. Exposed (together
    with {!entry_of_cstr}) so the board's fused sink can update entries
    from its own event match. *)
val entry : t -> string -> entry

(** Like {!entry} for a constraint's [c_kind], but cached by [c_id] so
    the hot path never hashes the kind string. *)
val entry_of_cstr : t -> 'a cstr -> entry

(** All kinds seen so far, most activations first (ties by name). *)
val entries : t -> entry list

val clear : t -> unit
