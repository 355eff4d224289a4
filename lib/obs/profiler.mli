(** Per-constraint-kind profiler.

    Attaching {!sink} to a network attributes constraint activity —
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

(** The aggregating trace sink (default name ["profiler"]). *)
val sink : ?name:string -> t -> 'a sink

(** Find-or-create the entry for a constraint kind. Exposed (together
    with {!entry_of_cstr}) so a fused sink can update entries from its
    own event match — see [Board]. *)
val entry : t -> string -> entry

(** Like {!entry} for a constraint's [c_kind], but cached by [c_id] so
    the hot path never hashes the kind string. *)
val entry_of_cstr : t -> 'a cstr -> entry

(** All kinds seen so far, most activations first (ties by name). *)
val entries : t -> entry list

val clear : t -> unit
