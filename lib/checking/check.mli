(** Incremental vs. batch design checking (Ch. 7).

    Incremental checking is what the constraint network does by itself:
    every assignment and connection is checked as it happens, touching
    only the affected part of the network. This module adds the
    traditional batch checker — a full sweep over every constraint — used
    as the baseline it replaces, plus reporting helpers. *)

open Stem.Design

(** Full batch sweep: evaluate [is_satisfied] on every enabled
    constraint. Returns [(constraints examined, violations found)]. *)
val batch_check : env -> int * cstr list

(** Constraints (transitively) attached to the variables of one cell
    class: its signals, parameters, bounding box and delays. *)
val cell_constraints : cell_class -> cstr list

(** Unsatisfied constraints among [cell_constraints]. *)
val check_cell : env -> cell_class -> cstr list

(** Human-readable violation report for a cell. *)
val report : env -> cell_class -> string
