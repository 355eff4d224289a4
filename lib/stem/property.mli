(** Property variables with implicit invocation (Ch. 6).

    A property variable stores a derived design datum (bounding box,
    area, extracted netlist size, …). Update-constraints erase it when
    data it depends on change; the recalculation procedure is invoked
    implicitly the next time the value is read. This combination keeps
    the database internally consistent without eager recomputation. *)

open Design

(** [make env ~owner ~name ?recalc ()] — a fresh property variable.
    [recalc] computes the current value from the database; when absent
    the property is a plain stored value. *)
val make :
  env -> owner:string -> name:string -> ?recalc:(unit -> Dval.t option) -> unit -> prop

val var : prop -> var

(** Current value, recomputing (and storing with justification
    [#APPLICATION], which also triggers constraint checking of the
    freshly derived characteristic) if erased. Returns [None] when the
    recalculation is impossible or the derived value violates a
    constraint. *)
val read : env -> prop -> Dval.t option

(** Erase the stored value; cascades through update-constraints. *)
val invalidate : env -> prop -> unit

val set_recalc : prop -> (unit -> Dval.t option) -> unit
