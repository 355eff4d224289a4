(** Dependency analysis over propagated values (§4.2.4).

    Every propagated value carries a [(source constraint, dependency
    record)] justification; these functions walk the resulting dependency
    graph backwards ([antecedents]) and forwards ([consequences]). The
    forward walk is what makes cheap erasure possible when constraints
    are removed (§4.2.5). *)

open Types

(** [antecedents v] — every variable (and the constraints traversed)
    whose value the current value of [v] was inferred from, [v]
    included. Discovery order. *)
val antecedents : 'a var -> 'a var list * 'a cstr list

(** [direct_antecedents v] — only the immediate antecedents: the
    arguments of the justifying constraint that [v]'s dependency record
    names, without transitive closure and without [v] itself. Empty for
    unpropagated values. This is the per-assignment edge set a
    provenance store captures at emit time. *)
val direct_antecedents : 'a var -> 'a var list

(** [consequences v] — every variable whose current value depends,
    transitively, on the value of [v] ([v] included), plus the
    constraints traversed. *)
val consequences : 'a var -> 'a var list * 'a cstr list

(** [variable_consequences v] — consequences without [v] itself. *)
val variable_consequences : 'a var -> 'a var list

(** [dependents_of_constraint c] — variables whose current value was
    propagated by [c], plus all their consequences. These are the values
    that become unjustified when [c] is removed. *)
val dependents_of_constraint : 'a cstr -> 'a var list
