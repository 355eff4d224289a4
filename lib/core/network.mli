(** Addition and deletion of constraints in live networks (§4.2.5).

    Editing a network does not change any variable value by itself, so a
    separate triggering mechanism (re-initialisation) adjusts values to
    the edited topology: argument variables assert their values through
    the edited constraint in precedence order — user-specified first,
    then constraint-dependent, then other independents. Removal erases
    (resets to NIL) every value that depended on the removed constraint,
    found by dependency analysis. *)

open Types

(** [add_constraint net c] attaches [c] to its argument variables and
    re-initialises it. On violation the visited variables are restored,
    the constraint stays attached (as in the paper, the caller gets NIL
    — here [Error] — as validity feedback). *)
val add_constraint : 'a network -> 'a cstr -> (unit, 'a violation) result

(** [add_argument net c v] extends an existing constraint with a new
    argument variable and re-initialises ([addConstraint:] on a
    variable, Fig. 4.13). *)
val add_argument : 'a network -> 'a cstr -> 'a var -> (unit, 'a violation) result

(** [remove_argument net c v] — the paper's [removeConstraint:]
    (Fig. 4.14): erase all propagated values that depend on the
    [(c, v)] pair, detach [v] from [c], then re-initialise [c] over its
    remaining arguments. *)
val remove_argument : 'a network -> 'a cstr -> 'a var -> (unit, 'a violation) result

(** [remove_constraint net c] removes [c] entirely: erases every value
    that transitively depends on it, detaches it from all arguments and
    unregisters it from the network. *)
val remove_constraint : 'a network -> 'a cstr -> unit

(** [reinitialize net c] — re-run the §4.2.5 precedence-ordered
    propagation of [c]'s arguments (exposed for tools that poke values
    while propagation is disabled and then re-enable it). *)
val reinitialize : 'a network -> 'a cstr -> (unit, 'a violation) result

(** {1 Integrity and quarantine} *)

(** Audit var/constraint cross-references and justification records;
    returns a description of every inconsistency ([[]] = consistent). *)
val check_integrity : 'a network -> string list

(** Constraints currently quarantined (auto-disabled after repeated
    closure failures, or manually via {!quarantine}), in creation
    order. The reason is available as [Cstr.quarantined]. *)
val quarantined : 'a network -> 'a cstr list

(** Manually quarantine a constraint (e.g. a tool interface known to be
    down): disable it and record [reason]. *)
val quarantine : 'a network -> 'a cstr -> reason:string -> unit

(** Lift a quarantine: clear the failure counter, re-enable, and
    re-initialise the constraint. [Error] means its arguments are still
    in conflict (as for {!add_constraint}). *)
val clear_quarantine : 'a network -> 'a cstr -> (unit, 'a violation) result
