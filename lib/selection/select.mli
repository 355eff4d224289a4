(** Module validation and selection (Ch. 8).

    Module selection finds the valid realisations of a generic cell
    instance in the context of a larger design: a generate-and-test
    search over the class hierarchy rooted at the generic cell, with two
    efficiency techniques:

    - {e selective testing}: only the property kinds the user names are
      tested, in the order given (most critical first, Fig. 8.2);
    - {e tree pruning}: generic classes carry the "ideal" (best-case)
      characteristics of their descendants; a generic class failing the
      tests prunes its whole subtree (Fig. 8.3/8.4).

    Validity is judged with constraint propagation — the tentative
    [can_be_set_to] test — so it automatically accounts for every
    constraint in the context where the instance is used. *)

open Stem.Design

type priority = BBox | Signals | Delays

(** Search instrumentation, for the pruning/selective-testing ablations
    (Table/Fig. 8.4 experiment). *)
type stats = {
  mutable candidates_tested : int; (* classes put through the tests *)
  mutable generics_tested : int;
  mutable subtrees_pruned : int;
  mutable bbox_tests : int;
  mutable signal_tests : int;
  mutable delay_tests : int;
}

val fresh_stats : unit -> stats

val pp_stats : Format.formatter -> stats -> unit

(** [is_valid_realization env cand ~for_ ~priorities] — can [cand]
    realise the instance [for_]? Each named property kind is tested in
    order with early exit (Fig. 8.2):
    - [BBox]: the candidate's (placed) bounding box fits the instance's
      bounding box, or — when the instance box is unset — the instance
      box can be set to the candidate's placed box;
    - [Signals]: per connected signal: data/electrical compatibility and
      tentative width assignment on the net;
    - [Delays]: for every instance delay variable of [for_], the
      candidate's corresponding (R·C adjusted) delay can be tentatively
      assigned. Candidates' composite delays are computed on demand. *)
val is_valid_realization :
  env -> cell_class -> for_:instance -> priorities:priority list -> ?stats:stats ->
  unit -> bool

(** [select env inst ~priorities ?prune ()] — all valid concrete
    realisations of generic-cell instance [inst], depth-first over the
    class hierarchy. [prune] (default [true]) enables the generic-class
    pre-tests; with [false] every concrete descendant is tested
    (the ablation baseline). No automatic replacement is performed
    (§8.1). *)
val select :
  env -> instance -> priorities:priority list -> ?prune:bool -> ?stats:stats ->
  unit -> cell_class list

(** Parse an instance-delay key ["a->s"] back into [(from, to)]. *)
val split_delay_key : string -> (string * string) option

(** [realize env inst cand] — replace the instance's class by [cand]:
    reconnects every net to the candidate's signal variables, rebuilds
    the dual variables, and reports the resulting constraint validity. *)
val realize : env -> instance -> cell_class -> (unit, violation) result
