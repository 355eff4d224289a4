(** Constraint-network compilation (§9.3, future-work item 3).

    The thesis suggests compiling constraint networks — "ranging from
    simple topological sorts of the constraint networks to complete
    proceduralization of the constraints" — to trade the flexibility of
    declarative propagation for run-time efficiency once a network's
    topology has stabilised.

    This module implements both ends of that range for the acyclic
    functional (unidirectional) part of a network: [plan] topologically
    sorts the functional constraints by data dependency, and [replay]
    re-executes their recomputation procedures directly in that order —
    no agenda, no visited bookkeeping, no checking. A compiled plan is
    only valid while the network's topology is unchanged; it is the
    caller's responsibility to re-plan after edits (STEM's change
    broadcast is the natural trigger). *)

open Types

type 'a plan

exception Cyclic of string
(** Raised when the functional constraints contain a dependency cycle. *)

(** [plan net] — topologically sort every enabled functional constraint
    of the network that provides a direct recomputation procedure
    (those built by {!Clib.functional}). Constraints whose result feeds
    another's input run first. *)
val plan : 'a network -> 'a plan

(** Number of compiled constraints. *)
val size : 'a plan -> int

(** [replay p] — run every recomputation once, in dependency order.
    Results are installed with justification [#APPLICATION]; no
    constraint checking happens (use {!Engine} propagation when
    checking matters — this is the compiled fast path). *)
val replay : 'a plan -> unit

(** The compiled order, for inspection. *)
val order : 'a plan -> 'a cstr list
