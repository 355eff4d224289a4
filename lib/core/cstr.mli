(** Constraint objects (§4.1.2).

    A constraint's semantics are collectively defined by its inference
    procedure ([immediateInferenceByChanging:]) and its satisfaction test
    ([isSatisfied]); new kinds of constraints are made by supplying
    different closures to [make] (the OCaml rendering of subclassing).
    Ready-made kinds live in {!Clib}.

    {1 Activation specs}

    How a constraint is woken and scheduled is declared up front in an
    {!Types.activation} record rather than scattered over optional
    closures:

    {[
      Cstr.make net ~kind:"sum"
        ~activation:
          (Cstr.activation ~wake:Two_watch
             ~schedule:(On_agenda Types.functional_priority) ())
        ~propagate ~satisfied args
    ]}

    The [wake] component says which argument changes run the inference
    procedure:
    - [Wake_all] — every change (the paper's discipline; the default).
    - [Watch vs] — only changes of the listed arguments. Sound whenever
      changes of the other arguments can never enable new inference
      (e.g. a functional constraint need not wake on its own result).
    - [Two_watch] — the rotating discipline of SAT watched literals:
      sound for constraints that cannot infer anything while two or more
      arguments are unset. The engine watches two unset arguments,
      rotates a watch instead of waking when one gets a value, and falls
      back to waking on every argument once fewer than two remain unset.
      Rotations are episode-scoped (undone on rollback).
    - [Custom f] — a dynamic predicate, consulted on every touch.

    Watching narrows {e inference only}: every attached constraint of a
    changed variable is still marked for the final [is_satisfied] sweep,
    so a narrow spec can never hide a violation. *)

open Types

(** Build an activation spec. Defaults: [Wake_all], [Immediate],
    [keyed_by_var:false], generic dependency interpretation. *)
val activation :
  ?wake:'a wake ->
  ?schedule:schedule ->
  ?keyed_by_var:bool ->
  ?in_dependency:('a cstr -> 'a dependency -> 'a var -> bool) ->
  unit ->
  'a activation

(** [make net ~kind ~propagate ~satisfied args] builds and registers a
    constraint. It does {e not} attach the constraint to its argument
    variables — use {!Network.add_constraint}, which also installs the
    watch lists and performs the re-initialising propagation of §4.2.5.

    @param activation the wake/schedule spec; default [activation ()]
      (immediate, wake on every argument).
    @param fires_on_reset default [false].
    @param recompute direct recomputation procedure for the network
      compiler (set by {!Clib.functional}); default [None].
    @param strength constraint strength for the strength-aware overwrite
      rule (§4.2.4 extension); default [0]. *)
val make :
  'a network ->
  kind:string ->
  ?label:string ->
  ?activation:'a activation ->
  ?fires_on_reset:bool ->
  ?recompute:(unit -> unit) ->
  ?strength:int ->
  propagate:('a ctx -> 'a cstr -> 'a var option -> (unit, 'a violation) result) ->
  satisfied:('a cstr -> bool) ->
  'a var list ->
  'a cstr

(** {1 Watch lists} *)

(** [rewatch c] recomputes [c]'s watch set from its activation spec and
    current arguments/values, and reindexes the per-variable watcher
    lists. Called by {!Network} on attach and on every editor rewire
    ([add_argument]/[remove_argument]); the engine calls it when a
    quarantine lifts and after structural reloads. *)
val rewatch : 'a cstr -> unit

(** Remove [c] from every watcher list (detachment teardown). *)
val unwatch : 'a cstr -> unit

(** The variables whose change currently wakes [c]. *)
val watching : 'a cstr -> 'a var list

val strength : 'a cstr -> int

val id : 'a cstr -> int

val kind : 'a cstr -> string

val label : 'a cstr -> string

val args : 'a cstr -> 'a var list

val is_enabled : 'a cstr -> bool

(** Enable/disable one constraint (§9.3 extension). Disabled constraints
    neither propagate nor check. *)
val set_enabled : 'a cstr -> bool -> unit

val is_satisfied : 'a cstr -> bool

(** [is_satisfied] with an exception trap: a throwing satisfaction test
    reads as unsatisfied. For sweeps (batch checking, the editor) that
    must survive one broken constraint. *)
val is_satisfied_safe : 'a cstr -> bool

(** {1 Fault state}

    Maintained by the engine's exception traps; see
    {!Network.quarantined} for the listing/clearing API. *)

(** Trapped exceptions since the counter was last cleared. *)
val failures : 'a cstr -> int

(** The recorded quarantine reason, when the constraint has been
    auto-disabled for repeated failures. *)
val quarantined : 'a cstr -> string option

val is_quarantined : 'a cstr -> bool

val equal : 'a cstr -> 'a cstr -> bool

val pp : Format.formatter -> 'a cstr -> unit
