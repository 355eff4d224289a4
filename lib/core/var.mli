(** Variable objects (§4.1.1): active handles for design data so that
    constraints may be specified on variables independent of their values.

    Creation registers the variable with its network. Assignment through
    the propagation machinery lives in {!Engine}; this module provides
    structure, accessors and raw (non-propagating) stores. *)

open Types

(** [create net ~owner ~name ~equal ~pp ()] makes a fresh variable and
    enters it in the network's path index, where it shadows any earlier
    variable with the same path.

    @param overwrite custom overwrite rule (default: user- and
      tentative-justified values reject differing propagated values;
      everything else accepts).
    @param value initial value (justification [Default]). *)
val create :
  'a network ->
  owner:string ->
  name:string ->
  equal:('a -> 'a -> bool) ->
  pp:(Format.formatter -> 'a -> unit) ->
  ?overwrite:('a var -> proposed:'a -> overwrite_decision) ->
  ?value:'a ->
  unit ->
  'a var

val id : 'a var -> int

val name : 'a var -> string

val owner : 'a var -> string

(** ["owner.name"] — the unique identification path of §4.1.1,
    rendered once at creation. *)
val path : 'a var -> string

val value : 'a var -> 'a option

(** [value_exn v] raises [Invalid_argument] when unset. *)
val value_exn : 'a var -> 'a

val justification : 'a var -> 'a justification

val constraints : 'a var -> 'a cstr list

(** Value was produced by constraint propagation. *)
val is_dependent : 'a var -> bool

val is_user_set : 'a var -> bool

val equal : 'a var -> 'a var -> bool

(** [poke v x ~just] stores without propagation or checking — the code
    path taken when the network's CPSwitch is off (§5.3), and by loaders. *)
val poke : 'a var -> 'a -> just:'a justification -> unit

(** [clear v] erases the value (justification [Default]) without
    propagation. *)
val clear : 'a var -> unit

(** Replace the after-change hook ([v_on_change]). The engine traps
    exceptions from the hook: during an episode they become violations;
    during a restore they are logged and skipped so the rollback always
    completes. *)
val set_on_change : 'a var -> ('a var -> unit) -> unit

(** Replace the implicit-constraint hook ([v_implicit], §5.1.1). *)
val set_implicit : 'a var -> ('a var -> 'a cstr list) -> unit

(** Replace the overwrite rule ([v_overwrite]). *)
val set_overwrite :
  'a var -> ('a var -> proposed:'a -> overwrite_decision) -> unit

(** Attach / detach a constraint to the variable's constraint list only
    (no re-propagation — that is {!Network}'s job). Attachment is
    idempotent. *)
val attach : 'a var -> 'a cstr -> unit

val detach : 'a var -> 'a cstr -> unit

(** The constraints whose activation spec currently watches this variable
    — the subset of {!constraints} whose inference runs when the variable
    changes. Maintained by [Cstr.rewatch] and the engine's 2-watch
    rotation; every attached constraint is still checked in the final
    sweep regardless. *)
val watchers : 'a var -> 'a cstr list

(** All constraints to activate on a change: stored ones plus the implicit
    constraints contributed by the [v_implicit] hook (§5.1.1). *)
val all_constraints : 'a var -> 'a cstr list

val pp : Format.formatter -> 'a var -> unit

(** Variable with its value and justification, the constraint-editor view. *)
val pp_full : Format.formatter -> 'a var -> unit
