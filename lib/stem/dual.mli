(** Implicit constraint variables: the links between dual class/instance
    variables that make constraint propagation hierarchical (§5.1).

    Properties propagate from class to instance (possibly adjusted for
    placement or loading), never from instance to class; both sides are
    checked for consistency. Parameters are checked for range
    membership in both directions and receive class defaults. The
    implicit constraints schedule on the lowest-priority agenda so that
    one level of the hierarchy settles before propagation crosses levels
    (§5.1.2). *)

open Design

(** [link_property env ~kind ~class_var ~inst_var ~adjust ~check]:

    - when the class variable changes, the instance variable is updated
      to [adjust class_value] — but only if it is unset or was last set
      by this same implicit constraint (a designer-entered instance
      value is never overwritten, Fig. 7.7);
    - when the instance variable changes, nothing propagates;
    - satisfaction is [check class_value inst_value] (vacuously true
      while either is unset).

    The constraint is attached and re-initialised (so a class value
    already present immediately defaults the instance). *)
val link_property :
  env ->
  kind:string ->
  ?label:string ->
  class_var:var ->
  inst_var:var ->
  adjust:(Dval.t -> Dval.t option) ->
  check:(Dval.t -> Dval.t -> bool) ->
  unit ->
  cstr

(** [link_parameter env ~range_var ~value_var ?default ()]: checks that
    the instance's parameter value lies within the class's legal range
    (both when the value and when the range changes); no propagation
    besides the one-time [default] (installed with justification
    [#APPLICATION] if the value is unset). *)
val link_parameter :
  env -> range_var:var -> value_var:var -> ?default:Dval.t -> unit -> cstr

(** [bridge env ~kind ~from_ ~to_env ~to_ ?adjust ()] — a dual link
    across {e environment} boundaries: whenever [from_] (in [env]'s
    network) changes, [adjust from_value] (default: identity) is pushed
    into [to_] in [to_env]'s network via an external
    [Engine.set ~just:Application] — a child propagation episode whose
    trace records the pushing episode as its parent and [from_] as its
    cause, stitching hierarchy-wide propagation into one trace tree.
    Remote values entered by the designer ([User]) or propagated locally
    are never overwritten; consistency is still checked ([satisfied] is
    [adjust from = to]) so a conflicting override rolls the local change
    back. The remote variable is not an argument of the constraint (it
    belongs to another network); and because the remote episode commits
    on its own, cross-network propagation is causal, not transactional
    (see DESIGN.md §10). *)
val bridge :
  env ->
  kind:string ->
  ?label:string ->
  from_:var ->
  to_env:env ->
  to_:var ->
  ?adjust:(Dval.t -> Dval.t option) ->
  unit ->
  cstr
