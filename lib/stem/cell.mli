(** Cell classes and cell instances (Ch. 3, §3.3.2).

    A cell class encapsulates all essential information about a cell;
    instances represent individual placements and carry only
    placement-specific data. Creating an instance instantiates the dual
    variables and the implicit constraints that link them to the class
    variables (§5.1), plus the update-constraint that erases the parent's
    bounding box when the placement changes (Fig. 7.8). *)

open Design

(** [create env ~name ()] — a fresh cell class.

    With [~super], the new class is a specialised version of [super]
    (§3.3.2): it inherits copies of the superclass's signals (same
    names, directions, pin geometry; type/width values copied with
    justification [#APPLICATION] so they can be refined), parameters and
    delay declarations (fresh, unvalued delay variables).

    [~generic:true] marks a generic cell (Ch. 8): a cell with no physical
    realisation used to defer implementation decisions. *)
val create :
  env -> name:string -> ?super:cell_class -> ?generic:bool -> ?doc:string -> unit ->
  cell_class

(** {1 Interface} *)

(** Declare an io-signal. [data]/[elec]/[width] install initial class
    typing values (justification [#APPLICATION], refinable); [res]/[cap]
    are the RC characteristics of the delay model (Fig. 7.10); [pins]
    are io-pin positions in the class frame. *)
val add_signal :
  env -> cell_class -> name:string -> dir:direction ->
  ?data:Signal_types.Type_tree.node -> ?elec:Signal_types.Type_tree.node ->
  ?width:int -> ?res:float -> ?cap:float -> ?pins:Geometry.Point.t list -> unit ->
  signal_spec

(** Declare a parameter with its legal range ([Irange]/[Frange]) and an
    optional default propagated to new instances. *)
val add_param :
  env -> cell_class -> name:string -> range:Dval.t -> ?default:Dval.t -> unit ->
  param_spec

(** {1 Properties} *)

(** The class bounding-box variable (a property variable: erased on
    structure changes, recomputed from the internal structure on read). *)
val class_bbox_var : cell_class -> var

(** Designer-specified class bounding box (leaf cells). *)
val set_class_bbox : env -> cell_class -> Geometry.Rect.t -> (unit, violation) result

(** Current class bounding box, recomputing from the structure if
    erased: the union of the placed bounding boxes of all subcells
    ([calculateBoundingBox], §7.2). *)
val bounding_box : env -> cell_class -> Geometry.Rect.t option

(** Convenience: area of the class bounding box. *)
val area : env -> cell_class -> int option

(** Add a named class property variable with an optional recalculation
    procedure. *)
val add_property :
  env -> cell_class -> name:string -> ?recalc:(unit -> Dval.t option) -> unit -> prop

val find_property : cell_class -> string -> prop option

(** {1 Delays} *)

(** [declare_delay env cls ~from_ ~to_ ()] — declare a (critical) class
    delay variable between two io-signals (§7.3). [estimate] installs a
    designer estimate (justification [#USER]) to be replaced later by
    calculated values; [spec] attaches a ["spec ns or less"]
    less-equal predicate. *)
val declare_delay :
  env -> cell_class -> from_:string -> to_:string -> ?estimate:float -> ?spec:float ->
  unit -> class_delay

(** Remove a designer delay estimate so calculated delays can flow in. *)
val clear_delay_estimate : env -> class_delay -> unit

(** {1 Structure} *)

(** [instantiate env ~parent ~of_ ~name ()] — place an instance of
    [of_] inside [parent]: creates the dual variables, the implicit
    bbox/parameter constraints, and the bbox update-constraint; then
    broadcasts the structural change. *)
val instantiate :
  env -> parent:cell_class -> of_:cell_class -> name:string ->
  ?transform:Geometry.Transform.t -> unit -> instance

(** Create a net inside a composite cell (see {!Enet} for connections). *)
val add_net : env -> cell_class -> name:string -> enet

(** Remove a subcell: disconnects its pins from every net, removes its
    implicit and update constraints, erases dependent values. *)
val remove_subcell : env -> instance -> unit

(** [rebind env inst ~to_] — replace the class an instance realises
    (module selection, §8.1): detaches every net connection and implicit
    constraint of the old class, swaps, rebuilds the dual variables and
    reconnects. The candidate must declare every signal of the old
    class. Returns the constraint validity of the reconnections. *)
val rebind : env -> instance -> to_:cell_class -> (unit, violation) result

(** {1 Instances} *)

(** Move/reorient an instance; resets the instance bounding box to the
    new placement default and erases the parent's bounding box. *)
val set_instance_transform : env -> instance -> Geometry.Transform.t -> unit

(** Designer-assigned instance bounding box (stretching target, §7.2);
    checked against the class bounding box by the implicit constraint. *)
val set_instance_bbox : env -> instance -> Geometry.Rect.t -> (unit, violation) result

(** Instance bounding box: the instance variable if set, else the placed
    class bounding box. *)
val instance_bbox : env -> instance -> Geometry.Rect.t option

(** Assign a parameter value on an instance (justification [#USER]). *)
val set_param : env -> instance -> string -> Dval.t -> (unit, violation) result

val param_value : instance -> string -> Dval.t option

(** Give an instance its own bit-width variable for [signal] (compiled
    cells whose widths differ per instance, §7.1), optionally
    initialised. *)
val own_width : env -> instance -> signal:string -> ?width:int -> unit -> var

(** {1 Queries} *)

val signals : cell_class -> signal_spec list

val subcells : cell_class -> instance list

val nets : cell_class -> enet list

val instances : cell_class -> instance list

val subclasses : cell_class -> cell_class list

val is_generic : cell_class -> bool

(** Non-generic descendants, pre-order — the candidate realisations of a
    generic cell (Ch. 8). *)
val concrete_descendants : cell_class -> cell_class list
