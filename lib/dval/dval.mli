(** The design-value universe STEM's constraint networks range over.

    The thesis relies on Smalltalk's dynamic typing: one variable may hold
    a delay, a bounding box or a signal type. Here the same universe is a
    variant; the kernel is instantiated at [Dval.t]. *)

type t =
  | Int of int (** bit widths, counts, positions *)
  | Float of float (** delays (ns), resistances (kΩ), capacitances (pF), areas *)
  | Bool of bool
  | Str of string
  | Rect of Geometry.Rect.t (** bounding boxes *)
  | Dtype of Signal_types.Type_tree.node (** data type (Fig. 7.2) *)
  | Etype of Signal_types.Type_tree.node (** electrical type (Fig. 7.2) *)
  | Irange of int * int (** legal parameter range, class level *)
  | Frange of float * float

(** Structural equality; floats compare with relative tolerance [1e-9]
    so recomputed delays terminate propagation. *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string

(** {1 Projections} — [None] on a different constructor. *)

val int : t -> int option

val float : t -> float option

(** [number v] — [Int] or [Float] as float. *)
val number : t -> float option

val bool : t -> bool option

val str : t -> string option

val rect : t -> Geometry.Rect.t option

val dtype : t -> Signal_types.Type_tree.node option

val etype : t -> Signal_types.Type_tree.node option

(** Either type constructor's node. *)
val type_node : t -> Signal_types.Type_tree.node option

(** {1 Arithmetic used by functional constraints}

    Numeric operations promote to [Float] when any operand is a float. *)

val add : t -> t -> t option

(** [sub a b] — numeric subtraction with the same promotion rule. *)
val sub : t -> t -> t option

val sum : t list -> t option

val max_ : t -> t -> t option

val maximum : t list -> t option

val minimum : t list -> t option

val scale : float -> t -> t option

(** [compare_num a b] — numeric comparison; [None] if non-numeric. *)
val compare_num : t -> t -> int option

val le : t -> t -> bool option

(** {1 Domain predicates} *)

(** Signal-type compatibility (§7.1): both [Dtype]/[Etype] — positions in
    the hierarchy; equal widths for [Int]; equality otherwise. *)
val compatible : t -> t -> bool

(** Least-abstract of two compatible type values (same constructor). *)
val least_abstract : t -> t -> t option

(** [is_less_abstract a b] — [a] strictly more specific than [b] (type
    values only; [false] otherwise). *)
val is_less_abstract : t -> t -> bool

(** [in_range v range] — [Int] within [Irange], [Float]/[Int] within
    [Frange]. [None] when shapes don't match. *)
val in_range : t -> t -> bool option

(** Parse the common textual forms: integers ([8]), floats ([1.5],
    [0x1.8p+0]), booleans, quoted strings, rectangles ([rect X Y W H]),
    integer and float ranges ([LO..HI]), data/electrical types
    ([data:BCDSignal], [elec:CMOS] — resolved in the standard
    hierarchies). Used by the constraint-editor REPL, spec files and
    journal records. *)
val of_string : string -> t option

(** The exact inverse of {!of_string}: [of_string (to_token v) = Some v]
    for every value, bit for bit (floats print in [%h]). The one value
    writer of journal, snapshot and persist records. *)
val to_token : t -> string

(** Alcotest-style testable helpers. *)
val equal_for_tests : t -> t -> bool
