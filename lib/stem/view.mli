(** Calculated views and change broadcast (Ch. 6, §6.5.2).

    A view translates a portion of a model (cell class) into a format
    suited to one application; its derived data are erased whenever the
    model changes and recomputed lazily on the next access. A changed
    cell also broadcasts up the design hierarchy to the cells containing
    instances of it. *)

open Design

type 'a t

(** [make cell ~compute] registers a view on [cell]. *)
val make : cell_class -> compute:(cell_class -> 'a) -> 'a t

(** [make_keyed cell ~keys ~compute] — a view that only erases on
    broadcasts whose key is in [keys] (or on key-less broadcasts): the
    selective [#changed:key] mechanism (e.g. a SPICE netlist view need
    not erase on pure layout changes). *)
val make_keyed : cell_class -> keys:string list -> compute:(cell_class -> 'a) -> 'a t

(** Cached read; recomputes when erased. *)
val get : 'a t -> 'a

(** Is the cache currently erased? *)
val is_erased : 'a t -> bool

(** How many times the view has recomputed (for the lazy-vs-eager
    benchmarks). *)
val recomputations : 'a t -> int

(** [changed ?key cell] — the [#changed]/[#changed:key] broadcast: erase
    dependent views of [cell] and propagate the change up the design
    hierarchy to every cell containing an instance of [cell]. *)
val changed : ?key:string -> cell_class -> unit

(** Register a raw dependent (used by compiler views and SPICE views
    that manage their own caches). Returns the unregister function. *)
val add_dependent : cell_class -> erase:(key:string option -> unit) -> unit -> unit
[@@ocaml.doc " [add_dependent cell ~erase] returns a thunk that unregisters the dependent when called. "]
