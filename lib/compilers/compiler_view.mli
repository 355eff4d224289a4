(** Compiler views (§6.4.1).

    The tile-based module compilers treat subcells as black boxes; a
    compiler view exposes exactly the data they need — the bounding box
    and the io-pins organised in four sorted edge lists — in the format
    the butting operation wants, cached and erased whenever the model
    cell changes. Using views avoids both recomputing pin
    transformations on every query and leaking compiler-specific state
    into the database cells. *)

open Stem.Design

type side = Left | Right | Bottom | Top

type pin = { pin_signal : string; pin_pos : Geometry.Point.t (* class frame *) }

type data = {
  cv_bbox : Geometry.Rect.t option;
  cv_left : pin list; (* sorted by increasing y *)
  cv_right : pin list;
  cv_bottom : pin list; (* sorted by increasing x *)
  cv_top : pin list;
  cv_inner : pin list; (* pins not on the bounding-box perimeter *)
}

type t

(** [make env cls] — a view on [cls]; erased on any [#changed]
    broadcast of the cell. *)
val make : env -> cell_class -> t

val get : t -> data

(** How many times the view data were recomputed (Ch. 6 laziness
    experiments). *)
val recomputations : t -> int
