open Stem.Design
module Point = Geometry.Point
module Rect = Geometry.Rect

type side = Left | Right | Bottom | Top

type pin = { pin_signal : string; pin_pos : Point.t }

type data = {
  cv_bbox : Rect.t option;
  cv_left : pin list;
  cv_right : pin list;
  cv_bottom : pin list;
  cv_top : pin list;
  cv_inner : pin list;
}

type t = { view : data Stem.View.t; cv_model : cell_class }

let classify_side box (p : Point.t) =
  let ll = Rect.ll box and ur = Rect.ur box in
  if p.Point.x = ll.Point.x then Some Left
  else if p.Point.x = ur.Point.x then Some Right
  else if p.Point.y = ll.Point.y then Some Bottom
  else if p.Point.y = ur.Point.y then Some Top
  else None

let compute env cls =
  let bbox = Stem.Cell.bounding_box env cls in
  let all_pins =
    List.concat_map
      (fun ss -> List.map (fun p -> { pin_signal = ss.ss_name; pin_pos = p }) ss.ss_pins)
      cls.cc_signals
  in
  let by_y a b = Point.compare_yx a.pin_pos b.pin_pos in
  let by_x a b = Point.compare_xy a.pin_pos b.pin_pos in
  match bbox with
  | None ->
    {
      cv_bbox = None;
      cv_left = [];
      cv_right = [];
      cv_bottom = [];
      cv_top = [];
      cv_inner = all_pins;
    }
  | Some box ->
    let bucket side = List.filter (fun p -> classify_side box p.pin_pos = Some side) all_pins in
    let inner = List.filter (fun p -> classify_side box p.pin_pos = None) all_pins in
    {
      cv_bbox = bbox;
      cv_left = List.sort by_y (bucket Left);
      cv_right = List.sort by_y (bucket Right);
      cv_bottom = List.sort by_x (bucket Bottom);
      cv_top = List.sort by_x (bucket Top);
      cv_inner = inner;
    }

let make env cls =
  { view = Stem.View.make cls ~compute:(compute env); cv_model = cls }

let get t = Stem.View.get t.view

let recomputations t = Stem.View.recomputations t.view
