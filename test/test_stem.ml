(* Integration tests for the STEM design environment: dual variables,
   implicit (hierarchical) constraints, signal typing on nets, property
   variables, views and change broadcast (Chs. 3, 5, 6, 7). *)

open Constraint_kernel
open Stem.Design
module Cell = Stem.Cell
module Enet = Stem.Enet
module Point = Geometry.Point
module Rect = Geometry.Rect
module Transform = Geometry.Transform
module St = Signal_types.Standard

let ok = function Ok () -> true | Error _ -> false

let rect x y w h = Rect.make (Point.make x y) ~width:w ~height:h

let mkenv () = Stem.Env.create ()

(* a minimal leaf cell with one input and one output *)
let simple_leaf env ~name ?in_width ?out_width () =
  let c = Cell.create env ~name () in
  ignore
    (Cell.add_signal env c ~name:"in" ~dir:Input ~data:St.bit ~elec:St.cmos
       ?width:in_width ());
  ignore
    (Cell.add_signal env c ~name:"out" ~dir:Output ~data:St.bit ~elec:St.cmos
       ?width:out_width ());
  c

(* ------------------------------------------------------------------ *)
(* Signal typing on nets (§7.1)                                        *)
(* ------------------------------------------------------------------ *)

let test_net_type_inference () =
  let env = mkenv () in
  let a = simple_leaf env ~name:"A" ~out_width:8 () in
  let b = Cell.create env ~name:"B" () in
  (* B's input is untyped and unsized *)
  ignore (Cell.add_signal env b ~name:"in" ~dir:Input ());
  let top = Cell.create env ~name:"TOP" () in
  let ia = Cell.instantiate env ~parent:top ~of_:a ~name:"a1" () in
  let ib = Cell.instantiate env ~parent:top ~of_:b ~name:"b1" () in
  let net = Cell.add_net env top ~name:"n1" in
  Alcotest.(check bool) "connect a.out" true (ok (Enet.connect env net (Sub_pin (ia, "out"))));
  Alcotest.(check bool) "connect b.in" true (ok (Enet.connect env net (Sub_pin (ib, "in"))));
  (* the net inferred its type and width from A's output *)
  Alcotest.(check (option string)) "net width" (Some "8")
    (Option.map Dval.to_string (Var.value net.en_width));
  Alcotest.(check (option string)) "net data type" (Some "data:Bit")
    (Option.map Dval.to_string (Var.value net.en_data));
  (* and propagated them onto B's untyped input *)
  let bin = find_signal b "in" in
  Alcotest.(check (option string)) "b.in width inferred" (Some "8")
    (Option.map Dval.to_string (Var.value bin.ss_width));
  Alcotest.(check (option string)) "b.in data inferred" (Some "data:Bit")
    (Option.map Dval.to_string (Var.value bin.ss_data))

let test_fig_7_1_bitwidth_violation () =
  (* an 8-bit constrained signal connected to a 4-bit net *)
  let env = mkenv () in
  let a8 = simple_leaf env ~name:"A8" ~out_width:4 () in
  let b = simple_leaf env ~name:"B" ~in_width:8 () in
  let top = Cell.create env ~name:"TOP" () in
  let ia = Cell.instantiate env ~parent:top ~of_:a8 ~name:"a1" () in
  let ib = Cell.instantiate env ~parent:top ~of_:b ~name:"b1" () in
  let net = Cell.add_net env top ~name:"n1" in
  Alcotest.(check bool) "4-bit source connects" true
    (ok (Enet.connect env net (Sub_pin (ia, "out"))));
  let r = Enet.connect env net (Sub_pin (ib, "in")) in
  Alcotest.(check bool) "8-bit sink violates" false (ok r);
  (* the 8-bit signal keeps its width; the net keeps 4 *)
  Alcotest.(check (option string)) "b.in width kept" (Some "8")
    (Option.map Dval.to_string (Var.value (find_signal b "in").ss_width));
  Alcotest.(check (option string)) "net width kept" (Some "4")
    (Option.map Dval.to_string (Var.value net.en_width))

let test_type_refinement_rule () =
  (* least-abstract rule (Fig. 7.4): IntegerSignal refines to BCD, and a
     sibling type is ignored then caught by the compatibility check *)
  let env = mkenv () in
  let gen = Cell.create env ~name:"GEN" () in
  ignore
    (Cell.add_signal env gen ~name:"out" ~dir:Output ~data:St.integer_signal ());
  let bcd = Cell.create env ~name:"BCDCELL" () in
  ignore (Cell.add_signal env bcd ~name:"in" ~dir:Input ~data:St.bcd ());
  let top = Cell.create env ~name:"TOP" () in
  let ig = Cell.instantiate env ~parent:top ~of_:gen ~name:"g" () in
  let ib = Cell.instantiate env ~parent:top ~of_:bcd ~name:"b" () in
  let net = Cell.add_net env top ~name:"n" in
  let net_type () = Option.map Dval.to_string (Var.value net.en_data) in
  (* an untyped signal gives the net no type *)
  let anon = Cell.create env ~name:"ANON" () in
  ignore (Cell.add_signal env anon ~name:"p" ~dir:Inout ());
  let ia = Cell.instantiate env ~parent:top ~of_:anon ~name:"anon" () in
  Alcotest.(check bool) "untyped connects" true
    (ok (Enet.connect env net (Sub_pin (ia, "p"))));
  Alcotest.(check (option string)) "untyped net" None (net_type ());
  Alcotest.(check bool) "integer source" true (ok (Enet.connect env net (Sub_pin (ig, "out"))));
  Alcotest.(check (option string)) "net takes the integer type"
    (Some "data:IntegerSignal") (net_type ());
  Alcotest.(check bool) "bcd sink compatible" true (ok (Enet.connect env net (Sub_pin (ib, "in"))));
  (* the net type refined to the least abstract: BCD *)
  Alcotest.(check (option string)) "net refined to BCD" (Some "data:BCDSignal")
    (Option.map Dval.to_string (Var.value net.en_data));
  (* now an A2C cell (sibling of BCD) must be rejected *)
  let a2c = Cell.create env ~name:"A2CCELL" () in
  ignore (Cell.add_signal env a2c ~name:"in" ~dir:Input ~data:St.a2c_int ());
  let i2 = Cell.instantiate env ~parent:top ~of_:a2c ~name:"a2c" () in
  Alcotest.(check bool) "incompatible sibling rejected" false
    (ok (Enet.connect env net (Sub_pin (i2, "in"))));
  Alcotest.(check (option string)) "net stays BCD" (Some "data:BCDSignal")
    (net_type ())

let test_disconnect_erases () =
  let env = mkenv () in
  let a = simple_leaf env ~name:"A" ~out_width:8 () in
  let b = Cell.create env ~name:"B" () in
  ignore (Cell.add_signal env b ~name:"in" ~dir:Input ());
  let top = Cell.create env ~name:"TOP" () in
  let ia = Cell.instantiate env ~parent:top ~of_:a ~name:"a1" () in
  let ib = Cell.instantiate env ~parent:top ~of_:b ~name:"b1" () in
  let net = Cell.add_net env top ~name:"n1" in
  ignore (Enet.connect env net (Sub_pin (ia, "out")));
  ignore (Enet.connect env net (Sub_pin (ib, "in")));
  Alcotest.(check bool) "width propagated" true
    (Var.value (find_signal b "in").ss_width <> None);
  Enet.disconnect env net (Sub_pin (ia, "out"));
  (* the inferred values depended on A's membership: erased *)
  Alcotest.(check (option string)) "net width erased" None
    (Option.map Dval.to_string (Var.value net.en_width));
  Alcotest.(check (option string)) "b.in width erased" None
    (Option.map Dval.to_string (Var.value (find_signal b "in").ss_width))

(* ------------------------------------------------------------------ *)
(* Bounding boxes (§7.2)                                               *)
(* ------------------------------------------------------------------ *)

let test_bbox_defaulting_and_check () =
  let env = mkenv () in
  let leaf = simple_leaf env ~name:"LEAF" () in
  Alcotest.(check bool) "set class bbox" true
    (ok (Cell.set_class_bbox env leaf (rect 0 0 10 20)));
  let top = Cell.create env ~name:"TOP" () in
  let i1 =
    Cell.instantiate env ~parent:top ~of_:leaf ~name:"u1"
      ~transform:(Transform.translation (Point.make 5 5))
      ()
  in
  (* instance bbox defaulted to the placed class bbox *)
  Alcotest.(check (option string)) "instance bbox defaulted"
    (Some "[(5, 5) 10x20]")
    (Option.map Dval.to_string (Var.value i1.inst_bbox));
  (* placing in a larger area is fine *)
  Alcotest.(check bool) "larger area ok" true
    (ok (Cell.set_instance_bbox env i1 (rect 5 5 14 24)));
  (* smaller than the class box violates (Fig. 7.7) *)
  Alcotest.(check bool) "smaller area violates" false
    (ok (Cell.set_instance_bbox env i1 (rect 5 5 6 20)));
  Alcotest.(check (option string)) "instance bbox restored"
    (Some "[(5, 5) 14x24]")
    (Option.map Dval.to_string (Var.value i1.inst_bbox))

let test_bbox_rotation () =
  let env = mkenv () in
  let leaf = simple_leaf env ~name:"LEAF" () in
  ignore (Cell.set_class_bbox env leaf (rect 0 0 10 20));
  let top = Cell.create env ~name:"TOP" () in
  let i1 =
    Cell.instantiate env ~parent:top ~of_:leaf ~name:"u1"
      ~transform:(Transform.make ~orient:Transform.R90 Point.origin)
      ()
  in
  (match Cell.instance_bbox env i1 with
  | Some r ->
    Alcotest.(check int) "rotated width" 20 (Rect.width r);
    Alcotest.(check int) "rotated height" 10 (Rect.height r)
  | None -> Alcotest.fail "no instance bbox");
  Alcotest.(check (option string)) "rotated default" (Some "[(-20, 0) 20x10]")
    (Option.map Dval.to_string (Var.value i1.inst_bbox));
  Alcotest.(check bool) "stretch to 24x12" true
    (ok (Cell.set_instance_bbox env i1 (rect (-20) 0 24 12)));
  Alcotest.(check bool) "18x6 is too small" false
    (ok (Cell.set_instance_bbox env i1 (rect (-20) 0 18 6)));
  (* an io-pin stretches with the instance box *)
  ignore (Cell.add_signal env leaf ~name:"x" ~dir:Input ~pins:[ Point.make 0 10 ] ());
  Alcotest.(check (option string)) "stretched pin" (Some "(-8, 0)")
    (Option.map Point.to_string
       (List.assoc_opt "x" (Stem.Stretch.pin_positions env i1)))

let test_parent_bbox_recalculation () =
  let env = mkenv () in
  let leaf = simple_leaf env ~name:"LEAF" () in
  ignore (Cell.set_class_bbox env leaf (rect 0 0 10 10));
  let top = Cell.create env ~name:"TOP" () in
  let _i1 = Cell.instantiate env ~parent:top ~of_:leaf ~name:"u1" () in
  let i2 =
    Cell.instantiate env ~parent:top ~of_:leaf ~name:"u2"
      ~transform:(Transform.translation (Point.make 10 0))
      ()
  in
  (* parent bbox recomputed lazily from the placements *)
  Alcotest.(check (option string)) "union of placements"
    (Some "[(0, 0) 20x10]")
    (Option.map Rect.to_string (Cell.bounding_box env top));
  (* growing a subcell placement erases and recomputes the parent box *)
  Alcotest.(check bool) "stretch u2" true
    (ok (Cell.set_instance_bbox env i2 (rect 10 0 15 10)));
  Alcotest.(check (option string)) "parent box grows"
    (Some "[(0, 0) 25x10]")
    (Option.map Rect.to_string (Cell.bounding_box env top))

let test_aspect_ratio_predicate () =
  let env = mkenv () in
  let leaf = simple_leaf env ~name:"LEAF" () in
  let bbox_var = Cell.class_bbox_var leaf in
  let _ = Dclib.aspect_ratio (Stem.Env.cnet env) bbox_var ~ratio:2.0 in
  Alcotest.(check bool) "ratio 2 accepted" true
    (ok (Cell.set_class_bbox env leaf (rect 0 0 20 10)));
  Alcotest.(check bool) "ratio 3 rejected" false
    (ok (Cell.set_class_bbox env leaf (rect 0 0 30 10)));
  Alcotest.(check bool) "40x20 accepted" true
    (ok (Cell.set_class_bbox env leaf (rect 0 0 40 20)));
  Alcotest.(check bool) "50x20 rejected" false
    (ok (Cell.set_class_bbox env leaf (rect 0 0 50 20)))

(* ------------------------------------------------------------------ *)
(* Parameters                                                          *)
(* ------------------------------------------------------------------ *)

let test_parameter_range_and_default () =
  let env = mkenv () in
  let leaf = Cell.create env ~name:"P" () in
  ignore
    (Cell.add_param env leaf ~name:"bits" ~range:(Dval.Irange (1, 32))
       ~default:(Dval.Int 8) ());
  let top = Cell.create env ~name:"TOP" () in
  let i1 = Cell.instantiate env ~parent:top ~of_:leaf ~name:"u1" () in
  Alcotest.(check (option string)) "default propagated" (Some "8")
    (Option.map Dval.to_string (Cell.param_value i1 "bits"));
  Alcotest.(check bool) "legal value ok" true
    (ok (Cell.set_param env i1 "bits" (Dval.Int 16)));
  Alcotest.(check bool) "out-of-range rejected" false
    (ok (Cell.set_param env i1 "bits" (Dval.Int 64)));
  Alcotest.(check (option string)) "value restored" (Some "16")
    (Option.map Dval.to_string (Cell.param_value i1 "bits"))

(* ------------------------------------------------------------------ *)
(* Property variables and views (Ch. 6)                                *)
(* ------------------------------------------------------------------ *)

let test_property_lazy_recompute () =
  let env = mkenv () in
  let computed = ref 0 in
  let p =
    Stem.Property.make env ~owner:"t" ~name:"p"
      ~recalc:(fun () ->
        incr computed;
        Some (Dval.Int !computed))
      ()
  in
  Alcotest.(check int) "not computed eagerly" 0 !computed;
  Alcotest.(check (option string)) "first read computes" (Some "1")
    (Option.map Dval.to_string (Stem.Property.read env p));
  Alcotest.(check (option string)) "second read cached" (Some "1")
    (Option.map Dval.to_string (Stem.Property.read env p));
  Alcotest.(check int) "computed once" 1 !computed;
  Stem.Property.invalidate env p;
  Alcotest.(check (option string)) "recomputes after invalidate" (Some "2")
    (Option.map Dval.to_string (Stem.Property.read env p))

let test_view_broadcast () =
  let env = mkenv () in
  let leaf = simple_leaf env ~name:"LEAF" () in
  let top = Cell.create env ~name:"TOP" () in
  let _i = Cell.instantiate env ~parent:top ~of_:leaf ~name:"u1" () in
  let leaf_view = Stem.View.make leaf ~compute:(fun c -> c.cc_name) in
  let top_view = Stem.View.make top ~compute:(fun c -> c.cc_name) in
  Alcotest.(check string) "view computes" "LEAF" (Stem.View.get leaf_view);
  Alcotest.(check string) "top view computes" "TOP" (Stem.View.get top_view);
  (* changing the leaf propagates up the design hierarchy *)
  Stem.View.changed leaf;
  Alcotest.(check bool) "leaf view erased" true (Stem.View.is_erased leaf_view);
  Alcotest.(check bool) "top view erased too" true (Stem.View.is_erased top_view);
  ignore (Stem.View.get top_view);
  Alcotest.(check int) "recomputation counted" 2 (Stem.View.recomputations top_view)

let test_view_selective_key () =
  let env = mkenv () in
  let leaf = simple_leaf env ~name:"LEAF" () in
  let netlist_view =
    Stem.View.make_keyed leaf ~keys:[ "structure" ] ~compute:(fun c -> c.cc_name)
  in
  ignore (Stem.View.get netlist_view);
  Stem.View.changed ~key:"layout" leaf;
  Alcotest.(check bool) "layout change ignored" false (Stem.View.is_erased netlist_view);
  Stem.View.changed ~key:"structure" leaf;
  Alcotest.(check bool) "structure change erases" true (Stem.View.is_erased netlist_view)

(* ------------------------------------------------------------------ *)
(* Subcell removal and rebinding                                       *)
(* ------------------------------------------------------------------ *)

let test_remove_subcell () =
  let env = mkenv () in
  let a = simple_leaf env ~name:"A" ~out_width:8 () in
  let b = Cell.create env ~name:"B" () in
  ignore (Cell.add_signal env b ~name:"in" ~dir:Input ());
  let top = Cell.create env ~name:"TOP" () in
  let ia = Cell.instantiate env ~parent:top ~of_:a ~name:"a1" () in
  let ib = Cell.instantiate env ~parent:top ~of_:b ~name:"b1" () in
  let net = Cell.add_net env top ~name:"n1" in
  ignore (Enet.connect env net (Sub_pin (ia, "out")));
  ignore (Enet.connect env net (Sub_pin (ib, "in")));
  Cell.remove_subcell env ia;
  Alcotest.(check int) "one subcell left" 1 (List.length (Cell.subcells top));
  Alcotest.(check (option string)) "net width erased" None
    (Option.map Dval.to_string (Var.value net.en_width));
  Alcotest.(check int) "A has no instances" 0 (List.length (Cell.instances a))

let test_inheritance_copies_interface () =
  let env = mkenv () in
  let parent = simple_leaf env ~name:"PARENT" ~in_width:8 () in
  ignore (Cell.add_param env parent ~name:"k" ~range:(Dval.Irange (0, 7)) ());
  ignore (Cell.set_class_bbox env parent (rect 0 0 10 10));
  ignore (Cell.declare_delay env parent ~from_:"in" ~to_:"out" ~estimate:2.0 ());
  let child = Cell.create env ~name:"CHILD" ~super:parent () in
  Alcotest.(check int) "signals inherited" 2 (List.length (Cell.signals child));
  Alcotest.(check (option string)) "width copied" (Some "8")
    (Option.map Dval.to_string (Var.value (find_signal child "in").ss_width));
  Alcotest.(check int) "params inherited" 1 (List.length child.cc_params);
  Alcotest.(check int) "delays inherited (no values)" 1 (List.length child.cc_delays);
  Alcotest.(check bool) "delay value not copied" true
    (Var.value (List.hd child.cc_delays).cd_var = None);
  Alcotest.(check bool) "child registered in subclasses" true
    (List.exists (fun c -> c.cc_uid = child.cc_uid) (Cell.subclasses parent))

let suite =
  let tc = Alcotest.test_case in
  ( "stem",
    [
      tc "net type inference" `Quick test_net_type_inference;
      tc "fig 7.1 bit-width violation" `Quick test_fig_7_1_bitwidth_violation;
      tc "type refinement rule" `Quick test_type_refinement_rule;
      tc "disconnect erases inferences" `Quick test_disconnect_erases;
      tc "bbox defaulting and check" `Quick test_bbox_defaulting_and_check;
      tc "bbox rotation" `Quick test_bbox_rotation;
      tc "parent bbox recalculation" `Quick test_parent_bbox_recalculation;
      tc "aspect ratio predicate" `Quick test_aspect_ratio_predicate;
      tc "parameter range and default" `Quick test_parameter_range_and_default;
      tc "property lazy recompute" `Quick test_property_lazy_recompute;
      tc "view broadcast up hierarchy" `Quick test_view_broadcast;
      tc "view selective key" `Quick test_view_selective_key;
      tc "remove subcell" `Quick test_remove_subcell;
      tc "interface inheritance" `Quick test_inheritance_copies_interface;
    ] )
