(* Tests for module validation and selection (Ch. 8): the Fig. 8.1 ALU
   scenario, selective testing, and Fig. 8.3/8.4 tree pruning. *)

open Stem.Design
module Cell = Stem.Cell
module Sel = Selection.Select
module Adders = Cell_library.Adders
module Datapath = Cell_library.Datapath

let names cells = List.map (fun c -> c.cc_name) cells

let all_priorities = [ Sel.BBox; Sel.Signals; Sel.Delays ]

(* Fig. 8.1(b): tight area (delay <= 11D, area <= 3A) -> ADD8.RC *)
let test_fig_8_1_tight_area () =
  let env = Stem.Env.create () in
  let adders = Adders.fig_8_1 env in
  let scenario =
    Datapath.alu env ~adder:adders.Adders.add8 ~delay_spec:11.0 ~area_spec:300
  in
  let picks =
    Sel.select env scenario.Datapath.adder_inst ~priorities:all_priorities ()
  in
  Alcotest.(check (list string)) "ripple-carry selected" [ "ADD8.RC" ] (names picks)

(* Fig. 8.1(c): tight delay (delay <= 8D, area <= 4.2A) -> ADD8.CS *)
let test_fig_8_1_tight_delay () =
  let env = Stem.Env.create () in
  let adders = Adders.fig_8_1 env in
  let scenario =
    Datapath.alu env ~adder:adders.Adders.add8 ~delay_spec:8.0 ~area_spec:420
  in
  let picks =
    Sel.select env scenario.Datapath.adder_inst ~priorities:all_priorities ()
  in
  Alcotest.(check (list string)) "carry-select selected" [ "ADD8.CS" ] (names picks)

(* loose specs admit both realisations *)
let test_fig_8_1_loose () =
  let env = Stem.Env.create () in
  let adders = Adders.fig_8_1 env in
  let scenario =
    Datapath.alu env ~adder:adders.Adders.add8 ~delay_spec:20.0 ~area_spec:1000
  in
  let picks =
    Sel.select env scenario.Datapath.adder_inst ~priorities:all_priorities ()
  in
  Alcotest.(check (list string)) "both valid" [ "ADD8.RC"; "ADD8.CS" ] (names picks)

(* impossible specs reject everything *)
let test_fig_8_1_impossible () =
  let env = Stem.Env.create () in
  let adders = Adders.fig_8_1 env in
  let scenario =
    Datapath.alu env ~adder:adders.Adders.add8 ~delay_spec:7.0 ~area_spec:250
  in
  let picks =
    Sel.select env scenario.Datapath.adder_inst ~priorities:all_priorities ()
  in
  Alcotest.(check (list string)) "nothing valid" [] (names picks)

let test_selection_leaves_no_trace () =
  let env = Stem.Env.create () in
  let adders = Adders.fig_8_1 env in
  let scenario =
    Datapath.alu env ~adder:adders.Adders.add8 ~delay_spec:11.0 ~area_spec:300
  in
  (* force the delay values to be pulled, then snapshot *)
  ignore (Sel.select env scenario.Datapath.adder_inst ~priorities:all_priorities ());
  (* compare printed values: type nodes are cyclic, so polymorphic
     equality must not be used on raw Dval values *)
  let snapshot () =
    List.map
      (fun v ->
        ( Constraint_kernel.Var.path v,
          Option.map Dval.to_string (Constraint_kernel.Var.value v) ))
      (List.rev env.env_cnet.Constraint_kernel.Types.net_vars)
  in
  let before = snapshot () in
  ignore (Sel.select env scenario.Datapath.adder_inst ~priorities:all_priorities ());
  Alcotest.(check bool) "tentative tests leave no trace" true (before = snapshot ())

(* Fig. 8.4: a generic intermediate that is too slow prunes its whole
   subtree *)
let test_fig_8_4_pruning () =
  let env = Stem.Env.create () in
  let family = Adders.fig_8_4 env in
  (* delay <= 7D rules RippleCarryAdder8 (ideal 8D) out entirely *)
  let scenario =
    Datapath.alu env ~adder:family.Adders.adder8 ~delay_spec:10.0 ~area_spec:100000
  in
  let stats = Sel.fresh_stats () in
  let picks =
    Sel.select env scenario.Datapath.adder_inst ~priorities:[ Sel.Delays ] ~stats ()
  in
  (* ALU adds 3D: candidates must have delay <= 7D -> only CS family *)
  Alcotest.(check (list string)) "carry-select family valid" [ "CSAdd8S"; "CSAdd8F" ]
    (names picks);
  Alcotest.(check int) "ripple subtree pruned" 1 stats.Sel.subtrees_pruned;
  Alcotest.(check int) "both generics tested" 2 stats.Sel.generics_tested;
  (* RCAdd8S and RCAdd8F were never tested *)
  Alcotest.(check int) "only CS leaves tested" 2 stats.Sel.candidates_tested

let test_pruning_ablation_tests_everything () =
  let env = Stem.Env.create () in
  let family = Adders.fig_8_4 env in
  let scenario =
    Datapath.alu env ~adder:family.Adders.adder8 ~delay_spec:10.0 ~area_spec:100000
  in
  let stats = Sel.fresh_stats () in
  let picks =
    Sel.select env scenario.Datapath.adder_inst ~priorities:[ Sel.Delays ]
      ~prune:false ~stats ()
  in
  Alcotest.(check (list string)) "same result without pruning"
    [ "CSAdd8S"; "CSAdd8F" ] (names picks);
  Alcotest.(check int) "all four leaves tested" 4 stats.Sel.candidates_tested;
  Alcotest.(check int) "no generic tests" 0 stats.Sel.generics_tested;
  Alcotest.(check int) "nothing pruned" 0 stats.Sel.subtrees_pruned

let test_selective_testing_costs () =
  (* restricting the priorities skips entire test categories *)
  let env = Stem.Env.create () in
  let adders = Adders.fig_8_1 env in
  let scenario =
    Datapath.alu env ~adder:adders.Adders.add8 ~delay_spec:11.0 ~area_spec:300
  in
  let stats = Sel.fresh_stats () in
  ignore (Sel.select env scenario.Datapath.adder_inst ~priorities:[ Sel.BBox ] ~stats ());
  Alcotest.(check int) "no delay tests run" 0 stats.Sel.delay_tests;
  Alcotest.(check int) "no signal tests run" 0 stats.Sel.signal_tests;
  Alcotest.(check bool) "bbox tests ran" true (stats.Sel.bbox_tests > 0)

let test_realize () =
  let env = Stem.Env.create () in
  let adders = Adders.fig_8_1 env in
  let scenario =
    Datapath.alu env ~adder:adders.Adders.add8 ~delay_spec:11.0 ~area_spec:300
  in
  let inst = scenario.Datapath.adder_inst in
  (match Sel.select env inst ~priorities:all_priorities () with
  | [ winner ] -> (
    match Sel.realize env inst winner with
    | Ok () ->
      Alcotest.(check string) "instance rebound" "ADD8.RC" inst.inst_of.cc_name;
      Alcotest.(check bool) "registered under new class" true
        (List.exists (fun i -> i.inst_uid = inst.inst_uid) (Cell.instances winner));
      Alcotest.(check int) "gone from generic" 0
        (List.length (Cell.instances adders.Adders.add8))
    | Error _ -> Alcotest.fail "realize failed")
  | other -> Alcotest.fail (Fmt.str "expected one winner, got %d" (List.length other)));
  (* after realisation the design's delay reflects the concrete adder *)
  match
    Delay.Delay_network.delay env scenario.Datapath.alu ~from_:"in" ~to_:"out"
  with
  | Some d -> Alcotest.(check (float 1e-6)) "ALU delay with ADD8.RC" 11.0 d
  | None -> Alcotest.fail "no ALU delay after realisation"

let test_non_generic_instance () =
  let env = Stem.Env.create () in
  let adders = Adders.fig_8_1 env in
  let scenario =
    Datapath.alu env ~adder:adders.Adders.add8_rc ~delay_spec:11.0 ~area_spec:300
  in
  let picks =
    Sel.select env scenario.Datapath.adder_inst ~priorities:all_priorities ()
  in
  Alcotest.(check (list string)) "already concrete" [ "ADD8.RC" ] (names picks)

let test_synthetic_family_sound () =
  (* pruning never changes the answer on the synthetic hierarchy *)
  let env = Stem.Env.create () in
  let root, leaves = Adders.synthetic_family env ~levels:2 ~fanout:3 in
  Alcotest.(check int) "leaf count" 9 leaves;
  let scenario =
    Datapath.alu env ~adder:root ~delay_spec:15.0 ~area_spec:100000
  in
  let with_prune =
    Sel.select env scenario.Datapath.adder_inst ~priorities:[ Sel.Delays ] ()
  in
  let without_prune =
    Sel.select env scenario.Datapath.adder_inst ~priorities:[ Sel.Delays ]
      ~prune:false ()
  in
  Alcotest.(check (list string)) "pruning is sound" (names without_prune)
    (names with_prune)

let suite =
  let tc = Alcotest.test_case in
  ( "selection",
    [
      tc "fig 8.1 tight area -> RC" `Quick test_fig_8_1_tight_area;
      tc "fig 8.1 tight delay -> CS" `Quick test_fig_8_1_tight_delay;
      tc "fig 8.1 loose -> both" `Quick test_fig_8_1_loose;
      tc "fig 8.1 impossible -> none" `Quick test_fig_8_1_impossible;
      tc "selection leaves no trace" `Quick test_selection_leaves_no_trace;
      tc "fig 8.4 tree pruning" `Quick test_fig_8_4_pruning;
      tc "pruning ablation" `Quick test_pruning_ablation_tests_everything;
      tc "selective testing" `Quick test_selective_testing_costs;
      tc "realize rebinds instance" `Quick test_realize;
      tc "non-generic instance" `Quick test_non_generic_instance;
      tc "synthetic family soundness" `Quick test_synthetic_family_sound;
    ] )
