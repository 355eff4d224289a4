(* Tests for the delay subsystem (§7.3): RC adjustment, path
   enumeration, MAX-of-SUMs networks, hierarchical propagation, and the
   Fig. 5.2 accumulator scenario. *)

open Constraint_kernel
open Stem.Design
module Cell = Stem.Cell
module Enet = Stem.Enet
module Dn = Delay.Delay_network
module Dp = Delay.Delay_path

let ok = function Ok () -> true | Error _ -> false

let check_float msg expected actual =
  Alcotest.(check (float 1e-6)) msg expected actual

let test_inverter_chain_delay () =
  let env = Stem.Env.create () in
  let gates = Cell_library.Gates.make env in
  let chain = Cell_library.Gates.inverter_chain env gates ~n:3 in
  (* each inverter: 1.0 ns internal; stages 1..2 drive the next
     inverter's 0.05 pF at 2 kΩ (0.1 ns); the last stage drives the
     composite's 0.1 pF output load (0.2 ns) *)
  match Dn.delay env chain ~from_:"in" ~to_:"out" with
  | Some d -> check_float "3-stage chain" (1.1 +. 1.1 +. 1.2) d
  | None -> Alcotest.fail "no delay computed"

let test_path_enumeration () =
  let env = Stem.Env.create () in
  let gates = Cell_library.Gates.make env in
  let slice = Cell_library.Gates.adder_slice env gates in
  let paths_as = Dp.enumerate slice ~from_:"a" ~to_:"s" in
  Alcotest.(check int) "one a->s path" 1 (List.length paths_as);
  let paths_ac = Dp.enumerate slice ~from_:"a" ~to_:"cout" in
  Alcotest.(check int) "two a->cout paths" 2 (List.length paths_ac);
  let paths_cc = Dp.enumerate slice ~from_:"cin" ~to_:"cout" in
  Alcotest.(check int) "one cin->cout path" 1 (List.length paths_cc)

let test_max_of_sums () =
  (* a->cout goes through xor+nand+nand (long) or nand+nand (short);
     the class delay is the max *)
  let env = Stem.Env.create () in
  let gates = Cell_library.Gates.make env in
  let slice = Cell_library.Gates.adder_slice env gates in
  match Dn.delay env slice ~from_:"a" ~to_:"cout" with
  | Some d ->
    (* long path: x1 (2.2 + 2.5kΩ·(0.09+0.06) loading on np? —
       x1 drives np: loads x2.a (0.09) + t.a (0.06): 3.0·0.15 = 0.45)
       then t (1.2 + 2.5·0.06 = 1.35), then co (1.2 + 2.5·0.05 = 1.325):
       total = 2.65 + 1.35 + 1.325 = 5.325.
       short path: g (1.2 + 2.5·0.06 = 1.35) + co (1.325) = 2.675. *)
    check_float "max of two paths" 5.325 d;
    let path_sum path =
      List.fold_left
        (fun acc arc ->
          let cd = arc.Dp.arc_delay in
          match
            Var.value
              (Hashtbl.find arc.Dp.arc_inst.inst_delays
                 (delay_key ~from_:cd.cd_from ~to_:cd.cd_to))
          with
          | Some (Dval.Float f) -> acc +. f
          | _ -> Alcotest.fail "arc delay unknown")
        0.0 path
    in
    Alcotest.(check (list (float 1e-6)))
      "per-path sums" [ 2.675; 5.325 ]
      (List.sort compare
         (List.map path_sum (Dp.enumerate slice ~from_:"a" ~to_:"cout")));
    (match Dn.critical_path env slice ~from_:"a" ~to_:"cout" with
    | Some (path, cd) ->
      Alcotest.(check int) "critical path length" 3 (List.length path);
      check_float "critical path delay" d cd
    | None -> Alcotest.fail "no critical path")
  | None -> Alcotest.fail "no delay computed"

let test_leaf_characteristic_update_propagates () =
  (* changing a leaf characteristic updates the composite delay through
     the hierarchy (least-commitment feedback) *)
  let env = Stem.Env.create () in
  let gates = Cell_library.Gates.make env in
  let chain = Cell_library.Gates.inverter_chain env gates ~n:2 in
  (match Dn.delay env chain ~from_:"in" ~to_:"out" with
  | Some d -> check_float "initial" (1.1 +. 1.2) d
  | None -> Alcotest.fail "no delay");
  (* speed the inverter up: 1.0 -> 0.5 ns *)
  let inv_delay = List.hd gates.Cell_library.Gates.inverter.cc_delays in
  Alcotest.(check bool) "update characteristic" true
    (ok (Engine.set env.env_cnet inv_delay.cd_var (Dval.Float 0.5)));
  match Dn.delay env chain ~from_:"in" ~to_:"out" with
  | Some d -> check_float "updated through hierarchy" (0.6 +. 0.7) d
  | None -> Alcotest.fail "no delay after update"

let test_delay_spec_violation_on_estimate () =
  (* a user estimate that violates a declared spec is rejected *)
  let env = Stem.Env.create () in
  let c = Cell.create env ~name:"C" () in
  ignore (Cell.add_signal env c ~name:"i" ~dir:Input ());
  ignore (Cell.add_signal env c ~name:"o" ~dir:Output ());
  let cd = Cell.declare_delay env c ~from_:"i" ~to_:"o" ~spec:120.0 () in
  Alcotest.(check bool) "within spec" true
    (ok (Engine.set env.env_cnet cd.cd_var (Dval.Float 100.0)));
  Alcotest.(check bool) "beyond spec rejected" false
    (ok (Engine.set env.env_cnet cd.cd_var (Dval.Float 130.0)))

let test_fig_5_2_accumulator () =
  (* REGISTER 60 ns + ADDER 110 ns (after loading) = 170 ns > 160 ns
     spec: the hierarchical network detects the violation; with a 180 ns
     spec everything is consistent *)
  let env = Stem.Env.create () in
  let violations = ref 0 in
  Engine.set_violation_handler env.env_cnet (fun _ -> incr violations);
  let acc = Cell_library.Datapath.accumulator ~spec:160.0 env in
  let d = Dn.delay env acc.Cell_library.Datapath.acc ~from_:"in" ~to_:"out" in
  (* the computed 170 ns violates the 160 ns spec: the propagation is
     rolled back, so the accumulator delay stays unknown *)
  Alcotest.(check (option (float 1e-6))) "violating delay not installed" None d;
  Alcotest.(check int) "one violation reported" 1 !violations;
  (* the same design against a 180 ns budget *)
  let env2 = Stem.Env.create () in
  let violations2 = ref 0 in
  Engine.set_violation_handler env2.env_cnet (fun _ -> incr violations2);
  let acc2 = Cell_library.Datapath.accumulator ~spec:180.0 env2 in
  (match Dn.delay env2 acc2.Cell_library.Datapath.acc ~from_:"in" ~to_:"out" with
  | Some d -> check_float "170 ns total" 170.0 d
  | None -> Alcotest.fail "delay expected");
  Alcotest.(check int) "no violation at 180 ns" 0 !violations2;
  (* the adder's contribution includes the 5 ns loading adjustment *)
  match Dn.critical_path env2 acc2.Cell_library.Datapath.acc ~from_:"in" ~to_:"out" with
  | Some (path, _) -> Alcotest.(check int) "path reg->adder" 2 (List.length path)
  | None -> Alcotest.fail "critical path expected"

let test_teardown_on_structure_change () =
  let env = Stem.Env.create () in
  let gates = Cell_library.Gates.make env in
  let chain = Cell_library.Gates.inverter_chain env gates ~n:2 in
  ignore (Dn.delay env chain ~from_:"in" ~to_:"out");
  Alcotest.(check bool) "network built" true (Dn.is_built env chain);
  (* a structural change tears the delay network down *)
  Stem.View.changed ~key:"structure" chain;
  Alcotest.(check bool) "network torn down" false (Dn.is_built env chain);
  (* and it is rebuilt on demand *)
  match Dn.delay env chain ~from_:"in" ~to_:"out" with
  | Some d -> check_float "rebuilt" (1.1 +. 1.2) d
  | None -> Alcotest.fail "no delay after rebuild"

let test_estimate_blocks_network () =
  (* a designer estimate is authoritative until removed (§7.3) *)
  let env = Stem.Env.create () in
  let gates = Cell_library.Gates.make env in
  let chain = Cell_library.Gates.inverter_chain env gates ~n:2 in
  let cd = List.hd chain.cc_delays in
  Alcotest.(check bool) "estimate set" true
    (ok (Engine.set env.env_cnet cd.cd_var (Dval.Float 99.0)));
  (match Dn.delay env chain ~from_:"in" ~to_:"out" with
  | Some d -> check_float "estimate wins" 99.0 d
  | None -> Alcotest.fail "estimate expected");
  (* removing the estimate lets the calculated value flow in *)
  Cell.clear_delay_estimate env cd;
  Stem.View.changed ~key:"structure" chain;
  match Dn.delay env chain ~from_:"in" ~to_:"out" with
  | Some d -> check_float "calculated after removal" (1.1 +. 1.2) d
  | None -> Alcotest.fail "calculated delay expected"

(* Delay networks and SPICE templates are registered per environment
   and must be collected with it: build 40 designs, each in a fresh
   environment that is dropped afterwards, and the live heap after a
   full major GC stays flat instead of growing by one design each. *)
let test_designs_die_with_env () =
  let design () =
    let env = Stem.Env.create () in
    let gates = Cell_library.Gates.make env in
    let ra = Cell_library.Composed.ripple_adder env gates ~bits:4 in
    Spice.Gate_templates.nand2 env gates.Cell_library.Gates.nand2 ~a:"a" ~b:"b"
      ~y:"y";
    Alcotest.(check bool) "delay computed" true
      (Dn.delay env ra.Cell_library.Composed.ra_cell
         ~from_:ra.Cell_library.Composed.ra_cin
         ~to_:ra.Cell_library.Composed.ra_cout
      <> None);
    Alcotest.(check bool) "template registered" true
      (Spice.Template.is_leaf_template env gates.Cell_library.Gates.nand2);
    env
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let base = live () in
  let held = design () in
  let footprint = live () - base in
  ignore (Sys.opaque_identity held);
  let after = Array.init 40 (fun _ -> ignore (design ()); live ()) in
  let growth = after.(39) - after.(4) in
  if growth > footprint / 2 then
    Alcotest.failf
      "live heap grew by %d words over designs 5..40 (one design is %d)"
      growth footprint

let suite =
  let tc = Alcotest.test_case in
  ( "delay",
    [
      tc "inverter chain RC delay" `Quick test_inverter_chain_delay;
      tc "path enumeration" `Quick test_path_enumeration;
      tc "max of sums (fig 7.12)" `Quick test_max_of_sums;
      tc "leaf update propagates up" `Quick test_leaf_characteristic_update_propagates;
      tc "delay spec violation" `Quick test_delay_spec_violation_on_estimate;
      tc "fig 5.2 accumulator" `Quick test_fig_5_2_accumulator;
      tc "teardown on structure change" `Quick test_teardown_on_structure_change;
      tc "estimate blocks network" `Quick test_estimate_blocks_network;
      tc "designs die with their environment" `Quick test_designs_die_with_env;
    ] )
