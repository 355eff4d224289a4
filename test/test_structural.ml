(* The least-commitment loop closed over real structure: a generic adder
   whose candidate realisations carry characteristics computed from
   gate-level compiled designs (ripple vs carry-select), then selected
   under tight specs — Fig. 8.1 with derived, not declared, numbers. *)

open Stem.Design
module Cell = Stem.Cell
module Composed = Cell_library.Composed
module Dn = Delay.Delay_network
module Sel = Selection.Select

let mk () =
  let env = Stem.Env.create () in
  let gates = Cell_library.Gates.make env in
  (env, gates)

let test_carry_select_structure () =
  let env, gates = mk () in
  let cs = Composed.carry_select_adder env gates ~bits:8 in
  let cell = cs.Composed.cs_cell in
  (* low + two high blocks + 4 sum muxes + carry mux *)
  Alcotest.(check int) "8 subcells" 8 (List.length (Cell.subcells cell));
  Alcotest.(check int) "io signals" (1 + 16 + 8 + 1) (List.length (Cell.signals cell))

let test_carry_select_beats_ripple_on_delay () =
  let env, gates = mk () in
  let rc = Composed.ripple_adder env gates ~bits:8 in
  let cs = Composed.carry_select_adder env gates ~bits:8 in
  let rc_carry =
    Option.get
      (Dn.delay env rc.Composed.ra_cell ~from_:rc.Composed.ra_cin
         ~to_:rc.Composed.ra_cout)
  in
  let cs_carry =
    Option.get (Dn.delay env cs.Composed.cs_cell ~from_:"cin" ~to_:"cout")
  in
  (* half the ripple chain plus one mux must beat the full chain *)
  Alcotest.(check bool)
    (Fmt.str "cs %.2f < rc %.2f" cs_carry rc_carry)
    true (cs_carry < rc_carry);
  (* and the speedup is roughly 2x minus the mux *)
  Alcotest.(check bool) "speedup plausible" true (cs_carry > rc_carry /. 2.0);
  (* area goes the other way *)
  let area cell = Option.get (Cell.area env cell) in
  Alcotest.(check bool) "cs bigger" true
    (area cs.Composed.cs_cell > area rc.Composed.ra_cell)

let test_cs_critical_path_goes_through_mux () =
  let env, gates = mk () in
  let cs = Composed.carry_select_adder env gates ~bits:8 in
  match Dn.critical_path env cs.Composed.cs_cell ~from_:"cin" ~to_:"cout" with
  | Some (path, _) ->
    let last = List.nth path (List.length path - 1) in
    Alcotest.(check string) "ends at the carry mux" "mc"
      last.Delay.Delay_path.arc_inst.inst_name
  | None -> Alcotest.fail "no critical path"

let test_structural_selection () =
  let env, gates = mk () in
  let generic, rc_w, cs_w = Composed.structural_selection_family env gates in
  (* the wrappers carry calculated characteristics *)
  let a_s c =
    Option.get (Dn.delay env c ~from_:"a" ~to_:"s")
  in
  Alcotest.(check bool) "rc wrapper slower" true (a_s rc_w > a_s cs_w);
  (* the characteristics are derived bottom-up from the gates *)
  Alcotest.(check (float 0.005)) "rc a->s" 23.73 (a_s rc_w);
  Alcotest.(check (float 0.005)) "cs a->s" 14.95 (a_s cs_w);
  Alcotest.(check (option int)) "rc area" (Some 4992) (Cell.area env rc_w);
  Alcotest.(check (option int)) "cs area" (Some 10416) (Cell.area env cs_w);
  (* ALU with a tight delay spec: only the carry-select realisation fits *)
  let sc =
    Cell_library.Datapath.alu env ~adder:generic
      ~delay_spec:(3.0 +. a_s cs_w +. 1.0)
      ~area_spec:100000
  in
  let picks =
    Sel.select env sc.Cell_library.Datapath.adder_inst
      ~priorities:[ Sel.BBox; Sel.Signals; Sel.Delays ]
      ()
  in
  Alcotest.(check (list string)) "carry-select chosen on computed delay"
    [ "GADD8.CS" ]
    (List.map (fun c -> c.cc_name) picks);
  (* tight area instead: the ripple adder wins *)
  let env2, gates2 = mk () in
  let generic2, rc_w2, _ = Composed.structural_selection_family env2 gates2 in
  let rc_area = Option.get (Cell.area env2 rc_w2) in
  let sc2 =
    Cell_library.Datapath.alu env2 ~adder:generic2 ~delay_spec:1000.0
      ~area_spec:(rc_area + 250)
  in
  let picks2 =
    Sel.select env2 sc2.Cell_library.Datapath.adder_inst
      ~priorities:[ Sel.BBox; Sel.Signals; Sel.Delays ]
      ()
  in
  Alcotest.(check (list string)) "ripple chosen on computed area" [ "GADD8.RC" ]
    (List.map (fun c -> c.cc_name) picks2)

let test_characteristic_update_reprices_selection () =
  (* least commitment in action: speed the XOR gate up, recompute the
     structural characteristics, and the selection verdict can change *)
  let env, gates = mk () in
  let rc = Composed.ripple_adder env gates ~bits:8 in
  let before =
    Option.get
      (Dn.delay env rc.Composed.ra_cell ~from_:rc.Composed.ra_cin
         ~to_:rc.Composed.ra_cout)
  in
  (* faster nand gates shorten every slice's carry arc *)
  List.iter
    (fun cd ->
      ignore
        (Constraint_kernel.Engine.set env.env_cnet cd.cd_var (Dval.Float 0.6)))
    gates.Cell_library.Gates.nand2.cc_delays;
  let after =
    Option.get
      (Dn.delay env rc.Composed.ra_cell ~from_:rc.Composed.ra_cin
         ~to_:rc.Composed.ra_cout)
  in
  Alcotest.(check bool)
    (Fmt.str "carry chain shortened: %.2f -> %.2f" before after)
    true (after < before)

let suite =
  let tc = Alcotest.test_case in
  ( "structural",
    [
      tc "carry-select structure" `Quick test_carry_select_structure;
      tc "cs beats ripple on delay" `Quick test_carry_select_beats_ripple_on_delay;
      tc "critical path through mux" `Quick test_cs_critical_path_goes_through_mux;
      tc "selection on computed characteristics" `Quick test_structural_selection;
      tc "gate update reprices design" `Quick test_characteristic_update_reprices_selection;
    ] )
