(* The build_check workload: no server.  Each operation builds a seeded
   design in a fresh environment and checks it — construction, one-shot
   propagation, delay networks, batch checking and module selection. *)

open Constraint_kernel
module Dn = Delay.Delay_network
module Sel = Selection.Select
module Lib = Cell_library

type tight = Area | Delay

type cfg = { rbits : int; csbits : int; acc_spec : float; tight : tight }

let configs =
  List.concat_map
    (fun rbits ->
      List.concat_map
        (fun csbits ->
          List.concat_map
            (fun acc_spec ->
              List.map
                (fun tight -> { rbits; csbits; acc_spec; tight })
                [ Area; Delay ])
            [ 160.0; 180.0 ])
        [ 8; 16 ])
    [ 8; 12; 16 ]

(* [n] designs: every configuration equally often (rounded up to whole
   rounds), in seeded order. *)
let stream ~seed n =
  let rng = Random.State.make [| seed; 0xb11d |] in
  let round = Array.of_list configs in
  let rounds = (n + Array.length round - 1) / Array.length round in
  let all = Array.concat (List.init rounds (fun _ -> Array.copy round)) in
  Gen.shuffle rng all;
  Array.sub all 0 n

(* Per-layer seconds and counts of one design. *)
type layers = {
  mutable build : float;
  mutable delay : float;
  mutable check : float;
  mutable select : float;
  mutable examined : int;
  mutable cstrs : int;
  mutable wakeups : int;
  sel : Sel.stats;
}

let layers () =
  {
    build = 0.0;
    delay = 0.0;
    check = 0.0;
    select = 0.0;
    examined = 0;
    cstrs = 0;
    wakeups = 0;
    sel = Sel.fresh_stats ();
  }

(* Build and check one design; [Error why] when an output is wrong.
   [on_env] sees the fresh environment before anything is built. *)
let design ?(on_env = fun _ -> ()) cfg l =
  let t0 = Report.now () in
  let env = Stem.Env.create () in
  on_env env;
  let gates = Lib.Gates.make env in
  let ra = Lib.Composed.ripple_adder env gates ~bits:cfg.rbits in
  let cs = Lib.Composed.carry_select_adder env gates ~bits:cfg.csbits in
  let acc = Lib.Datapath.accumulator ~spec:cfg.acc_spec env in
  let fam = Lib.Adders.fig_8_1 env in
  let delay_spec, area_spec =
    match cfg.tight with Area -> (11.0, 300) | Delay -> (8.0, 420)
  in
  let alu = Lib.Datapath.alu env ~adder:fam.Lib.Adders.add8 ~delay_spec ~area_spec in
  let t1 = Report.now () in
  let d_ra =
    Dn.delay env ra.Lib.Composed.ra_cell ~from_:ra.Lib.Composed.ra_cin
      ~to_:ra.Lib.Composed.ra_cout
  in
  let d_cs = Dn.delay env cs.Lib.Composed.cs_cell ~from_:"cin" ~to_:"cout" in
  let d_acc = Dn.delay env acc.Lib.Datapath.acc ~from_:"in" ~to_:"out" in
  let t2 = Report.now () in
  let examined, bad = Checking.Check.batch_check env in
  let t3 = Report.now () in
  let picks =
    Sel.select env alu.Lib.Datapath.adder_inst
      ~priorities:[ Sel.BBox; Sel.Signals; Sel.Delays ]
      ~stats:l.sel ()
  in
  let t4 = Report.now () in
  l.build <- t1 -. t0;
  l.delay <- t2 -. t1;
  l.check <- t3 -. t2;
  l.select <- t4 -. t3;
  l.examined <- examined;
  l.cstrs <- List.length (Stem.Env.cnet env).Types.net_cstrs;
  l.wakeups <- (Engine.stats (Stem.Env.cnet env)).Types.st_wakeups;
  let want =
    match cfg.tight with
    | Area -> fam.Lib.Adders.add8_rc
    | Delay -> fam.Lib.Adders.add8_cs
  in
  let acc_ok =
    match (cfg.acc_spec, d_acc) with
    | 160.0, None -> true
    | 180.0, Some d -> Float.abs (d -. 170.0) < 1e-6
    | _ -> false
  in
  let positive = function Some d -> d > 0.0 | None -> false in
  if not (positive d_ra && positive d_cs) then Error "adder delay missing"
  else if not acc_ok then
    Error
      (Printf.sprintf "accumulator under a %g ns spec: %s" cfg.acc_spec
         (match d_acc with Some d -> Printf.sprintf "%g ns" d | None -> "violated"))
  else if bad <> [] then
    Error (Printf.sprintf "batch check: %d unsatisfied" (List.length bad))
  else if
    List.map (fun c -> c.Stem.Design.cc_name) picks
    <> [ want.Stem.Design.cc_name ]
  then
    Error
      (Printf.sprintf "selection picked [%s], want %s"
         (String.concat "; " (List.map (fun c -> c.Stem.Design.cc_name) picks))
         want.Stem.Design.cc_name)
  else Ok ()
