open Constraint_kernel
open Stem.Design
module Rect = Geometry.Rect
module Transform = Geometry.Transform

type priority = BBox | Signals | Delays

type stats = {
  mutable candidates_tested : int;
  mutable generics_tested : int;
  mutable subtrees_pruned : int;
  mutable bbox_tests : int;
  mutable signal_tests : int;
  mutable delay_tests : int;
}

let fresh_stats () =
  {
    candidates_tested = 0;
    generics_tested = 0;
    subtrees_pruned = 0;
    bbox_tests = 0;
    signal_tests = 0;
    delay_tests = 0;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "candidates=%d generics=%d pruned=%d tests(bbox=%d signals=%d delays=%d)"
    s.candidates_tested s.generics_tested s.subtrees_pruned s.bbox_tests
    s.signal_tests s.delay_tests

(* validBBoxFor: (Fig. 8.2).  A designer-pinned instance box is binding
   (the candidate must fit inside it); any other instance box — unset or
   merely defaulted from the generic's ideal — is tested by tentative
   propagation, so that area constraints declared in the context
   participate in the verdict. *)
let valid_bbox env cand inst stats =
  stats.bbox_tests <- stats.bbox_tests + 1;
  match Stem.Cell.bounding_box env cand with
  | None -> true (* no information, cannot reject *)
  | Some class_box -> (
    let placed = Transform.apply_rect inst.inst_transform class_box in
    match (Var.value inst.inst_bbox, Var.is_user_set inst.inst_bbox) with
    | Some (Dval.Rect inst_box), true -> Rect.can_contain inst_box placed
    | Some _, true -> false
    | _, false -> Engine.can_be_set_to env.env_cnet inst.inst_bbox (Dval.Rect placed)
    | None, true -> Engine.can_be_set_to env.env_cnet inst.inst_bbox (Dval.Rect placed))

(* validSignalsFor: — data/electrical compatibility against the nets the
   instance participates in, plus tentative width assignment. *)
let valid_signals env cand inst stats =
  stats.signal_tests <- stats.signal_tests + 1;
  let signal_ok ss =
    match Hashtbl.find_opt inst.inst_nets ss.ss_name with
    | None -> true
    | Some net ->
      let type_ok sig_var net_var =
        match (Var.value sig_var, Var.value net_var) with
        | Some a, Some b -> Dval.compatible a b
        | None, _ | _, None -> true
      in
      type_ok ss.ss_data net.en_data
      && type_ok ss.ss_elec net.en_elec
      &&
      (match Var.value ss.ss_width with
      | Some w -> Engine.can_be_set_to env.env_cnet net.en_width w
      | None -> true)
  in
  List.for_all signal_ok cand.cc_signals

let split_delay_key key =
  match String.index_opt key '-' with
  | Some i when i + 1 < String.length key && key.[i + 1] = '>' ->
    Some (String.sub key 0 i, String.sub key (i + 2) (String.length key - i - 2))
  | _ -> None

(* validDelaysFor: — for each instance delay variable, the candidate's
   R·C-adjusted delay must be tentatively assignable. *)
let valid_delays env cand inst stats =
  stats.delay_tests <- stats.delay_tests + 1;
  let delay_ok key ivar acc =
    acc
    &&
    match split_delay_key key with
    | None -> true
    | Some (from_, to_) -> (
      match Delay.Delay_network.delay env cand ~from_ ~to_ with
      | None -> true (* candidate delay unknown: cannot reject *)
      | Some nominal ->
        let rc =
          match Hashtbl.find_opt inst.inst_nets to_ with
          | None -> 0.0
          | Some net -> (
            match find_signal_opt cand to_ with
            | Some ss -> (
              match ss.ss_res with
              | Some r -> r *. Stem.Enet.total_load_capacitance net
              | None -> 0.0)
            | None -> 0.0)
        in
        Engine.can_be_set_to env.env_cnet ivar (Dval.Float (nominal +. rc)))
  in
  Hashtbl.fold delay_ok inst.inst_delays true

let is_valid_realization env cand ~for_:inst ~priorities ?(stats = fresh_stats ())
    () =
  let test = function
    | BBox -> valid_bbox env cand inst stats
    | Signals -> valid_signals env cand inst stats
    | Delays -> valid_delays env cand inst stats
  in
  List.for_all test priorities

(* Make sure the containing cell's delay networks (and hence the
   instance delay variables the Delays test probes) exist and carry
   values pulled up from the rest of the design. *)
let prepare env inst priorities =
  if List.mem Delays priorities then
    List.iter
      (fun cd ->
        ignore
          (Delay.Delay_network.delay env inst.inst_parent ~from_:cd.cd_from
             ~to_:cd.cd_to))
      inst.inst_parent.cc_delays

let select env inst ~priorities ?(prune = true) ?(stats = fresh_stats ()) () =
  prepare env inst priorities;
  let rec search cand =
    if cand.cc_generic then begin
      let enter =
        if prune then begin
          (* prune: a generic class carries the ideal characteristics of
             its descendants; failing here rules the whole subtree out *)
          stats.generics_tested <- stats.generics_tested + 1;
          is_valid_realization env cand ~for_:inst ~priorities ~stats ()
        end
        else true
      in
      if enter then List.concat_map search cand.cc_subclasses
      else begin
        stats.subtrees_pruned <- stats.subtrees_pruned + 1;
        []
      end
    end
    else begin
      stats.candidates_tested <- stats.candidates_tested + 1;
      if is_valid_realization env cand ~for_:inst ~priorities ~stats () then [ cand ]
      else []
    end
  in
  let root = inst.inst_of in
  if not root.cc_generic then [ root ]
  else List.concat_map search root.cc_subclasses

let realize env inst cand = Stem.Cell.rebind env inst ~to_:cand
