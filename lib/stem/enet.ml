open Constraint_kernel
open Design

let create env parent ~name =
  let uid = Env.fresh_uid env in
  let owner = parent.cc_name ^ "/" ^ name in
  let cnet = env.env_cnet in
  let en_data = Dclib.variable cnet ~owner ~name:"dataType" ~overwrite:Dclib.type_overwrite () in
  let en_elec = Dclib.variable cnet ~owner ~name:"electricalType" ~overwrite:Dclib.type_overwrite () in
  let en_width = Dclib.variable cnet ~owner ~name:"bitWidth" () in
  let en_width_eq, _ =
    Dclib.equality cnet ~label:(owner ^ ".bitWidth=") [ en_width ]
  in
  let en_data_compat, _ =
    Dclib.compatible_types cnet ~kind:"compatible-data" ~label:(owner ^ ".data~") [ en_data ]
  in
  let en_elec_compat, _ =
    Dclib.compatible_types cnet ~kind:"compatible-elec" ~label:(owner ^ ".elec~") [ en_elec ]
  in
  let net =
    {
      en_uid = uid;
      en_name = name;
      en_parent = parent;
      en_members = [];
      en_data;
      en_elec;
      en_width;
      en_width_eq;
      en_data_compat;
      en_elec_compat;
    }
  in
  parent.cc_structure.st_nets <- parent.cc_structure.st_nets @ [ net ];
  net

let is_member net m = List.exists (member_equal m) net.en_members

(* Resolving [Own_pin] needs the net's parent cell. *)
let member_spec_in net = function
  | Sub_pin (inst, signal) -> find_signal inst.inst_of signal
  | Own_pin signal -> find_signal net.en_parent signal

let member_vars_in net m =
  let ss = member_spec_in net m in
  let width =
    match m with
    | Sub_pin (inst, signal) -> pin_width_var inst signal
    | Own_pin _ -> ss.ss_width
  in
  (width, ss.ss_data, ss.ss_elec)

let structure_changed env net =
  Property.invalidate env net.en_parent.cc_bbox;
  View.changed ~key:"structure" net.en_parent

let connect env net m =
  if is_member net m then Ok ()
  else begin
    let width, data, elec = member_vars_in net m in
    net.en_members <- net.en_members @ [ m ];
    (match m with
    | Sub_pin (inst, signal) -> Hashtbl.replace inst.inst_nets signal net
    | Own_pin _ -> ());
    let cnet = env.env_cnet in
    let r1 = Network.add_argument cnet net.en_width_eq width in
    let r2 = Network.add_argument cnet net.en_data_compat data in
    let r3 = Network.add_argument cnet net.en_elec_compat elec in
    structure_changed env net;
    match (r1, r2, r3) with
    | Ok (), Ok (), Ok () -> Ok ()
    | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
  end

let disconnect env net m =
  if is_member net m then begin
    let width, data, elec = member_vars_in net m in
    net.en_members <- List.filter (fun m' -> not (member_equal m m')) net.en_members;
    (match m with
    | Sub_pin (inst, signal) -> Hashtbl.remove inst.inst_nets signal
    | Own_pin _ -> ());
    let cnet = env.env_cnet in
    ignore (Network.remove_argument cnet net.en_width_eq width);
    ignore (Network.remove_argument cnet net.en_data_compat data);
    ignore (Network.remove_argument cnet net.en_elec_compat elec);
    structure_changed env net
  end

(* Export the net's inferred bit width into a variable of another
   environment (a floorplanner or simulator keeping its own network in
   step with the design's): a cross-environment dual bridge from
   [en_width].  Width changes inferred here re-propagate there as child
   episodes of the inferring one. *)
let export_width env net ~to_env ~to_ =
  Dual.bridge env ~kind:"width-export"
    ~label:(net.en_parent.cc_name ^ "/" ^ net.en_name ^ ".bitWidth->"
            ^ to_.Constraint_kernel.Types.v_owner ^ "."
            ^ to_.Constraint_kernel.Types.v_name)
    ~from_:net.en_width ~to_env ~to_ ()

let loads net m =
  let ss = member_spec_in net m in
  match (m, ss.ss_dir) with
  | Sub_pin _, Input -> true
  | Own_pin _, Output -> true
  | _, Inout -> true
  | Sub_pin _, Output | Own_pin _, Input -> false

let total_load_capacitance net =
  List.fold_left
    (fun acc m ->
      if loads net m then
        match (member_spec_in net m).ss_cap with Some c -> acc +. c | None -> acc
      else acc)
    0.0 net.en_members
