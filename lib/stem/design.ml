(* The STEM design model (Ch. 3): cell classes, cell instances, nets and
   their dual instance variables.

   A cell class encapsulates everything about a cell: interface signals,
   parameters, properties (bounding box, delays), and — for composite
   cells — the internal structure of subcell instances and nets.  A cell
   instance represents one placement of a class inside a larger design
   and holds only placement-specific data (transform, bounding box,
   parameter values, connectivity).  The dual declaration of variables in
   class and instance is what hierarchical constraint propagation (§5.1)
   hangs off. *)

open Constraint_kernel

type var = Dval.t Types.var

type cstr = Dval.t Types.cstr

type cnet = Dval.t Types.network

type violation = Dval.t Types.violation

type direction = Input | Output | Inout

type env = {
  env_id : int; (* globally unique across environments *)
  env_cnet : cnet; (* the (single) constraint network of the environment *)
  mutable env_cells : cell_class list; (* registration order, reversed *)
  mutable env_next_uid : int;
}

and cell_class = {
  cc_uid : int;
  cc_name : string;
  cc_env : env;
  cc_super : cell_class option;
  mutable cc_subclasses : cell_class list;
  cc_generic : bool; (* generic cells have no physical realisation (Ch. 8) *)
  mutable cc_doc : string;
  mutable cc_signals : signal_spec list; (* interface, declaration order *)
  mutable cc_params : param_spec list;
  mutable cc_instances : instance list; (* every placement of this class *)
  cc_bbox : prop; (* ClassBBox: property variable, lazily recomputed *)
  mutable cc_delays : class_delay list;
  cc_structure : structure;
  mutable cc_dependents : dependent list; (* calculated views (Ch. 6) *)
  mutable cc_props : (string * prop) list; (* other class properties *)
}

(* A property variable (Ch. 6): a constraint variable plus an optional
   recalculation procedure invoked implicitly when the value is read
   while erased. *)
and prop = {
  pr_var : var;
  mutable pr_recalc : (unit -> Dval.t option) option;
  mutable pr_evaluating : bool; (* guards against recalculation loops *)
}

and signal_spec = {
  ss_name : string;
  ss_dir : direction;
  ss_owner : cell_class;
  (* class-level typing variables: data/electrical types are properties
     of the class and shared by all instances (§7.1, Fig. 7.5) *)
  ss_data : var; (* Dtype *)
  ss_elec : var; (* Etype *)
  ss_width : var; (* Int *)
  mutable ss_res : float option; (* output drive resistance, kΩ *)
  mutable ss_cap : float option; (* input load capacitance, pF *)
  mutable ss_pins : Geometry.Point.t list; (* io-pin positions, class frame *)
}

and param_spec = {
  ps_name : string;
  ps_owner : cell_class;
  ps_range : var; (* class variable holding the legal range *)
  ps_default : Dval.t option;
}

and class_delay = {
  cd_owner : cell_class;
  cd_from : string; (* source io-signal name *)
  cd_to : string; (* destination io-signal name *)
  cd_var : var; (* ClassDelay: worst-case delay, Float (ns) *)
  mutable cd_spec : float option; (* "spec ns or less" bound, if declared *)
}

and instance = {
  inst_uid : int;
  inst_name : string;
  mutable inst_of : cell_class; (* mutable: module selection may realise *)
  inst_parent : cell_class; (* the composite cell containing this placement *)
  mutable inst_transform : Geometry.Transform.t;
  inst_bbox : var; (* InstanceBBox *)
  mutable inst_duals : cstr list; (* implicit constraints, for teardown *)
  mutable inst_updates : cstr list; (* update-constraints, for teardown *)
  inst_nets : (string, enet) Hashtbl.t; (* signal name -> connected net *)
  inst_widths : (string, var) Hashtbl.t; (* instance-specific bit widths *)
  inst_delays : (string, var) Hashtbl.t; (* "a->b" -> InstanceDelay *)
  inst_params : (string, var) Hashtbl.t;
}

and enet = {
  en_uid : int;
  en_name : string;
  en_parent : cell_class;
  mutable en_members : member list;
  (* net-level typing variables, inferred from connected signals (§7.1) *)
  en_data : var;
  en_elec : var;
  en_width : var;
  en_width_eq : cstr; (* equality over widths of connected signals *)
  en_data_compat : cstr; (* compatible-constraint over data types *)
  en_elec_compat : cstr; (* compatible-constraint over electrical types *)
}

and member =
  | Sub_pin of instance * string (* a signal of a subcell instance *)
  | Own_pin of string (* an io-signal of the parent cell itself *)

and structure = {
  mutable st_subcells : instance list;
  mutable st_nets : enet list;
}

and dependent = {
  (* erase cached data; [key] as in the selective [#changed:key]
     broadcast — [None] means everything changed *)
  dep_erase : key:string option -> unit;
}

let direction_name = function Input -> "input" | Output -> "output" | Inout -> "inout"

let pp_direction ppf d = Fmt.string ppf (direction_name d)

let member_equal a b =
  match (a, b) with
  | Sub_pin (i1, s1), Sub_pin (i2, s2) -> i1.inst_uid = i2.inst_uid && s1 = s2
  | Own_pin s1, Own_pin s2 -> s1 = s2
  | (Sub_pin _ | Own_pin _), _ -> false

let pp_member ppf = function
  | Sub_pin (i, s) -> Fmt.pf ppf "%s.%s" i.inst_name s
  | Own_pin s -> Fmt.pf ppf "self.%s" s

(* Signal spec lookup within a class. Raises [Not_found]. *)
let find_signal cls name =
  List.find (fun ss -> ss.ss_name = name) cls.cc_signals

let find_signal_opt cls name =
  List.find_opt (fun ss -> ss.ss_name = name) cls.cc_signals

let find_param_opt cls name =
  List.find_opt (fun ps -> ps.ps_name = name) cls.cc_params

let find_delay_opt cls ~from_ ~to_ =
  List.find_opt (fun cd -> cd.cd_from = from_ && cd.cd_to = to_) cls.cc_delays

let delay_key ~from_ ~to_ = from_ ^ "->" ^ to_

(* The bit-width variable a net connection should use for a subcell pin:
   the instance-specific one when the instance was parameterised with its
   own width, otherwise the class-level variable (§7.1). *)
let pin_width_var inst signal_name =
  match Hashtbl.find_opt inst.inst_widths signal_name with
  | Some v -> v
  | None -> (find_signal inst.inst_of signal_name).ss_width

(* Is [cls] a (non-strict) descendant of [ancestor] in the class
   hierarchy? *)
let rec is_descendant_class cls ~of_ =
  cls.cc_uid = of_.cc_uid
  ||
  match cls.cc_super with
  | None -> false
  | Some super -> is_descendant_class super ~of_

(* All classes of the subtree rooted at [cls], pre-order. *)
let rec subtree cls = cls :: List.concat_map subtree cls.cc_subclasses

let path_of_class cls = cls.cc_name

let path_of_instance inst = inst.inst_parent.cc_name ^ "/" ^ inst.inst_name
