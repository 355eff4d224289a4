open Constraint_kernel
open Design
module Rect = Geometry.Rect
module Transform = Geometry.Transform

(* ------------------------------------------------------------------ *)
(* Class creation                                                      *)
(* ------------------------------------------------------------------ *)

(* calculateBoundingBox (§7.2): the union of the placed bounding boxes
   of all subcells.  Leaf cells have no structure, so their bounding box
   is designer-entered only. *)
let rec bbox_recalc env cls () =
  match cls.cc_structure.st_subcells with
  | [] -> None
  | subcells ->
    let placed inst =
      match Var.value inst.inst_bbox with
      | Some (Dval.Rect r) -> Some r
      | Some _ | None -> (
        match bounding_box env inst.inst_of with
        | Some r -> Some (Transform.apply_rect inst.inst_transform r)
        | None -> None)
    in
    let rects = List.filter_map placed subcells in
    if rects = [] || List.length rects < List.length subcells then None
    else Some (Dval.Rect (Rect.union_all rects))

and bounding_box env cls =
  match Property.read env cls.cc_bbox with
  | Some (Dval.Rect r) -> Some r
  | Some _ | None -> None

(* Inherited interface values are declared characteristics of the new
   class, so they carry the same authority as designer entry. *)
let copy_value ~from_ ~to_ env =
  match Var.value from_ with
  | Some v -> Engine.poke env.env_cnet to_ v ~just:Types.User
  | None -> ()

let rec create env ~name ?super ?(generic = false) ?(doc = "") () =
  let uid = Env.fresh_uid env in
  let cc_bbox = Property.make env ~owner:name ~name:"boundingBox" () in
  let cls =
    {
      cc_uid = uid;
      cc_name = name;
      cc_env = env;
      cc_super = super;
      cc_subclasses = [];
      cc_generic = generic;
      cc_doc = doc;
      cc_signals = [];
      cc_params = [];
      cc_instances = [];
      cc_bbox;
      cc_delays = [];
      cc_structure = { st_subcells = []; st_nets = [] };
      cc_dependents = [];
      cc_props = [];
    }
  in
  Property.set_recalc cc_bbox (bbox_recalc env cls);
  Env.register_cell env cls;
  (match super with
  | None -> ()
  | Some s ->
    s.cc_subclasses <- s.cc_subclasses @ [ cls ];
    inherit_interface env ~from_:s ~to_:cls);
  cls

(* Subclasses inherit the superclass interface: same signals (copied
   typing values, refinable), parameters and delay declarations
   (§3.3.2).  Instance variables of classes — not class variables — so
   each subclass owns fresh variables that may diverge. *)
and inherit_interface env ~from_ ~to_ =
  List.iter
    (fun ss ->
      let copy = raw_add_signal env to_ ~name:ss.ss_name ~dir:ss.ss_dir in
      copy.ss_res <- ss.ss_res;
      copy.ss_cap <- ss.ss_cap;
      copy.ss_pins <- ss.ss_pins;
      copy_value env ~from_:ss.ss_data ~to_:copy.ss_data;
      copy_value env ~from_:ss.ss_elec ~to_:copy.ss_elec;
      copy_value env ~from_:ss.ss_width ~to_:copy.ss_width)
    from_.cc_signals;
  List.iter
    (fun ps ->
      ignore
        (raw_add_param env to_ ~name:ps.ps_name
           ?range:(Var.value ps.ps_range)
           ?default:ps.ps_default ()))
    from_.cc_params;
  List.iter
    (fun cd -> ignore (raw_declare_delay env to_ ~from_:cd.cd_from ~to_:cd.cd_to))
    from_.cc_delays

and raw_add_signal env cls ~name ~dir =
  let owner = cls.cc_name ^ "." ^ name in
  let cnet = env.env_cnet in
  let ss =
    {
      ss_name = name;
      ss_dir = dir;
      ss_owner = cls;
      ss_data = Dclib.variable cnet ~owner ~name:"dataType" ~overwrite:Dclib.type_overwrite ();
      ss_elec = Dclib.variable cnet ~owner ~name:"electricalType" ~overwrite:Dclib.type_overwrite ();
      ss_width = Dclib.variable cnet ~owner ~name:"bitWidth" ();
      ss_res = None;
      ss_cap = None;
      ss_pins = [];
    }
  in
  cls.cc_signals <- cls.cc_signals @ [ ss ];
  ss

and raw_add_param env cls ~name ?range ?default () =
  let owner = cls.cc_name ^ "." ^ name in
  let ps_range = Dclib.variable env.env_cnet ~owner ~name:"range" ?value:range () in
  let ps = { ps_name = name; ps_owner = cls; ps_range; ps_default = default } in
  cls.cc_params <- cls.cc_params @ [ ps ];
  ps

and raw_declare_delay env cls ~from_ ~to_ =
  let owner = cls.cc_name ^ "." ^ delay_key ~from_ ~to_ in
  let cd_var = Dclib.variable env.env_cnet ~owner ~name:"delay" () in
  let cd = { cd_owner = cls; cd_from = from_; cd_to = to_; cd_var; cd_spec = None } in
  cls.cc_delays <- cls.cc_delays @ [ cd ];
  cd

(* ------------------------------------------------------------------ *)
(* Interface declaration                                               *)
(* ------------------------------------------------------------------ *)

let add_signal env cls ~name ~dir ?data ?elec ?width ?res ?cap ?pins () =
  let ss = raw_add_signal env cls ~name ~dir in
  (* declared interface characteristics are designer-entered (#USER):
     they constrain every use of the cell (Fig. 7.1) *)
  let poke var v = Engine.poke env.env_cnet var v ~just:Types.User in
  Option.iter (fun n -> poke ss.ss_data (Dval.Dtype n)) data;
  Option.iter (fun n -> poke ss.ss_elec (Dval.Etype n)) elec;
  Option.iter (fun w -> poke ss.ss_width (Dval.Int w)) width;
  ss.ss_res <- res;
  ss.ss_cap <- cap;
  Option.iter (fun ps -> ss.ss_pins <- ps) pins;
  ss

let add_param env cls ~name ~range ?default () =
  raw_add_param env cls ~name ~range ?default ()

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let class_bbox_var cls = Property.var cls.cc_bbox

let set_class_bbox env cls r =
  Engine.set env.env_cnet (class_bbox_var cls) (Dval.Rect r)

let bounding_box = bounding_box

let area env cls = Option.map Rect.area (bounding_box env cls)

let add_property env cls ~name ?recalc () =
  let p = Property.make env ~owner:cls.cc_name ~name ?recalc () in
  cls.cc_props <- cls.cc_props @ [ (name, p) ];
  p

let find_property cls name = List.assoc_opt name cls.cc_props

(* ------------------------------------------------------------------ *)
(* Delays                                                              *)
(* ------------------------------------------------------------------ *)

let declare_delay env cls ~from_ ~to_ ?estimate ?spec () =
  (match (find_signal_opt cls from_, find_signal_opt cls to_) with
  | Some _, Some _ -> ()
  | None, _ ->
    invalid_arg (Printf.sprintf "declare_delay: no signal %s in %s" from_ cls.cc_name)
  | _, None ->
    invalid_arg (Printf.sprintf "declare_delay: no signal %s in %s" to_ cls.cc_name));
  (* re-declaring (e.g. after inheriting the declaration from a
     superclass) refines the existing delay variable *)
  let cd =
    match find_delay_opt cls ~from_ ~to_ with
    | Some cd -> cd
    | None -> raw_declare_delay env cls ~from_ ~to_
  in
  (match spec with
  | Some bound ->
    cd.cd_spec <- Some bound;
    ignore
      (Dclib.less_equal_const env.env_cnet cd.cd_var (Dval.Float bound)
         ~label:(Printf.sprintf "%s.%s<=%gns" cls.cc_name (delay_key ~from_ ~to_) bound))
  | None -> ());
  (match estimate with
  | Some e -> ignore (Engine.set env.env_cnet cd.cd_var (Dval.Float e))
  | None -> ());
  cd

let clear_delay_estimate env cd = ignore (Engine.reset env.env_cnet cd.cd_var)

(* ------------------------------------------------------------------ *)
(* Structure                                                           *)
(* ------------------------------------------------------------------ *)

(* Implicit constraints linking the instance's dual variables to its
   class's variables (§5.1.1): the bounding-box default/containment link
   (Fig. 7.7) and the parameter-range links. *)
let build_duals env inst =
  let of_ = inst.inst_of in
  let owner = path_of_instance inst in
  let adjust cv =
    match cv with
    | Dval.Rect r -> Some (Dval.Rect (Transform.apply_rect inst.inst_transform r))
    | _ -> None
  in
  let check cv iv =
    match (cv, iv) with
    | Dval.Rect class_r, Dval.Rect inst_r ->
      Rect.can_contain inst_r (Transform.apply_rect inst.inst_transform class_r)
    | _ -> false
  in
  let bbox_dual =
    Dual.link_property env ~kind:"implicit-bbox"
      ~label:(owner ^ ".bbox~" ^ of_.cc_name)
      ~class_var:(class_bbox_var of_) ~inst_var:inst.inst_bbox ~adjust ~check ()
  in
  inst.inst_duals <- bbox_dual :: inst.inst_duals;
  List.iter
    (fun ps ->
      let value_var =
        match Hashtbl.find_opt inst.inst_params ps.ps_name with
        | Some v -> v
        | None ->
          let v =
            Dclib.variable env.env_cnet ~owner ~name:("param:" ^ ps.ps_name) ()
          in
          Hashtbl.replace inst.inst_params ps.ps_name v;
          v
      in
      let link =
        Dual.link_parameter env ~range_var:ps.ps_range ~value_var
          ?default:ps.ps_default ()
      in
      inst.inst_duals <- link :: inst.inst_duals)
    of_.cc_params

let instantiate env ~parent ~of_ ~name ?(transform = Transform.identity) () =
  let uid = Env.fresh_uid env in
  let owner = parent.cc_name ^ "/" ^ name in
  let inst =
    {
      inst_uid = uid;
      inst_name = name;
      inst_of = of_;
      inst_parent = parent;
      inst_transform = transform;
      inst_bbox = Dclib.variable env.env_cnet ~owner ~name:"boundingBox" ();
      inst_duals = [];
      inst_updates = [];
      inst_nets = Hashtbl.create 7;
      inst_widths = Hashtbl.create 7;
      inst_delays = Hashtbl.create 7;
      inst_params = Hashtbl.create 7;
    }
  in
  build_duals env inst;
  (* a subcell bounding-box change invalidates the parent's bounding box
     (Fig. 7.8) — declarative update-constraint *)
  let upd, _ =
    Clib.update env.env_cnet ~label:(owner ^ ".bbox->parent")
      ~sources:[ inst.inst_bbox ]
      ~targets:[ class_bbox_var parent ]
  in
  inst.inst_updates <- [ upd ];
  of_.cc_instances <- of_.cc_instances @ [ inst ];
  parent.cc_structure.st_subcells <- parent.cc_structure.st_subcells @ [ inst ];
  Property.invalidate env parent.cc_bbox;
  View.changed ~key:"structure" parent;
  inst

(* Replace the class an instance realises (module selection, §8.1):
   detach every net connection and implicit constraint of the old class,
   swap, rebuild duals and reconnect so the candidate's class variables
   join the nets' typing constraints. *)
let rebind env inst ~to_ =
  let old = inst.inst_of in
  (* the candidate must present the same interface *)
  List.iter
    (fun ss ->
      if find_signal_opt to_ ss.ss_name = None then
        invalid_arg
          (Printf.sprintf "rebind: %s lacks signal %s" to_.cc_name ss.ss_name))
    old.cc_signals;
  let conns = Hashtbl.fold (fun s n acc -> (s, n) :: acc) inst.inst_nets [] in
  List.iter (fun (s, n) -> Enet.disconnect env n (Sub_pin (inst, s))) conns;
  List.iter (Network.remove_constraint env.env_cnet) inst.inst_duals;
  inst.inst_duals <- [];
  Hashtbl.reset inst.inst_delays;
  Hashtbl.reset inst.inst_params;
  ignore (Engine.reset env.env_cnet inst.inst_bbox);
  old.cc_instances <-
    List.filter (fun i -> i.inst_uid <> inst.inst_uid) old.cc_instances;
  inst.inst_of <- to_;
  to_.cc_instances <- to_.cc_instances @ [ inst ];
  build_duals env inst;
  let results = List.map (fun (s, n) -> Enet.connect env n (Sub_pin (inst, s))) conns in
  Property.invalidate env inst.inst_parent.cc_bbox;
  View.changed ~key:"structure" inst.inst_parent;
  List.fold_left
    (fun acc r -> match (acc, r) with Ok (), r -> r | (Error _ as e), _ -> e)
    (Ok ()) results

let add_net env cls ~name = Enet.create env cls ~name

let remove_subcell env inst =
  let parent = inst.inst_parent in
  (* disconnect every connected pin *)
  let connections = Hashtbl.fold (fun signal net acc -> (signal, net) :: acc) inst.inst_nets [] in
  List.iter (fun (signal, net) -> Enet.disconnect env net (Sub_pin (inst, signal))) connections;
  List.iter (Network.remove_constraint env.env_cnet) inst.inst_duals;
  List.iter (Network.remove_constraint env.env_cnet) inst.inst_updates;
  inst.inst_duals <- [];
  inst.inst_updates <- [];
  inst.inst_of.cc_instances <-
    List.filter (fun i -> i.inst_uid <> inst.inst_uid) inst.inst_of.cc_instances;
  parent.cc_structure.st_subcells <-
    List.filter (fun i -> i.inst_uid <> inst.inst_uid) parent.cc_structure.st_subcells;
  Property.invalidate env parent.cc_bbox;
  View.changed ~key:"structure" parent

(* ------------------------------------------------------------------ *)
(* Instances                                                           *)
(* ------------------------------------------------------------------ *)

let set_instance_transform env inst transform =
  inst.inst_transform <- transform;
  (* the old placement default no longer applies *)
  ignore (Engine.reset env.env_cnet inst.inst_bbox);
  (match bounding_box env inst.inst_of with
  | Some r ->
    ignore
      (Engine.set ~just:Types.Application env.env_cnet inst.inst_bbox
         (Dval.Rect (Transform.apply_rect transform r)))
  | None -> ());
  Property.invalidate env inst.inst_parent.cc_bbox;
  View.changed ~key:"structure" inst.inst_parent

let set_instance_bbox env inst r =
  Engine.set env.env_cnet inst.inst_bbox (Dval.Rect r)

let instance_bbox env inst =
  match Var.value inst.inst_bbox with
  | Some (Dval.Rect r) -> Some r
  | Some _ -> None
  | None -> (
    match bounding_box env inst.inst_of with
    | Some r -> Some (Transform.apply_rect inst.inst_transform r)
    | None -> None)

let set_param env inst name v =
  match Hashtbl.find_opt inst.inst_params name with
  | Some var -> Engine.set env.env_cnet var v
  | None -> invalid_arg (Printf.sprintf "set_param: no parameter %s" name)

let param_value inst name =
  match Hashtbl.find_opt inst.inst_params name with
  | Some var -> Var.value var
  | None -> None

let own_width env inst ~signal ?width () =
  match Hashtbl.find_opt inst.inst_widths signal with
  | Some v -> v
  | None ->
    let owner = path_of_instance inst ^ "." ^ signal in
    let v = Dclib.variable env.env_cnet ~owner ~name:"bitWidth" () in
    Hashtbl.replace inst.inst_widths signal v;
    (match width with
    | Some w -> ignore (Engine.set env.env_cnet v (Dval.Int w))
    | None -> ());
    v

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let signals cls = cls.cc_signals

let subcells cls = cls.cc_structure.st_subcells

let nets cls = cls.cc_structure.st_nets

let instances cls = cls.cc_instances

let subclasses cls = cls.cc_subclasses

let is_generic cls = cls.cc_generic

let concrete_descendants cls =
  List.filter (fun c -> not c.cc_generic) (subtree cls)
