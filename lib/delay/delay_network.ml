open Constraint_kernel
open Stem.Design

type built = {
  db_cstrs : cstr list;
  db_paths : (class_delay * (Delay_path.path * var) list) list;
}

(* Registries keyed by cell uid (unique within one environment), one
   pair per environment and collected with it. *)
let built_table : env -> (int, built) Hashtbl.t =
  Stem.Env.local (fun () -> Hashtbl.create 17)

let hooked : env -> (int, unit) Hashtbl.t =
  Stem.Env.local (fun () -> Hashtbl.create 17)

let is_built env cls = Hashtbl.mem (built_table env) cls.cc_uid

let instance_delay env inst cd =
  let key = delay_key ~from_:cd.cd_from ~to_:cd.cd_to in
  match Hashtbl.find_opt inst.inst_delays key with
  | Some v -> v
  | None ->
    let owner = path_of_instance inst in
    let v = Dclib.variable env.env_cnet ~owner ~name:("d:" ^ key) () in
    Hashtbl.replace inst.inst_delays key v;
    (* nominal class delay flows in with the R·C loading adjustment; the
       instance value can never undercut the nominal one *)
    let check cv iv =
      match (Dval.number cv, Dval.number iv) with
      | Some c, Some i -> i >= c -. 1e-9
      | _ -> false
    in
    let dual =
      Stem.Dual.link_property env ~kind:"implicit-delay"
        ~label:(owner ^ ".d:" ^ key)
        ~class_var:cd.cd_var ~inst_var:v
        ~adjust:(fun cv -> Rc_model.adjust env inst cd cv)
        ~check ()
    in
    inst.inst_duals <- dual :: inst.inst_duals;
    v

let teardown env cls =
  match Hashtbl.find_opt (built_table env) cls.cc_uid with
  | None -> ()
  | Some b ->
    List.iter (Network.remove_constraint env.env_cnet) b.db_cstrs;
    Hashtbl.remove (built_table env) cls.cc_uid

let install_hook env cls =
  if not (Hashtbl.mem (hooked env) cls.cc_uid) then begin
    Hashtbl.add (hooked env) cls.cc_uid ();
    let erase ~key =
      match key with
      | None | Some "structure" -> teardown env cls
      | Some _ -> ()
    in
    let _unregister = Stem.View.add_dependent cls ~erase in
    ()
  end

let build env cls =
  let cstrs = ref [] in
  let with_paths =
    List.filter_map
      (fun cd ->
        (* a designer estimate stays authoritative until removed (§7.3) *)
        if Var.is_user_set cd.cd_var then None
        else
          let paths = Delay_path.enumerate cls ~from_:cd.cd_from ~to_:cd.cd_to in
          if paths = [] then None
          else begin
            let key = delay_key ~from_:cd.cd_from ~to_:cd.cd_to in
            let mk_path i path =
              let path_var =
                Dclib.variable env.env_cnet ~owner:cls.cc_name
                  ~name:(Printf.sprintf "path%d:%s" i key)
                  ()
              in
              let arcs =
                List.map
                  (fun { Delay_path.arc_inst; arc_delay } ->
                    instance_delay env arc_inst arc_delay)
                  path
              in
              let c, _ =
                Dclib.uni_addition env.env_cnet ~result:path_var
                  ~label:(Printf.sprintf "%s.path%d:%s=+" cls.cc_name i key)
                  arcs
              in
              cstrs := c :: !cstrs;
              (path, path_var)
            in
            let path_vars = List.mapi mk_path paths in
            let c, _ =
              Dclib.uni_maximum env.env_cnet ~result:cd.cd_var
                ~label:(Printf.sprintf "%s.%s=max" cls.cc_name key)
                (List.map snd path_vars)
            in
            cstrs := c :: !cstrs;
            Some (cd, path_vars)
          end)
      cls.cc_delays
  in
  install_hook env cls;
  Hashtbl.replace (built_table env) cls.cc_uid
    { db_cstrs = !cstrs; db_paths = with_paths };
  List.fold_left (fun acc (_, ps) -> acc + List.length ps) 0 with_paths

let ensure env cls =
  match Hashtbl.find_opt (built_table env) cls.cc_uid with
  | Some b -> List.fold_left (fun acc (_, ps) -> acc + List.length ps) 0 b.db_paths
  | None -> build env cls

(* Pull delay characteristics bottom-up through the hierarchy: ensure
   the networks of every subcell class first, so leaf characteristics
   propagate upward as each level's network attaches. *)
let rec pull env cls seen =
  if List.mem cls.cc_uid seen then ()
  else begin
    let seen = cls.cc_uid :: seen in
    List.iter
      (fun inst -> pull env inst.inst_of seen)
      cls.cc_structure.st_subcells;
    ignore (ensure env cls)
  end

let delay env cls ~from_ ~to_ =
  match find_delay_opt cls ~from_ ~to_ with
  | None -> None
  | Some cd -> (
    pull env cls [];
    match Var.value cd.cd_var with
    | Some v -> Dval.number v
    | None -> None)

let critical_path env cls ~from_ ~to_ =
  match delay env cls ~from_ ~to_ with
  | None -> None
  | Some _ -> (
    match Hashtbl.find_opt (built_table env) cls.cc_uid with
    | None -> None
    | Some b -> (
      match find_delay_opt cls ~from_ ~to_ with
      | None -> None
      | Some cd -> (
        match List.assq_opt cd b.db_paths with
        | None -> None
        | Some path_vars ->
          let valued =
            List.filter_map
              (fun (path, v) ->
                match Var.value v with
                | Some dv -> Option.map (fun f -> (path, f)) (Dval.number dv)
                | None -> None)
              path_vars
          in
          List.fold_left
            (fun acc (path, d) ->
              match acc with
              | Some (_, best) when best >= d -> acc
              | _ -> Some (path, d))
            None valued)))
