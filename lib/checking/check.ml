open Constraint_kernel
open Stem.Design

let batch_check env =
  let all =
    List.filter
      (fun c -> Cstr.is_enabled c)
      (List.rev env.env_cnet.Types.net_cstrs)
  in
  let bad = List.filter (fun c -> not (Cstr.is_satisfied c)) all in
  (List.length all, bad)

let cell_vars cls =
  let signal_vars ss = [ ss.ss_data; ss.ss_elec; ss.ss_width ] in
  let param_vars ps = [ ps.ps_range ] in
  let delay_vars cd = [ cd.cd_var ] in
  (Stem.Property.var cls.cc_bbox
   :: List.concat_map signal_vars cls.cc_signals)
  @ List.concat_map param_vars cls.cc_params
  @ List.concat_map delay_vars cls.cc_delays
  @ List.map (fun (_, p) -> Stem.Property.var p) cls.cc_props
  @ List.concat_map
      (fun inst ->
        inst.inst_bbox
        :: (Hashtbl.fold (fun _ v acc -> v :: acc) inst.inst_delays []
           @ Hashtbl.fold (fun _ v acc -> v :: acc) inst.inst_params []
           @ Hashtbl.fold (fun _ v acc -> v :: acc) inst.inst_widths []))
      cls.cc_structure.st_subcells
  @ List.concat_map
      (fun net -> [ net.en_data; net.en_elec; net.en_width ])
      cls.cc_structure.st_nets

let cell_constraints cls =
  let seen = Hashtbl.create 32 in
  List.concat_map
    (fun v ->
      List.filter
        (fun c ->
          let id = Cstr.id c in
          if Hashtbl.mem seen id then false
          else begin
            Hashtbl.add seen id ();
            true
          end)
        (Var.constraints v))
    (cell_vars cls)

let check_cell _env cls =
  List.filter
    (fun c -> Cstr.is_enabled c && not (Cstr.is_satisfied c))
    (cell_constraints cls)

let report env cls =
  match check_cell env cls with
  | [] -> Printf.sprintf "%s: all constraints satisfied" cls.cc_name
  | bad ->
    Fmt.str "@[<v2>%s: %d violated constraint(s)@,%a@]" cls.cc_name
      (List.length bad)
      (Fmt.list ~sep:Fmt.cut (fun ppf c -> Fmt.pf ppf "- %a" Cstr.pp c))
      bad
