(* Cross-reference and justification audit (shared implementation).

   Lives below both {!Engine} and {!Network} so that [Network] — the
   canonical home of the integrity/quarantine API — and the engine's
   post-restore audit hook can share it without a dependency cycle. *)

open Types

let check_integrity net =
  let issues = ref [] in
  let add fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  let cstr_ids = Hashtbl.create 64 and var_ids = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace cstr_ids c.c_id c) net.net_cstrs;
  List.iter (fun v -> Hashtbl.replace var_ids v.v_id ()) net.net_vars;
  let path v = v.v_path in
  List.iter
    (fun v ->
      List.iter
        (fun c ->
          if not (Hashtbl.mem cstr_ids c.c_id) then
            add "%s lists %s#%d, which is not registered in the network"
              (path v) c.c_kind c.c_id
          else if not (List.exists (fun a -> a.v_id = v.v_id) c.c_args) then
            add "%s is attached to %s#%d but is not among its arguments"
              (path v) c.c_kind c.c_id)
        v.v_cstrs;
      match v.v_just with
      | Propagated { source; _ } ->
        if v.v_value = None then
          add "%s carries a propagated justification but no value" (path v);
        if not (Hashtbl.mem cstr_ids source.c_id) then
          add "%s is justified by %s#%d, which was removed from the network"
            (path v) source.c_kind source.c_id
        else if not (List.exists (fun a -> a.v_id = v.v_id) source.c_args) then
          add "%s is justified by %s#%d but is not one of its arguments"
            (path v) source.c_kind source.c_id
      | Default | User | Application | Update | Tentative -> ())
    net.net_vars;
  List.iter
    (fun c ->
      List.iter
        (fun a ->
          if not (Hashtbl.mem var_ids a.v_id) then
            add "%s#%d argument %s is not registered in the network" c.c_kind
              c.c_id (path a))
        c.c_args;
      if c.c_quarantined <> None && c.c_enabled then
        add "%s#%d is quarantined yet still enabled" c.c_kind c.c_id)
    net.net_cstrs;
  List.rev !issues
