open Types

let default_overwrite v ~proposed:_ =
  match v.v_just with
  | User -> Reject "user-specified value cannot be overwritten by propagation"
  | Tentative -> Reject "tentative value asserted during validation"
  | Default | Application | Update | Propagated _ -> Accept

let create net ~owner ~name ~equal ~pp ?(overwrite = default_overwrite) ?value () =
  let v =
    {
      v_id = net.net_next_var_id;
      v_owner = owner;
      v_name = name;
      v_path = owner ^ "." ^ name;
      v_equal = equal;
      v_pp = pp;
      v_value = value;
      v_just = Default;
      v_cstrs = [];
      v_watchers = [];
      v_overwrite = overwrite;
      v_implicit = (fun _ -> []);
      v_on_change = (fun _ -> ());
      v_stamp = 0;
      v_changes = 0;
    }
  in
  net.net_next_var_id <- net.net_next_var_id + 1;
  net.net_vars <- v :: net.net_vars;
  Hashtbl.replace net.net_paths v.v_path v;
  v

let id v = v.v_id

let name v = v.v_name

let owner v = v.v_owner

let path v = v.v_path

let value v = v.v_value

let value_exn v =
  match v.v_value with
  | Some x -> x
  | None -> invalid_arg (Printf.sprintf "Var.value_exn: %s is unset" (path v))

let justification v = v.v_just

let constraints v = v.v_cstrs

let is_dependent v = match v.v_just with Propagated _ -> true | _ -> false

let is_user_set v = match v.v_just with User -> true | _ -> false

let equal a b = a.v_id = b.v_id

let poke v x ~just =
  v.v_value <- Some x;
  v.v_just <- just;
  v.v_on_change v

let clear v =
  v.v_value <- None;
  v.v_just <- Default;
  v.v_on_change v

let set_on_change v f = v.v_on_change <- f

let set_implicit v f = v.v_implicit <- f

let set_overwrite v f = v.v_overwrite <- f

let attach v c =
  if not (List.exists (fun c' -> c'.c_id = c.c_id) v.v_cstrs) then
    v.v_cstrs <- v.v_cstrs @ [ c ]

let detach v c =
  v.v_cstrs <- List.filter (fun c' -> c'.c_id <> c.c_id) v.v_cstrs;
  v.v_watchers <- List.filter (fun c' -> c'.c_id <> c.c_id) v.v_watchers

let watchers v = v.v_watchers

let all_constraints v = v.v_cstrs @ v.v_implicit v

let pp ppf v = Fmt.string ppf (path v)

let pp_full ppf v =
  Fmt.pf ppf "%s = %a (%a)" (path v)
    (Fmt.option ~none:(Fmt.any "NIL") v.v_pp)
    v.v_value
    (pp_justification v.v_pp)
    v.v_just
