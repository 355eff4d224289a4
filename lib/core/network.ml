open Types

let ( let* ) = Result.bind

(* Argument variables assert their values through the edited constraint
   in order of precedence: user-specified, then constraint-dependent,
   then other independents (Fig. 4.13). *)
let precedence_order args =
  let user, rest =
    List.partition (fun v -> match v.v_just with User -> true | _ -> false) args
  in
  let dependent, other =
    List.partition
      (fun v -> match v.v_just with Propagated _ -> true | _ -> false)
      rest
  in
  user @ dependent @ other

let reinitialize net c =
  if not net.net_enabled then Ok ()
  else
    Engine.run_episode ~label:"reinit" net (fun ctx ->
        let rec go = function
          | [] -> Ok ()
          | v :: rest ->
            if Engine.visited ctx v then go rest
            else
              let* () = Engine.propagate_along ctx v c in
              go rest
        in
        go (precedence_order c.c_args))

let add_constraint net c =
  List.iter (fun v -> Var.attach v c) c.c_args;
  Cstr.rewatch c;
  reinitialize net c

let add_argument net c v =
  if not (List.exists (Var.equal v) c.c_args) then c.c_args <- c.c_args @ [ v ];
  Var.attach v c;
  Cstr.rewatch c;
  reinitialize net c

let erase_vars vars =
  List.iter Var.clear vars

let remove_argument net c v =
  (* Fig. 4.14: if v's value came from c, reset v and all its
     consequences; otherwise reset all consequences of c that depend on
     v. Then detach and re-initialise c over the remaining args. *)
  begin
    match v.v_just with
    | Propagated { source; _ } when source.c_id = c.c_id ->
      erase_vars (v :: Dependency.variable_consequences v)
    | _ ->
      let through_c =
        List.filter
          (fun arg ->
            match arg.v_just with
            | Propagated { source; record } ->
              source.c_id = c.c_id && c.c_in_dependency c record v
            | _ -> false)
          c.c_args
      in
      let deps =
        List.concat_map
          (fun arg -> arg :: Dependency.variable_consequences arg)
          through_c
      in
      erase_vars deps
  end;
  Var.detach v c;
  c.c_args <- List.filter (fun a -> not (Var.equal a v)) c.c_args;
  Cstr.rewatch c;
  reinitialize net c

let remove_constraint net c =
  erase_vars (Dependency.dependents_of_constraint c);
  Cstr.unwatch c;
  List.iter (fun v -> Var.detach v c) c.c_args;
  c.c_args <- [];
  c.c_enabled <- false;
  net.net_cstrs <- List.filter (fun c' -> c'.c_id <> c.c_id) net.net_cstrs

(* ------------------------------------------------------------------ *)
(* Integrity and quarantine                                            *)
(* ------------------------------------------------------------------ *)

let check_integrity = Integrity.check_integrity

let quarantined net =
  List.filter (fun c -> c.c_quarantined <> None) (List.rev net.net_cstrs)

let quarantine net c ~reason =
  if c.c_quarantined = None then begin
    c.c_quarantined <- Some reason;
    c.c_enabled <- false;
    c.c_quarantines <- c.c_quarantines + 1;
    net.net_stats.k_quarantined <- net.net_stats.k_quarantined + 1;
    Engine.trace net (T_quarantine (c, reason))
  end

(* Lifting a quarantine re-enables the constraint and re-initialises it
   (§4.2.5) so values that went stale while it was out of service are
   brought back into agreement; a violation here means the constraint
   is still in conflict and stays enabled but unsatisfied, exactly as
   for [add_constraint]. *)
let clear_quarantine net c =
  c.c_quarantined <- None;
  c.c_failures <- 0;
  c.c_enabled <- true;
  (* values may have moved while the constraint was out of service, so a
     2-watch set chosen before the quarantine could be stale *)
  Cstr.rewatch c;
  reinitialize net c
