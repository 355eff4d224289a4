open Constraint_kernel
open Types
open Design

let link_property env ~kind ?label ~class_var ~inst_var ~adjust ~check () =
  let propagate ctx c changed =
    match changed with
    | Some v when Var.equal v class_var -> (
      match Var.value class_var with
      | None -> Ok ()
      | Some cv ->
        (* update the instance only if its value is NIL or was propagated
           by this very constraint (Fig. 7.7) *)
        let updatable =
          match (Var.value inst_var, inst_var.v_just) with
          | None, _ -> true
          | Some _, Propagated { source; _ } -> Cstr.equal source c
          | Some _, (Default | User | Application | Update | Tentative) -> false
        in
        if not updatable then Ok ()
        else (
          match adjust cv with
          | None -> Ok ()
          | Some iv ->
            Engine.set_by_constraint ctx inst_var iv ~source:c
              ~record:(Single_var class_var)))
    | Some _ | None -> Ok () (* instance -> class: check only (§5.1.1) *)
  in
  let satisfied _c =
    match (Var.value class_var, Var.value inst_var) with
    | Some cv, Some iv -> check cv iv
    | None, _ | _, None -> true
  in
  let c =
    Cstr.make env.env_cnet ~kind ?label
      ~activation:
        (Cstr.activation
           ~wake:(Watch [ class_var ]) (* instance -> class: check only *)
           ~schedule:(On_agenda implicit_priority) ~keyed_by_var:true
           ~in_dependency:(fun _ record arg ->
             match record with
             | Single_var w -> Var.equal w arg
             | All_arguments | Some_vars _ | Opaque -> false)
           ())
      ~propagate ~satisfied [ class_var; inst_var ]
  in
  ignore (Network.add_constraint env.env_cnet c);
  c

let link_parameter env ~range_var ~value_var ?default () =
  let satisfied _c =
    match (Var.value range_var, Var.value value_var) with
    | Some range, Some v -> (
      match Dval.in_range v range with Some b -> b | None -> false)
    | None, _ | _, None -> true
  in
  let propagate _ctx _c _changed = Ok () in
  let c =
    Cstr.make env.env_cnet ~kind:"param-range"
      ~activation:
        (Cstr.activation
           ~wake:(Watch []) (* satisfaction-only: never needs inference *)
           ~schedule:(On_agenda implicit_priority) ~keyed_by_var:true
           ~in_dependency:(fun _ _ _ -> false)
           ())
      ~propagate ~satisfied [ range_var; value_var ]
  in
  ignore (Network.add_constraint env.env_cnet c);
  (match (default, Var.value value_var) with
  | Some d, None -> ignore (Engine.set ~just:Types.Application env.env_cnet value_var d)
  | _ -> ());
  c

(* A dual link across *environment* boundaries: the source variable
   lives in [env]'s network, the target in [to_env]'s.  The push is an
   external [Engine.set ~just:Application] on the remote network — a
   complete episode of its own, begun while ours is still in flight, so
   the remote T_episode_start records us as its parent and the exact
   source variable as its cause.  The remote variable is deliberately
   NOT an argument of the constraint: arguments must belong to the
   owning network (the integrity audit walks them), and the remote side
   needs no activation edge — consistency is re-checked here whenever
   [from_] changes.

   Atomicity caveat: the remote episode commits (or rolls back) on its
   own.  If the local episode fails *after* the push, the remote value
   stays — cross-network propagation is causal, not transactional. *)
let bridge env ~kind ?label ~from_ ~to_env ~to_ ?(adjust = fun v -> Some v) () =
  let push c =
    match Var.value from_ with
    | None -> Ok ()
    | Some fv -> (
      match adjust fv with
      | None -> Ok ()
      | Some tv ->
        let updatable =
          match (Var.value to_, to_.Types.v_just) with
          | None, _ -> true
          | Some cur, _ when Dval.equal cur tv -> false (* already agrees *)
          | Some _, Types.Application -> true (* our own earlier push *)
          | ( Some _,
              ( Types.Default | Types.User | Types.Update | Types.Tentative
              | Types.Propagated _ ) ) ->
            false (* designer/local entries are never overwritten (Fig. 7.7) *)
        in
        if not updatable then Ok ()
        else begin
          Engine.note_trace_cause (Var.path from_);
          match Engine.set ~just:Types.Application to_env.env_cnet to_ tv with
          | Ok () -> Ok ()
          | Error remote ->
            Error
              (Types.violation ~cstr:c ~var:from_
                 (Printf.sprintf "cross-environment push to %s rejected: %s"
                    (Var.path to_) remote.Types.viol_message))
        end)
  in
  let propagate _ctx c changed =
    match changed with
    | Some v when Var.equal v from_ -> push c
    | Some _ | None -> Ok ()
  in
  let satisfied _c =
    match (Var.value from_, Var.value to_) with
    | Some fv, Some tv -> (
      match adjust fv with None -> true | Some want -> Dval.equal want tv)
    | None, _ | _, None -> true
  in
  let c =
    Cstr.make env.env_cnet ~kind ?label
      ~activation:
        (Cstr.activation ~wake:(Watch [ from_ ])
           ~schedule:(On_agenda implicit_priority) ~keyed_by_var:true
           ~in_dependency:(fun _ _ _ -> false)
           ())
      ~propagate ~satisfied [ from_ ]
  in
  ignore (Network.add_constraint env.env_cnet c);
  c
