open Types

let default_in_dependency _c record arg =
  match record with
  | All_arguments -> true
  | Single_var w -> Var.equal w arg
  | Some_vars ws -> List.exists (Var.equal arg) ws
  | Opaque -> false

let activation ?(wake = Wake_all) ?(schedule = Immediate)
    ?(keyed_by_var = false) ?in_dependency () =
  {
    act_wake = wake;
    act_schedule = schedule;
    act_keyed_by_var = keyed_by_var;
    act_in_dependency = in_dependency;
  }

let wake_all =
  {
    act_wake = Wake_all;
    act_schedule = Immediate;
    act_keyed_by_var = false;
    act_in_dependency = None;
  }

let make net ~kind ?label ?(activation = wake_all) ?(fires_on_reset = false)
    ?recompute ?(strength = 0) ~propagate ~satisfied args =
  let c =
    {
      c_id = net.net_next_cstr_id;
      c_kind = kind;
      c_source_label = Printf.sprintf "%s#%d" kind net.net_next_cstr_id;
      c_label = (match label with Some l -> l | None -> kind);
      c_args = args;
      c_enabled = true;
      c_kind_disabled = List.mem kind net.net_disabled_kinds;
      c_activation = activation;
      c_watching = [];
      c_mark = 0;
      c_queued = 0;
      c_queued_keys = [];
      c_propagate = propagate;
      c_satisfied = satisfied;
      c_in_dependency =
        Option.value activation.act_in_dependency
          ~default:default_in_dependency;
      c_fires_on_reset = fires_on_reset;
      c_recompute = recompute;
      c_strength = strength;
      c_failures = 0;
      c_quarantined = None;
      c_all_args_just = Default;
    }
  in
  net.net_next_cstr_id <- net.net_next_cstr_id + 1;
  net.net_cstrs <- c :: net.net_cstrs;
  c

(* ------------------------------------------------------------------ *)
(* Watch-list maintenance                                              *)
(* ------------------------------------------------------------------ *)

let unwatch c =
  List.iter
    (fun v ->
      v.v_watchers <- List.filter (fun c' -> c'.c_id <> c.c_id) v.v_watchers)
    c.c_watching;
  c.c_watching <- []

(* The watch set the spec asks for, against the current arguments and
   values.  [Watch vs] is intersected with the arguments so an editor
   rewire that removes a declared variable degrades to not watching it
   (and [rewatch] after [add_argument] re-admits it). *)
let desired_watches c =
  match c.c_activation.act_wake with
  | Wake_all | Custom _ -> c.c_args
  | Watch vs -> List.filter (fun v -> List.exists (Var.equal v) c.c_args) vs
  | Two_watch -> (
    match List.filter (fun v -> v.v_value = None) c.c_args with
    | a :: b :: _ -> [ a; b ]
    | _ -> c.c_args (* fewer than two unset: ground fallback, wake on all *))

let rewatch c =
  unwatch c;
  let ws = desired_watches c in
  c.c_watching <- ws;
  List.iter (fun v -> v.v_watchers <- c :: v.v_watchers) ws

let watching c = c.c_watching

let strength c = c.c_strength

let id c = c.c_id

let kind c = c.c_kind

let label c = c.c_label

let args c = c.c_args

let is_enabled c = c.c_enabled

let set_enabled c b = c.c_enabled <- b

let is_satisfied c = c.c_satisfied c

(* Exception-safe satisfaction for sweeps over arbitrary constraints
   (batch checking, the editor): a throwing test reads as unsatisfied
   rather than aborting the sweep. *)
let is_satisfied_safe c = try c.c_satisfied c with _ -> false

let failures c = c.c_failures

let quarantined c = c.c_quarantined

let is_quarantined c = c.c_quarantined <> None

let equal a b = a.c_id = b.c_id

let pp ppf c =
  Fmt.pf ppf "%s#%d(%a)%s" c.c_kind c.c_id
    (Fmt.list ~sep:Fmt.comma Var.pp)
    c.c_args
    (if c.c_quarantined <> None then " [quarantined]" else "")
