open Types

let inspect_var ppf v =
  Fmt.pf ppf "@[<v2>%a@,%a@]" Var.pp_full v
    (Fmt.list ~sep:Fmt.cut (fun ppf c -> Fmt.pf ppf "- %a" Cstr.pp c))
    (Var.constraints v)

let inspect_cstr ppf c =
  Fmt.pf ppf "@[<v2>%s#%d [%s]%s@,%a@]" c.c_kind c.c_id c.c_label
    (if c.c_enabled then "" else " (disabled)")
    (Fmt.list ~sep:Fmt.cut (fun ppf v -> Fmt.pf ppf "- %a" Var.pp_full v))
    c.c_args

let trace_antecedents ppf v =
  let vars, cstrs = Dependency.antecedents v in
  Fmt.pf ppf "@[<v2>antecedents of %s:@,%a@,via constraints:@,%a@]" (Var.path v)
    (Fmt.list ~sep:Fmt.cut (fun ppf w -> Fmt.pf ppf "- %a" Var.pp_full w))
    vars
    (Fmt.list ~sep:Fmt.cut (fun ppf c -> Fmt.pf ppf "- %a" Cstr.pp c))
    cstrs

let trace_consequences ppf v =
  let vars, cstrs = Dependency.consequences v in
  Fmt.pf ppf "@[<v2>consequences of %s:@,%a@,via constraints:@,%a@]" (Var.path v)
    (Fmt.list ~sep:Fmt.cut (fun ppf w -> Fmt.pf ppf "- %a" Var.pp_full w))
    vars
    (Fmt.list ~sep:Fmt.cut (fun ppf c -> Fmt.pf ppf "- %a" Cstr.pp c))
    cstrs

let unsatisfied net =
  List.filter
    (fun c ->
      c.c_enabled && (not c.c_kind_disabled) && not (Cstr.is_satisfied_safe c))
    (List.rev net.net_cstrs)

(* Wakeup-discipline and per-stratum agenda traffic, for `health`
   surfaces. *)
let pp_agenda ppf net =
  let totals = Engine.agenda_totals net in
  let s = net.net_stats in
  let touched = s.k_wakeups + s.k_suppressed in
  let pct =
    if touched = 0 then 0.
    else 100. *. float_of_int s.k_suppressed /. float_of_int touched
  in
  Fmt.pf ppf "@[<v>wakeups: %d delivered, %d suppressed (%.1f%% saved)"
    s.k_wakeups s.k_suppressed pct;
  if totals = [] then Fmt.pf ppf "@,agenda: no strata used"
  else
    List.iter
      (fun (p, t) ->
        Fmt.pf ppf "@,agenda[%s p%d]: pushed %d popped %d hwm %d"
          (stratum_label p) p t.at_pushed t.at_popped t.at_hwm)
      totals;
  Fmt.pf ppf "@]"

let pp_stats ppf s =
  Fmt.pf ppf
    "propagations=%d assignments=%d inferences=%d scheduled=%d checks=%d \
     violations=%d trapped=%d quarantined=%d sink_errors=%d wakeups=%d \
     suppressed=%d"
    s.st_propagations s.st_assignments s.st_inferences s.st_scheduled s.st_checks
    s.st_violations s.st_trapped s.st_quarantined s.st_sink_errors s.st_wakeups
    s.st_suppressed

let dump_network ppf net =
  let bad = unsatisfied net in
  let quarantined =
    List.filter (fun c -> c.c_quarantined <> None) net.net_cstrs
  in
  Fmt.pf ppf
    "@[<v2>network %S: %d variables, %d constraints, propagation %s@,stats: %a@,\
     quarantined: %d@,unsatisfied: %d@,%a@]"
    net.net_name
    (List.length net.net_vars)
    (List.length net.net_cstrs)
    (if net.net_enabled then "on" else "off")
    pp_stats (snapshot_stats net.net_stats)
    (List.length quarantined)
    (List.length bad)
    (Fmt.list ~sep:Fmt.cut (fun ppf c -> Fmt.pf ppf "- %a" Cstr.pp c))
    bad

let find_var net path = Hashtbl.find_opt net.net_paths path

let find_cstr net id = List.find_opt (fun c -> c.c_id = id) net.net_cstrs

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  if ln = 0 then true
  else
    let rec go i =
      if i + ln > lh then false
      else if String.sub hay i ln = needle then true
      else go (i + 1)
    in
    go 0

let grep_vars net substring =
  List.filter (fun v -> contains (Var.path v) substring) (List.rev net.net_vars)

let pp_trace_event ppf = function
  | T_assign (v, x, src) -> Fmt.pf ppf "%s <- %a (%s)" (Var.path v) v.v_pp x src
  | T_reset (v, src) -> Fmt.pf ppf "%s <- NIL (%s)" (Var.path v) src
  | T_activate (c, v) ->
    Fmt.pf ppf "activate %s#%d%a" c.c_kind c.c_id
      (Fmt.option (fun ppf v -> Fmt.pf ppf " by %s" (Var.path v)))
      v
  | T_schedule (c, p) -> Fmt.pf ppf "schedule %s#%d on agenda %d" c.c_kind c.c_id p
  | T_check (c, ok) ->
    Fmt.pf ppf "check %s#%d: %s" c.c_kind c.c_id
      (if ok then "satisfied" else "VIOLATED")
  | T_violation viol -> pp_violation ppf viol
  | T_restore v -> Fmt.pf ppf "restore %s" (Var.path v)
  | T_quarantine (c, reason) ->
    Fmt.pf ppf "quarantine %s#%d: %s" c.c_kind c.c_id reason
  | T_episode_start (id, label, parent) ->
    Fmt.pf ppf "episode #%d start (%s)%a" id label
      (Fmt.option (fun ppf p -> Fmt.pf ppf " parent %a" pp_parent_ref p))
      parent
  | T_episode_end sp -> Fmt.pf ppf "episode %a" pp_span sp
