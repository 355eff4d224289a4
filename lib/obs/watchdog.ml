(* Declarative health rules over window snapshots, with firing/cleared
   transitions.

   A rule examines one completed window snapshot and answers [Some
   detail] (unhealthy) or [None] (healthy).  The watchdog evaluates its
   rules at every window boundary (wire it with {!watch}) and records
   *transitions* only: an alert is appended when a rule starts firing
   and when it clears, not on every window while the condition
   persists — so the alert log stays readable and bounded.

   A watchdog is an ordinary value held by whoever created it (a
   board, an SLO); there is no registry.  A health roll-up is
   computed by its reader over the watchdogs it already holds — the
   telemetry server over the boards it serves and its own SLOs. *)

type rule = {
  rl_name : string;
  rl_eval : Window.snapshot -> string option; (* Some detail = unhealthy *)
}

let rule ~name eval = { rl_name = name; rl_eval = eval }

(* ---------------- the stock rules of the issue ---------------- *)

let latency_p99_above us =
  rule
    ~name:(Printf.sprintf "latency_p99>%gus" us)
    (fun s ->
      if s.Window.w_episodes = 0 then None
      else
        let p = Window.p99 s in
        if p > us then Some (Printf.sprintf "p99 %.1f µs > %g µs" p us)
        else None)

let violation_rate_above r =
  rule
    ~name:(Printf.sprintf "violation_rate>%g" r)
    (fun s ->
      let vr = Window.violation_rate s in
      if vr > r then
        Some
          (Printf.sprintf "%d violation(s) in %d episode(s) (%.2f/ep > %g)"
             s.Window.w_violations s.Window.w_episodes vr r)
      else None)

let quarantine_any () =
  rule ~name:"quarantine>0" (fun s ->
      if s.Window.w_quarantines > 0 then
        Some (Printf.sprintf "%d constraint(s) quarantined" s.Window.w_quarantines)
      else None)

let sink_errors_any () =
  rule ~name:"sink_errors>0" (fun s ->
      if s.Window.w_sink_errors > 0 then
        Some (Printf.sprintf "%d sink error(s)" s.Window.w_sink_errors)
      else None)

let default_rules () = [ quarantine_any (); sink_errors_any () ]

(* ---------------- state ---------------- *)

type state_kind = [ `Firing | `Cleared ]

type alert = {
  al_rule : string;
  al_window : int; (* index of the window that caused the transition *)
  al_state : state_kind;
  al_detail : string;
}

type t = {
  wd_name : string; (* names the alerts: the net, or "slo:<name>" *)
  wd_rules : rule list;
  wd_log_cap : int;
  mutable wd_firing : (string * string) list; (* rule -> detail *)
  mutable wd_log : alert list; (* newest first, length <= cap *)
  mutable wd_logged : int;
  mutable wd_evals : int; (* verdict sets recorded *)
}

let create ?(name = "watchdog") ?(log_capacity = 64) rules =
  {
    wd_name = name;
    wd_rules = rules;
    wd_log_cap = max 1 log_capacity;
    wd_firing = [];
    wd_log = [];
    wd_logged = 0;
    wd_evals = 0;
  }

let name t = t.wd_name

let log_alert t a =
  t.wd_log <- a :: t.wd_log;
  t.wd_logged <- t.wd_logged + 1;
  if t.wd_logged > t.wd_log_cap then begin
    t.wd_log <- List.filteri (fun i _ -> i < t.wd_log_cap) t.wd_log;
    t.wd_logged <- t.wd_log_cap
  end

(* The one entry point: record each named rule's verdict for one
   evaluation [index]; a rule starting or stopping to fire is a
   transition, logged and returned. *)
let record t ~index verdicts =
  t.wd_evals <- t.wd_evals + 1;
  let alert rule state detail =
    { al_rule = rule; al_window = index; al_state = state; al_detail = detail }
  in
  let transitions =
    List.filter_map
      (fun (rule, verdict) ->
        match (List.mem_assoc rule t.wd_firing, verdict) with
        | false, Some detail -> Some (alert rule `Firing detail)
        | true, None -> Some (alert rule `Cleared "")
        | _ -> None)
      verdicts
  in
  t.wd_firing <-
    List.filter_map (fun (rule, v) -> Option.map (fun d -> (rule, d)) v) verdicts;
  List.iter (log_alert t) transitions;
  transitions

let evaluate t (snap : Window.snapshot) =
  record t ~index:snap.Window.w_index
    (List.map (fun r -> (r.rl_name, r.rl_eval snap)) t.wd_rules)

(* Subscribe to a window's boundaries. *)
let watch t w = Window.on_rotate w (fun snap -> ignore (evaluate t snap))

let firing t = t.wd_firing

let ok t = firing t = []

let rules t = List.map (fun r -> r.rl_name) t.wd_rules

(* Alert transitions, oldest first. *)
let alerts t = List.rev t.wd_log

let evaluations t = t.wd_evals
