(* Declarative health rules over window snapshots, with firing/cleared
   transitions.

   A rule examines one completed window snapshot and answers [Some
   detail] (unhealthy) or [None] (healthy).  The watchdog evaluates its
   rules at every window boundary (wire it with {!watch}) and records
   *transitions* only: an alert is appended when a rule starts firing
   and when it clears, not on every window while the condition
   persists — so the alert log stays readable and bounded.

   A watchdog is an ordinary value held by whoever created it (a
   monitored board, an SLO); there is no registry.  A health roll-up is
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
  al_net : string;
  al_rule : string;
  al_window : int; (* index of the window that caused the transition *)
  al_state : state_kind;
  al_detail : string;
}

type rule_state = { rs_rule : rule; mutable rs_firing : string option }

type t = {
  wd_name : string; (* names the alerts: the net, or "slo:<name>" *)
  wd_rules : rule_state list;
  wd_log_cap : int;
  mutable wd_log : alert list; (* newest first, length <= cap *)
  mutable wd_logged : int;
  mutable wd_evals : int; (* windows evaluated *)
}

let create ?(name = "watchdog") ?(log_capacity = 64) rules =
  {
    wd_name = name;
    wd_rules = List.map (fun r -> { rs_rule = r; rs_firing = None }) rules;
    wd_log_cap = max 1 log_capacity;
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

(* Evaluate every rule against one completed window; returns the
   transitions (new alerts) this evaluation produced. *)
let evaluate t (snap : Window.snapshot) =
  t.wd_evals <- t.wd_evals + 1;
  let transitions =
    List.filter_map
      (fun rs ->
        let verdict = rs.rs_rule.rl_eval snap in
        match (rs.rs_firing, verdict) with
        | None, Some detail ->
          rs.rs_firing <- Some detail;
          Some
            {
              al_net = t.wd_name;
              al_rule = rs.rs_rule.rl_name;
              al_window = snap.Window.w_index;
              al_state = `Firing;
              al_detail = detail;
            }
        | Some _, Some detail ->
          (* still firing: refresh the detail, no transition *)
          rs.rs_firing <- Some detail;
          None
        | Some _, None ->
          rs.rs_firing <- None;
          Some
            {
              al_net = t.wd_name;
              al_rule = rs.rs_rule.rl_name;
              al_window = snap.Window.w_index;
              al_state = `Cleared;
              al_detail = "";
            }
        | None, None -> None)
      t.wd_rules
  in
  List.iter (log_alert t) transitions;
  transitions

(* Subscribe to a window's boundaries. *)
let watch t w = Window.on_rotate w (fun snap -> ignore (evaluate t snap))

let firing t =
  List.filter_map
    (fun rs ->
      match rs.rs_firing with
      | Some detail -> Some (rs.rs_rule.rl_name, detail)
      | None -> None)
    t.wd_rules

let ok t = firing t = []

let rules t = List.map (fun rs -> rs.rs_rule.rl_name) t.wd_rules

(* Alert transitions, oldest first. *)
let alerts t = List.rev t.wd_log

let evaluations t = t.wd_evals

(* ---------------- rendering ---------------- *)

(* Schema-v2 "alert" record: same flat shape as the trace lines, so a
   health log can be interleaved with (or appended to) a JSONL trace
   and still round-trip through [Jsonl.parse_line] / replay (which
   files unknown kinds under R_other). *)
let alert_json a =
  Jsonl.to_string
    (J_obj
       [
         ("v", J_int Jsonl.schema_version);
         ("t", J_str "alert");
         ("net", J_str a.al_net);
         ("rule", J_str a.al_rule);
         ("window", J_int a.al_window);
         ( "state",
           J_str
             (match a.al_state with `Firing -> "firing" | `Cleared -> "cleared")
         );
         ("detail", J_str a.al_detail);
       ])

let pp_alert ppf a =
  match a.al_state with
  | `Firing ->
    Fmt.pf ppf "FIRING  [%s] %s (window #%d): %s" a.al_net a.al_rule a.al_window
      a.al_detail
  | `Cleared ->
    Fmt.pf ppf "cleared [%s] %s (window #%d)" a.al_net a.al_rule a.al_window

let pp_status ppf t =
  match firing t with
  | [] ->
    Fmt.pf ppf "OK (%d rule(s), %d window(s) evaluated)"
      (List.length t.wd_rules) t.wd_evals
  | fs ->
    Fmt.pf ppf "@[<v>%a@]"
      (Fmt.list ~sep:Fmt.cut (fun ppf (r, d) -> Fmt.pf ppf "FIRING %s: %s" r d))
      fs
