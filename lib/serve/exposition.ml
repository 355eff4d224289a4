(* Family-bucketed merge of several metrics registries into one
   Prometheus text-format document (see mli for why a plain concat is
   not format-conformant). *)

let help_table =
  [
    ("episodes_total", "Completed propagation episodes.");
    ("episodes_committed_total", "Episodes that committed their values.");
    ("episodes_rolled_back_total", "Episodes rolled back after a violation.");
    ("episodes_probe_ok_total", "Tentative probes that would succeed.");
    ("episodes_probe_rejected_total", "Tentative probes that would violate.");
    ("episode_latency_us", "Episode wall-clock latency, microseconds.");
    ("episode_propagate_us", "Time in initial propagation, microseconds.");
    ("episode_drain_us", "Time draining the agendas, microseconds.");
    ("episode_check_us", "Time in the satisfaction sweep, microseconds.");
    ("episode_restore_us", "Time rolling back, microseconds.");
    ("episode_steps", "Constraint inference runs per episode.");
    ("episode_agenda_depth", "Agenda depth high-water mark per episode.");
    ("events_assign_total", "Variable assignments observed.");
    ("events_reset_total", "Variable resets observed.");
    ("events_activate_total", "Constraint activations observed.");
    ("events_schedule_total", "Agenda schedules observed.");
    ("events_check_total", "Satisfaction checks observed.");
    ("events_violation_total", "Constraint violations observed.");
    ("events_restore_total", "Rollback restores observed.");
    ("events_quarantine_total", "Constraint quarantines observed.");
    ("serve_requests_total", "HTTP requests answered by the telemetry server.");
    ("serve_events_published_total", "NDJSON lines fanned out to /events subscribers.");
    ("serve_events_dropped_total", "NDJSON lines dropped by slow /events subscribers.");
    ("serve_events_subscribers", "Live /events subscribers.");
    ("serve_stage_parse", "Request parse stage latency, microseconds.");
    ("serve_stage_admit", "Admission decision stage latency, microseconds.");
    ("serve_stage_episode", "Write episode stage latency, microseconds.");
    ("serve_stage_append", "Journal append stage latency, microseconds.");
    ("serve_stage_fsync", "Journal fsync stage latency, microseconds.");
    ("runtime_gc_minor_collections", "OCaml minor GC collections (gauge, sampled per window).");
    ("runtime_gc_major_collections", "OCaml major GC cycles (gauge, sampled per window).");
    ("runtime_gc_heap_words", "OCaml major heap size in words (gauge, sampled per window).");
    ("runtime_gc_compactions", "OCaml heap compactions (gauge, sampled per window).");
    ("runtime_uptime_seconds", "Process uptime in seconds (gauge, sampled per window).");
    ("runtime_os_rss_bytes", "Resident set size from /proc/self/statm (gauge, sampled per window; Linux only).");
  ]

let help_for fam =
  (* the table keys are namespace-free; strip any "<ns>_" prefix by
     trying progressively shorter suffixes at '_' boundaries *)
  let rec lookup s =
    match List.assoc_opt s help_table with
    | Some h -> Some h
    | None -> (
      match String.index_opt s '_' with
      | None -> None
      | Some i -> lookup (String.sub s (i + 1) (String.length s - i - 1)))
  in
  match lookup fam with
  | Some h -> h
  | None -> "Constraint-propagation telemetry."

let render ?(namespace = "stem") sources =
  (* bucket: family -> (type, rev list of (source, item)) *)
  let fams : (string, string * (string * Obs.Metrics.item) list ref) Hashtbl.t
      =
    Hashtbl.create 64
  in
  let order = ref [] in
  List.iter
    (fun (src, registry) ->
      List.iter
        (fun it ->
          let fam, ty = Obs.Metrics.prometheus_family ~namespace it in
          match Hashtbl.find_opt fams fam with
          | Some (_, items) -> items := (src, it) :: !items
          | None ->
            Hashtbl.add fams fam (ty, ref [ (src, it) ]);
            order := fam :: !order)
        (Obs.Metrics.items registry))
    sources;
  let buf = Buffer.create 4096 in
  List.iter
    (fun fam ->
      let ty, items = Hashtbl.find fams fam in
      Obs.Metrics.add_family_header buf ~fam ~ty ~help:(help_for fam);
      List.iter
        (fun (src, it) ->
          let labels = if src = "" then [] else [ ("net", src) ] in
          Obs.Metrics.render_prometheus_series ~namespace ~labels buf it)
        (List.rev !items))
    (List.rev !order);
  Buffer.contents buf
