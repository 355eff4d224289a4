(* One answer per observability question, as a JSON tree; the server
   serves the tree, the shell and the CLI print [text] of it. *)

open Constraint_kernel
open Jsonl

type named = Named : string * 'a Board.t -> named

let us x = J_float (x *. 1e6)

let str_opt = opt (fun s -> J_str s)

(* ---------------- episodes ---------------- *)

let span_row net (s : Types.episode_span) =
  let t = s.es_timings in
  J_obj
    [
      ("net", J_str net);
      ("ep", J_int s.es_id);
      ("label", J_str s.es_label);
      ("outcome", J_str (outcome_string s.es_outcome));
      ("latency_us", us (Types.span_total s));
      ("propagate_us", us t.ph_propagate);
      ("drain_us", us t.ph_drain);
      ("check_us", us t.ph_check);
      ("restore_us", us t.ph_restore);
      ("steps", J_int s.es_steps);
      ("agenda_hwm", J_int s.es_agenda_hwm);
    ]

let spans boards =
  J_arr
    (List.concat_map
       (fun (Named (net, b)) -> List.map (span_row net) (Board.spans b))
       boards)

let exemplar_fields net (ex : _ Sampler.exemplar) =
  [
    ("net", J_str net);
    ("episode", J_int ex.ex_episode);
    ( "reasons",
      J_arr (List.map (fun r -> J_str (Sampler.reason_label r)) ex.ex_reasons)
    );
    ("outcome", J_str (outcome_string ex.ex_span.es_outcome));
    ("latency_us", us (Types.span_total ex.ex_span));
    ("events", J_int ex.ex_length);
    ("truncated", J_bool ex.ex_truncated);
  ]

let exemplars boards =
  J_arr
    (List.concat_map
       (fun (Named (net, b)) ->
         List.map
           (fun ex -> J_obj (exemplar_fields net ex))
           (Sampler.exemplars (Board.sampler b)))
       boards)

let exemplar net ex =
  let event (te : _ Types.tagged_event) =
    J_obj
      [
        ("seq", J_int te.te_seq);
        ("event", J_str (Fmt.str "%a" Editor.pp_trace_event te.te_event));
      ]
  in
  J_obj
    (exemplar_fields net ex
    @ [ ("trace", J_arr (List.map event (Sampler.events ex))) ])

(* ---------------- windows, watchdogs, health ---------------- *)

let window net (s : Window.snapshot) =
  J_obj
    [
      ("net", J_str net);
      ("index", J_int s.w_index);
      ("duration_s", J_float s.w_duration);
      ("episodes", J_int s.w_episodes);
      ("committed", J_int s.w_committed);
      ("rolled_back", J_int s.w_rolled_back);
      ("probes", J_int (s.w_probe_ok + s.w_probe_rejected));
      ("violations", J_int s.w_violations);
      ("quarantines", J_int s.w_quarantines);
      ("sink_errors", J_int s.w_sink_errors);
      ("p50_us", J_float (Window.p50 s));
      ("p95_us", J_float (Window.p95 s));
      ("p99_us", J_float (Window.p99 s));
      ( "max_us",
        J_float
          (if Metrics.samples s.w_latency = 0 then 0.
           else Metrics.quantile s.w_latency 1.0) );
      ("steps", J_int s.w_steps);
      ("episode_rate", J_float (Window.episode_rate s));
    ]

let windows net w =
  J_arr (List.map (window net) (Window.completed w @ [ Window.current w ]))

let watchdog_fields net wd =
  [
    ("net", J_str net);
    ("ok", J_bool (Watchdog.ok wd));
    ( "firing",
      J_arr
        (List.map
           (fun (r, d) -> J_obj [ ("rule", J_str r); ("detail", J_str d) ])
           (Watchdog.firing wd)) );
  ]

let health net b =
  let w = Board.window b and sam = Board.sampler b and wd = Board.watchdog b in
  J_obj
    (watchdog_fields net wd
    @ [
        ("rules", J_arr (List.map (fun r -> J_str r) (Watchdog.rules wd)));
        ("evaluated", J_int (Watchdog.evaluations wd));
        ("last", opt (window net) (Window.last w));
        ("current", window net (Window.current w));
        ( "exemplars",
          J_obj
            [
              ("stored", J_int (Sampler.stored sam));
              ("promoted", J_int (Sampler.promoted sam));
              ("seen", J_int (Sampler.seen sam));
            ] );
        ( "slowest",
          opt (fun ex -> J_obj (exemplar_fields net ex)) (Sampler.slowest sam)
        );
      ])

let healthz boards slos ~stream =
  let slo_wds = List.map Slo.watchdog slos in
  let wds =
    List.map (fun (Named (_, b)) -> Board.watchdog b) boards @ slo_wds
  in
  J_obj
    [
      ("healthy", J_bool (List.for_all Watchdog.ok wds));
      ( "nets",
        J_arr
          (List.map (fun (Named (net, b)) -> health net b) boards
          @ List.map
              (fun wd -> J_obj (watchdog_fields (Watchdog.name wd) wd))
              slo_wds) );
      ( "windows",
        J_arr
          (List.map
             (fun (Named (net, b)) -> window net (Window.current (Board.window b)))
             boards) );
      ("stream", J_obj (List.map (fun (k, n) -> (k, J_int n)) stream));
      ("exposed", J_arr (List.map (fun (Named (net, _)) -> J_str net) boards));
    ]

(* The flat shape of trace lines, so a health log interleaves with a
   JSONL trace and replay files the records under R_other. *)
let alerts wds =
  J_arr
    (List.concat_map
       (fun (net, wd) ->
         List.map
           (fun (a : Watchdog.alert) ->
             J_obj
               [
                 ("v", J_int schema_version);
                 ("t", J_str "alert");
                 ("net", J_str net);
                 ("rule", J_str a.al_rule);
                 ("window", J_int a.al_window);
                 ( "state",
                   J_str
                     (match a.al_state with
                     | `Firing -> "firing"
                     | `Cleared -> "cleared") );
                 ("detail", J_str a.al_detail);
               ])
           (Watchdog.alerts wd))
       wds)

let slos slos ~now =
  J_arr
    (List.map
       (fun slo ->
         let ob = Slo.objective slo in
         J_obj
           [
             ("name", J_str ob.Slo.ob_name);
             ("target", J_float ob.Slo.ob_target);
             ("firing", J_bool (Slo.firing slo));
             ( "windows",
               J_arr
                 (List.map
                    (fun (w, thr, b) ->
                      J_obj
                        [
                          ("seconds", J_float w);
                          ("threshold", J_float thr);
                          ("burn", opt (fun b -> J_float b) b);
                        ])
                    (Slo.burn_rates slo ~now)) );
           ])
       slos)

(* ---------------- structure and cost ---------------- *)

let hotspots p =
  J_arr
    (List.map
       (fun (e : Profiler.entry) ->
         J_obj
           [
             ("kind", J_str e.e_kind);
             ("activations", J_int e.e_activations);
             ("scheduled", J_int e.e_scheduled);
             ("checks", J_int e.e_checks);
             ("check_failures", J_int e.e_check_failures);
             ("violations", J_int e.e_violations);
             ("quarantines", J_int e.e_quarantines);
           ])
       (Profiler.entries p))

let topo net =
  let s = Topo.stats net in
  J_obj
    [
      ("vars", J_int s.tp_vars);
      ("cstrs", J_int s.tp_cstrs);
      ("edges", J_int s.tp_edges);
      ("var_fan_max", J_int s.tp_var_fan_max);
      ("var_fan_mean", J_float s.tp_var_fan_mean);
      ("cstr_arity_max", J_int s.tp_cstr_arity_max);
      ("cstr_arity_mean", J_float s.tp_cstr_arity_mean);
      ("depth", J_int s.tp_depth);
      ("cyclic_vars", J_int s.tp_cyclic_vars);
      ("cyclic_cstrs", J_int s.tp_cyclic_cstrs);
      ("quarantined", J_int s.tp_quarantined);
      ("disabled", J_int s.tp_disabled);
    ]

(* ---------------- provenance ---------------- *)

let prov_span (s : Provenance.span) =
  J_obj
    [
      ("id", J_int s.sp_id);
      ("net", J_str s.sp_net);
      ("ep", J_int s.sp_episode);
      ("seq", J_int s.sp_seq);
      ("var", J_str s.sp_var);
      ("value", str_opt s.sp_value);
      ("just", J_str s.sp_just);
      ("source", J_str s.sp_source);
      ("antecedents", J_arr (List.map (fun i -> J_int i) s.sp_antecedents));
      ("dead", J_bool s.sp_dead);
    ]

let why p path =
  J_obj
    [
      ("var", J_str path);
      ( "chain",
        J_arr
          (List.map
             (fun (st : Provenance.why_step) ->
               J_obj [ ("depth", J_int st.ws_depth); ("span", prov_span st.ws_span) ])
             (Provenance.why p path)) );
    ]

let blame p path =
  J_obj
    [
      ("var", J_str path);
      ("downstream", J_arr (List.map prov_span (Provenance.blame p path)));
    ]

let critical p episode =
  J_arr (List.map prov_span (Provenance.critical_path p ?episode ()))

let episodes p =
  let rec node (n : Provenance.tree_node) =
    let e = n.tn_episode in
    J_obj
      [
        ("net", J_str e.epi_net);
        ("ep", J_int e.epi_id);
        ("label", J_str e.epi_label);
        ("outcome", opt (fun o -> J_str (outcome_string o)) e.epi_outcome);
        ("children", J_arr (List.map node n.tn_children));
      ]
  in
  J_arr (List.map node (Provenance.episode_forest p))

(* ---------------- history ---------------- *)

let history ts =
  let st = Tsdb.stats ts in
  J_obj
    [
      ("dir", J_str (Tsdb.dir ts));
      ("segments", J_int st.st_segments);
      ("blocks", J_int st.st_blocks);
      ("points", J_int st.st_points);
      ("disk_bytes", J_int st.st_disk_bytes);
      ("compression", J_float st.st_ratio);
      ( "series",
        J_arr
          (List.map
             (fun (name, points, first, last) ->
               J_obj
                 [
                   ("series", J_str name);
                   ("points", J_int points);
                   ("first", J_float first);
                   ("last", J_float last);
                 ])
             (Tsdb.series ts)) );
    ]

let query ts ~series ~from_ ~to_ ~step =
  let head =
    [ ("metric", J_str series); ("from", J_float from_); ("to", J_float to_) ]
  in
  match step with
  | Some step ->
    let bucket (b : Tsdb.bucket) =
      J_obj
        [
          ("t", J_float b.bk_t);
          ("min", J_float b.bk_min);
          ("max", J_float b.bk_max);
          ("avg", J_float b.bk_avg);
          ("count", J_int b.bk_count);
        ]
    in
    J_obj
      (head
      @ [
          ("step", J_float step);
          ( "buckets",
            J_arr (List.map bucket (Tsdb.query_range ts ~series ~from_ ~to_ ~step))
          );
        ])
  | None ->
    J_obj
      (head
      @ [
          ( "points",
            J_arr
              (List.map
                 (fun (t, v) -> J_arr [ J_float t; J_float v ])
                 (Tsdb.query ts ~series ~from_ ~to_)) );
        ])

let sparkline_width = 60

let summary ts series ~from_ ~to_ =
  let vs = List.map snd (Tsdb.query ts ~series ~from_ ~to_) in
  let n = List.length vs in
  let line =
    if n <= sparkline_width || to_ -. from_ <= 0. then Tsdb.sparkline vs
    else
      Tsdb.sparkline
        (List.map
           (fun (b : Tsdb.bucket) -> b.bk_avg)
           (Tsdb.query_range ts ~series ~from_ ~to_
              ~step:((to_ -. from_) /. float_of_int sparkline_width)))
  in
  let fold f = if vs = [] then J_null else J_float (List.fold_left f (List.hd vs) vs) in
  J_obj
    [
      ("series", J_str series);
      ("points", J_int n);
      ("min", fold Float.min);
      ("max", fold Float.max);
      ("last", if vs = [] then J_null else J_float (List.nth vs (n - 1)));
      ("sparkline", J_str line);
    ]

(* ---------------- the text view ---------------- *)

let needs_quotes s =
  s = ""
  || String.exists
       (fun c ->
         c <= ' ' || c = '\127'
         || String.contains "\"\\,=[]{}" c)
       s

let float_text f =
  if Float.is_nan f then "nan"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.abs f >= 1. then Printf.sprintf "%.2f" f
  else Printf.sprintf "%.4g" f

let rec scalar = function
  | J_str s -> if needs_quotes s then "\"" ^ escape s ^ "\"" else s
  | J_int i -> string_of_int i
  | J_float f -> float_text f
  | J_bool b -> string_of_bool b
  | J_null -> "null"
  | J_arr xs -> "[" ^ String.concat "," (List.map scalar xs) ^ "]"
  | J_obj fields -> "{" ^ pairs fields ^ "}"

and pairs fields =
  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ scalar v) fields)

(* What prints on one line: scalars, arrays of scalars, and objects
   whose fields are all such. *)
let scalarish = function
  | J_arr xs -> List.for_all (function J_arr _ | J_obj _ -> false | _ -> true) xs
  | J_obj _ -> false
  | _ -> true

let flat = function
  | J_obj fields -> List.for_all (fun (_, v) -> scalarish v) fields
  | v -> scalarish v

let inline = function J_obj (_ :: _ as fields) -> pairs fields | v -> scalar v

(* The lines of a value, unindented: a nested value's caller indents
   its lines under the key or the item marker. *)
let rec lines v =
  if flat v then [ inline v ]
  else
    match v with
    | J_obj fields ->
      List.concat_map
        (fun (k, v) ->
          if flat v then [ k ^ ": " ^ inline v ]
          else (k ^ ":") :: List.map (( ^ ) "  ") (lines v))
        fields
    | J_arr xs ->
      List.concat_map
        (fun x ->
          match lines x with
          | first :: rest -> ("- " ^ first) :: List.map (( ^ ) "  ") rest
          | [] -> [])
        xs
    | v -> [ scalar v ]

let text ppf v =
  Format.pp_print_list ~pp_sep:Format.pp_force_newline Format.pp_print_string
    ppf (lines v)
