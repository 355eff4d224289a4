(* Telemetry server over the Obs board.  See the mli for the endpoint
   map; the invariant everything here is built around: the propagation
   thread must never block on, wait for, or fail because of a
   telemetry consumer.  Reads of live telemetry are racy-but-safe
   (OCaml guarantees memory safety; a scrape may see a window
   mid-update, which is fine for monitoring data). *)

module Http = Http
module Stream = Stream
module Exposition = Exposition
module Router = Router
module Client = Client
module Journal = Journal
module Admission = Admission
module Wstore = Wstore

open Constraint_kernel

let hub = Wstore.hub

let stream_stats () = Stream.stats hub

let expose = Wstore.expose

let unexpose = Wstore.unexpose

(* ---------------- the server's state ---------------- *)

(* The server's long-horizon history: the store it was started with
   (the caller opened it and closes it after [stop]) and one
   availability SLO per tenant seen on its admission controller. *)
type history = {
  hs_ts : Obs.Tsdb.t;
  hs_slos : (string, Obs.Slo.t) Hashtbl.t;  (* tenant -> availability SLO *)
}

type t = {
  sv_fd : Unix.file_descr;
  sv_port : int;
  mutable sv_router : Router.t;
  mutable sv_running : bool;
  mutable sv_threads : Thread.t list;
  sv_queue : Unix.file_descr Queue.t;
  sv_mu : Mutex.t;
  sv_cond : Condition.t;
  mutable sv_conns : Unix.file_descr list;
  sv_admission : Admission.t;  (* guards every write route *)
  sv_tracer : Obs.Tracing.t;  (* request spans; off until enabled *)
  sv_history : history option;
  (* self-metrics: worker threads bump these without a lock; an
     int-field race can lose an increment, never corrupt memory *)
  sv_self : Obs.Metrics.t;
  sv_requests : Obs.Metrics.counter;
  sv_published : Obs.Metrics.counter;
  sv_dropped : Obs.Metrics.counter;
  sv_subs : Obs.Metrics.gauge;
}

let port t = t.sv_port

let running t = t.sv_running

let tracer t = t.sv_tracer

let requests_served t = Obs.Metrics.count t.sv_requests

(* Counters must only move forward; the hub keeps the truth, so raise
   ours to match at scrape time. *)
let sync_self sv =
  let st = Stream.stats hub in
  let catch_up c target =
    let cur = Obs.Metrics.count c in
    if target > cur then Obs.Metrics.incr ~by:(target - cur) c
  in
  catch_up sv.sv_published st.Stream.st_published;
  catch_up sv.sv_dropped st.Stream.st_dropped;
  Obs.Metrics.set_gauge sv.sv_subs (float_of_int st.Stream.st_subscribers)

(* The (tracer, ctx) pair handlers thread into Wstore/Journal, if this
   request is being traced. *)
let trace_of sv rq =
  match rq.Http.rq_ctx with
  | Some ctx when Obs.Tracing.enabled sv.sv_tracer -> Some (sv.sv_tracer, ctx)
  | _ -> None

(* ---------------- JSON rendering ---------------- *)

module J = Obs.Jsonl

let span_obj net (s : Types.episode_span) =
  let open Types in
  let t = s.es_timings in
  J.J_obj
    [
      ("net", J_str net);
      ("ep", J_int s.es_id);
      ("label", J_str s.es_label);
      ("outcome", J_str (J.outcome_string s.es_outcome));
      ("latency_us", J_float (span_total s *. 1e6));
      ("propagate_us", J_float (t.ph_propagate *. 1e6));
      ("drain_us", J_float (t.ph_drain *. 1e6));
      ("check_us", J_float (t.ph_check *. 1e6));
      ("restore_us", J_float (t.ph_restore *. 1e6));
      ("steps", J_int s.es_steps);
      ("agenda_hwm", J_int s.es_agenda_hwm);
    ]

let exemplar_obj net (ex : 'a Obs.Sampler.exemplar) =
  let open Obs.Sampler in
  J.J_obj
    [
      ("net", J_str net);
      ("episode", J_int ex.ex_episode);
      ( "reasons",
        J_arr (List.map (fun r -> J.J_str (reason_label r)) ex.ex_reasons) );
      ("outcome", J_str (J.outcome_string ex.ex_span.Types.es_outcome));
      ("latency_us", J_float (Types.span_total ex.ex_span *. 1e6));
      ("events", J_int (List.length ex.ex_events));
      ("truncated", J_bool ex.ex_truncated);
    ]

let window_obj net w =
  let open Obs.Window in
  let s = current w in
  J.J_obj
    [
      ("net", J_str net);
      ("index", J_int s.w_index);
      ("episodes", J_int s.w_episodes);
      ("committed", J_int s.w_committed);
      ("rolled_back", J_int s.w_rolled_back);
      ("violations", J_int s.w_violations);
      ("quarantines", J_int s.w_quarantines);
      ("sink_errors", J_int s.w_sink_errors);
      ("p50_us", J_float (p50 s));
      ("p95_us", J_float (p95 s));
      ("p99_us", J_float (p99 s));
      ("episode_rate", J_float (episode_rate s));
    ]

(* ---------------- long-horizon history ---------------- *)

(* Point every served board's window sampler at the server's store
   (series prefixed by the network name): at start, and on each tick
   so networks served later join. *)
let wire_history h =
  List.iter
    (fun (Wstore.Served s) ->
      Obs.Board.set_history ~prefix:s.name s.board (Some h.hs_ts))
    (Wstore.served ())

let unwire_history h =
  List.iter
    (fun (Wstore.Served s) ->
      match Obs.Board.history s.board with
      | Some ts when ts == h.hs_ts -> Obs.Board.set_history s.board None
      | _ -> ())
    (Wstore.served ());
  Hashtbl.iter (fun _ slo -> Obs.Slo.remove slo) h.hs_slos

(* Per-tenant availability objective: admitted+rejected as the request
   total, rejections as the bad events.  Applied to tenants as they
   appear in the admission table. *)
let tenant_slo h tenant =
  match Hashtbl.find_opt h.hs_slos tenant with
  | Some slo -> slo
  | None ->
    let p = "serve.tenant." ^ tenant in
    let slo =
      Obs.Slo.create h.hs_ts
        (Obs.Slo.availability ~target:0.99
           ~windows:[ (60., 2.0); (300., 1.0) ]
           ~name:("tenant-" ^ tenant) ~total:(p ^ ".requests")
           ~errors:(p ^ ".rejected") ())
    in
    Hashtbl.replace h.hs_slos tenant slo;
    slo

(* The server's own sampling tick: board instruments ride their
   windows' rotations; this covers what no board owns (serve counters,
   per-tenant admission totals) and then evaluates the SLOs. *)
let history_tick ?now sv =
  match sv.sv_history with
  | Some h when sv.sv_running ->
    wire_history h;
    let now = match now with Some t -> t | None -> Unix.gettimeofday () in
    sync_self sv;
    let app series v = Obs.Tsdb.append h.hs_ts ~series ~t:now ~v in
    app "serve.requests" (float_of_int (Obs.Metrics.count sv.sv_requests));
    app "serve.events_published"
      (float_of_int (Obs.Metrics.count sv.sv_published));
    app "serve.events_dropped" (float_of_int (Obs.Metrics.count sv.sv_dropped));
    List.iter
      (fun (tenant, admitted, rejected, over) ->
        let p = "serve.tenant." ^ tenant in
        app (p ^ ".requests") (float_of_int (admitted + rejected));
        app (p ^ ".rejected") (float_of_int rejected);
        app (p ^ ".over_budget") (float_of_int over);
        Obs.Slo.evaluate (tenant_slo h tenant) ~now)
      (Admission.tenants sv.sv_admission)
  | _ -> ()

let slos_json sv =
  match sv.sv_history with
  | None -> "[]"
  | Some h ->
    let now = Unix.gettimeofday () in
    let rows =
      Hashtbl.fold (fun _ slo acc -> slo :: acc) h.hs_slos []
      |> List.sort (fun a b ->
             compare (Obs.Slo.objective a).Obs.Slo.ob_name
               (Obs.Slo.objective b).Obs.Slo.ob_name)
    in
    J.to_string (J_arr (List.map (fun s -> Obs.Slo.status_json s ~now) rows))

(* ---------------- endpoint renderers ---------------- *)

let render_metrics sv =
  sync_self sv;
  let sources =
    List.map
      (fun (Wstore.Served s) -> (s.name, Obs.Board.metrics s.board))
      (Wstore.served ())
    @ [ ("", sv.sv_self); ("", Obs.Tracing.metrics sv.sv_tracer) ]
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Exposition.render sources);
  (* per-tenant admission counters: dynamic label values, rendered by
     the controller itself rather than a Metrics registry *)
  Admission.render_prometheus sv.sv_admission buf;
  Buffer.contents buf

let healthz_status () = if Obs.Watchdog.healthy () then 200 else 503

let healthz_json () =
  let st = Stream.stats hub in
  let net (net, ok, firing) =
    J.J_obj
      [
        ("net", J_str net);
        ("ok", J_bool ok);
        ( "firing",
          J_arr
            (List.map
               (fun (r, d) ->
                 J.J_obj [ ("rule", J_str r); ("detail", J_str d) ])
               firing) );
      ]
  in
  let served = Wstore.served () in
  J.to_string
    (J_obj
       [
         ("healthy", J_bool (Obs.Watchdog.healthy ()));
         ("nets", J_arr (List.map net (Obs.Watchdog.health ())));
         ( "windows",
           J_arr
             (List.filter_map
                (fun (Wstore.Served s) ->
                  Option.map (window_obj s.name) (Obs.Board.window s.board))
                served) );
         ( "stream",
           J_obj
             [
               ("published", J_int st.Stream.st_published);
               ("dropped", J_int st.Stream.st_dropped);
               ("subscribers", J_int st.Stream.st_subscribers);
             ] );
         ( "exposed",
           J_arr (List.map (fun (Wstore.Served s) -> J.J_str s.name) served) );
       ])

let alerts_ndjson () =
  let buf = Buffer.create 512 in
  List.iter
    (fun wd ->
      List.iter
        (fun a ->
          Buffer.add_string buf (Obs.Watchdog.alert_json a);
          Buffer.add_char buf '\n')
        (Obs.Watchdog.alerts wd))
    (Obs.Watchdog.registered ());
  Buffer.contents buf

let series_json ts =
  let st = Obs.Tsdb.stats ts in
  let row (name, points, first, last) =
    J.J_obj
      [
        ("series", J_str name);
        ("points", J_int points);
        ("first", J_float first);
        ("last", J_float last);
      ]
  in
  J.to_string
    (J_obj
       [
         ("dir", J_str (Obs.Tsdb.dir ts));
         ("segments", J_int st.Obs.Tsdb.st_segments);
         ("blocks", J_int st.Obs.Tsdb.st_blocks);
         ("points", J_int st.Obs.Tsdb.st_points);
         ("disk_bytes", J_int st.Obs.Tsdb.st_disk_bytes);
         ("compression", J_float st.Obs.Tsdb.st_ratio);
         ("series", J_arr (List.map row (Obs.Tsdb.series ts)));
       ])

let query_json ts ~series ~from_ ~to_ ~step =
  let head =
    [ ("metric", J.J_str series); ("from", J_float from_); ("to", J_float to_) ]
  in
  J.to_string
    (match step with
    | Some step ->
      let bucket b =
        J.J_obj
          [
            ("t", J_float b.Obs.Tsdb.bk_t);
            ("min", J_float b.Obs.Tsdb.bk_min);
            ("max", J_float b.Obs.Tsdb.bk_max);
            ("avg", J_float b.Obs.Tsdb.bk_avg);
            ("count", J_int b.Obs.Tsdb.bk_count);
          ]
      in
      J_obj
        (head
        @ [
            ("step", J_float step);
            ( "buckets",
              J_arr
                (List.map bucket
                   (Obs.Tsdb.query_range ts ~series ~from_ ~to_ ~step)) );
          ])
    | None ->
      J_obj
        (head
        @ [
            ( "points",
              J_arr
                (List.map
                   (fun (t, v) -> J.J_arr [ J_float t; J_float v ])
                   (Obs.Tsdb.query ts ~series ~from_ ~to_)) );
          ]))

let spans_json () =
  J.to_string
    (J_arr
       (List.concat_map
          (fun (Wstore.Served s) ->
            List.map (span_obj s.name) (Obs.Board.spans s.board))
          (Wstore.served ())))

let exemplars_json () =
  J.to_string
    (J_arr
       (List.concat_map
          (fun (Wstore.Served s) ->
            match Obs.Board.sampler s.board with
            | None -> []
            | Some smp ->
              List.map (exemplar_obj s.name) (Obs.Sampler.exemplars smp))
          (Wstore.served ())))

let topo_dot net =
  let dot (Wstore.Served s) =
    Obs.Topo.to_dot
      ~profiler:(Obs.Board.profiler s.board)
      ~metrics:(Obs.Board.metrics s.board)
      s.net
  in
  match (net, Wstore.served ()) with
  | _, [] -> None
  | None, served -> Some (String.concat "\n" (List.map dot served))
  | Some n, served ->
    Option.map dot
      (List.find_opt (fun (Wstore.Served s) -> s.name = n) served)

(* ---------------- the write API ---------------- *)

let tenant_of rq =
  match Http.header rq "x-tenant" with
  | Some t when t <> "" -> t
  | _ -> (
    match Http.query rq "tenant" with
    | Some t when t <> "" -> t
    | _ -> "anon")

let retry_after s =
  [ ("retry-after", string_of_int (max 1 (int_of_float (ceil s)))) ]

let err_json msg = J.to_string (J_obj [ ("error", J_str msg) ])

let rejection = function
  | Admission.Admitted _ -> assert false
  | Admission.Busy s ->
    Router.json ~status:429 ~headers:(retry_after s)
      (err_json "tenant at its in-flight bound")
  | Admission.Overloaded s ->
    Router.json ~status:503 ~headers:(retry_after s)
      (err_json "server at its global write bound")
  | Admission.Quarantined s ->
    Router.json ~status:429 ~headers:(retry_after s)
      (err_json "tenant quarantined, cooling down")

let rejection_note = function
  | Admission.Admitted _ -> "admitted"
  | Admission.Busy _ -> "rejected: busy (429)"
  | Admission.Overloaded _ -> "rejected: overloaded (503)"
  | Admission.Quarantined _ -> "rejected: quarantined (429)"

(* Admission bracket.  The handler gets the ticket (for deadline
   checks) and an [over] cell; setting it records a strike on
   finish.  Under tracing, the decision is an "admit" span — a
   rejection finishes it as an annotated terminal span, so a 429/503
   still yields a complete trace. *)
let with_admission sv rq f =
  let tr = trace_of sv rq in
  let t0 =
    match tr with Some (t, _) -> Obs.Tracing.now t | None -> 0.0
  in
  let d = Admission.admit sv.sv_admission ~tenant:(tenant_of rq) in
  (match tr with
  | Some (t, ctx) ->
    Obs.Tracing.span t ~parent:ctx ~name:"admit" ~start:t0
      ~stop:(Obs.Tracing.now t) ~note:(rejection_note d)
  | None -> ());
  match d with
  | Admission.Admitted ticket ->
    let over = ref false in
    Fun.protect
      ~finally:(fun () ->
        Admission.finish sv.sv_admission ticket ~over_budget:!over)
      (fun () -> f ticket over)
  | d -> rejection d

let entry_for rq id =
  match Wstore.find ~id with
  | None ->
    Error (Router.json ~status:404 (err_json ("no such network: " ^ id)))
  | Some e ->
    if Wstore.tenant e <> tenant_of rq then
      Error
        (Router.json ~status:403 (err_json "network owned by another tenant"))
    else Ok e

let entry_obj e =
  J.J_obj
    [
      ("id", J_str (Wstore.id e));
      ("tenant", J_str (Wstore.tenant e));
      ("vars", J_int (List.length (Wstore.state e)));
      ("acked", J_int (Wstore.acked e));
      ( "journal",
        J.opt
          (fun j ->
            J.J_obj
              [
                ( "fsync",
                  J_str
                    (Format.asprintf "%a" Journal.pp_fsync
                       (Journal.fsync_policy j)) );
                ("size", J_int (Journal.size j));
                ("appended", J_int (Journal.appended j));
              ])
          (Wstore.journal e) );
    ]

let nets_json () = J.to_string (J_arr (List.map entry_obj (Wstore.list ())))

let state_json e =
  let row (path, v, just) =
    J.J_obj
      [
        ("var", J_str path);
        ("value", J.opt (fun v -> J.J_str v) v);
        ("just", J_str just);
      ]
  in
  J.to_string
    (J_obj
       [
         ("id", J_str (Wstore.id e));
         ("tenant", J_str (Wstore.tenant e));
         ("acked", J_int (Wstore.acked e));
         ("vars", J_arr (List.map row (Wstore.state e)));
       ])

let prov_span_obj (s : Obs.Provenance.span) =
  let open Obs.Provenance in
  J.J_obj
    [
      ("id", J_int s.sp_id);
      ("net", J_str s.sp_net);
      ("ep", J_int s.sp_episode);
      ("seq", J_int s.sp_seq);
      ("var", J_str s.sp_var);
      ("value", J.opt (fun v -> J.J_str v) s.sp_value);
      ("just", J_str s.sp_just);
      ("source", J_str s.sp_source);
      ("antecedents", J_arr (List.map (fun i -> J.J_int i) s.sp_antecedents));
      ("dead", J_bool s.sp_dead);
    ]

let body_lines rq =
  String.split_on_char '\n' rq.Http.rq_body
  |> List.filter (fun l -> String.trim l <> "")

let param_id rq = Option.value (Http.param rq "id") ~default:""

let create_handler sv rq =
  match Http.query rq "id" with
  | None -> Router.json ~status:422 (err_json "missing ?id=")
  | Some id ->
    with_admission sv rq (fun _ticket _over ->
        let step_budget =
          (Admission.config sv.sv_admission).Admission.ac_step_budget
        in
        match
          Wstore.create ~tenant:(tenant_of rq) ~step_budget ~id
            ~spec:rq.Http.rq_body ()
        with
        | Error msg ->
          let status = if Wstore.find ~id <> None then 409 else 422 in
          Router.json ~status (err_json msg)
        | Ok e -> Router.json ~status:201 (J.to_string (entry_obj e)))

let set_handler sv rq =
  match entry_for rq (param_id rq) with
  | Error reply -> reply
  | Ok e ->
    with_admission sv rq (fun ticket over ->
        match body_lines rq with
        | [] -> Router.json ~status:422 (err_json "empty set batch")
        | lines ->
          let results = ref [] in
          let applied = ref 0 and failed = ref 0 and aborted = ref 0 in
          let not_durable = ref false in
          let emit fields = results := J.J_obj fields :: !results in
          List.iter
            (fun line ->
              if !aborted > 0 || Admission.deadline_exceeded sv.sv_admission ticket
              then begin
                if !aborted = 0 then over := true;
                incr aborted
              end
              else
                match Result.bind (J.parse_line line) Wstore.decode_set with
                | Error msg ->
                  incr failed;
                  emit [ ("ok", J_bool false); ("error", J_str msg) ]
                | Ok (path, value, just) -> (
                  match
                    Wstore.apply_set ?trace:(trace_of sv rq) e ~path ~value ~just
                  with
                  | Ok () ->
                    incr applied;
                    emit [ ("var", J_str path); ("ok", J_bool true) ]
                  | Error err ->
                    (match err with
                    | Wstore.Violation { over_budget = true; _ } ->
                      over := true
                    | Wstore.Not_durable _ -> not_durable := true
                    | _ -> ());
                    incr failed;
                    emit
                      [
                        ("var", J_str path);
                        ("ok", J_bool false);
                        ("error", J_str (Wstore.set_error_message err));
                      ]))
            lines;
          let status =
            if !aborted > 0 then 503
            else if !not_durable then 500
            else if !failed > 0 then 422
            else 200
          in
          let headers = if !aborted > 0 then retry_after 1.0 else [] in
          Router.json ~status ~headers
            (J.to_string
               (J_obj
                  [
                    ("id", J_str (Wstore.id e));
                    ("applied", J_int !applied);
                    ("failed", J_int !failed);
                    ("aborted", J_int !aborted);
                    ("acked", J_int (Wstore.acked e));
                    ("results", J_arr (List.rev !results));
                  ])))

let why_handler rq =
  match entry_for rq (param_id rq) with
  | Error reply -> reply
  | Ok e -> (
    match Http.query rq "var" with
    | None -> Router.json ~status:422 (err_json "missing ?var=")
    | Some path ->
      let steps = Obs.Provenance.why (Wstore.prov e) path in
      let step st =
        J.J_obj
          [
            ("depth", J_int st.Obs.Provenance.ws_depth);
            ("span", prov_span_obj st.Obs.Provenance.ws_span);
          ]
      in
      Router.json
        (J.to_string
           (J_obj
              [ ("var", J_str path); ("chain", J_arr (List.map step steps)) ])))

let blame_handler rq =
  match entry_for rq (param_id rq) with
  | Error reply -> reply
  | Ok e -> (
    match Http.query rq "var" with
    | None -> Router.json ~status:422 (err_json "missing ?var=")
    | Some path ->
      let spans = Obs.Provenance.blame (Wstore.prov e) path in
      Router.json
        (J.to_string
           (J_obj
              [
                ("var", J_str path);
                ("downstream", J_arr (List.map prov_span_obj spans));
              ])))

let snapshot_handler rq =
  match entry_for rq (param_id rq) with
  | Error reply -> reply
  | Ok e -> (
    match Wstore.with_episode_lock (fun () -> Wstore.snapshot e) with
    | () -> Router.json (J.to_string (entry_obj e))
    | exception Journal.Failed msg -> Router.json ~status:500 (err_json msg))

let drop_handler rq =
  match entry_for rq (param_id rq) with
  | Error reply -> reply
  | Ok e ->
    let id = Wstore.id e in
    match Wstore.drop ~id with
    | _ -> Router.json (J.to_string (J_obj [ ("dropped", J_str id) ]))
    | exception Journal.Failed msg -> Router.json ~status:500 (err_json msg)

(* ---------------- the server ---------------- *)

let max_pending = 64

(* The write side of a dead peer raises; every one of these means
   "this connection is over", nothing more. *)
let dead_peer = function
  | Unix.Unix_error
      ( ( EPIPE | ECONNRESET | EAGAIN | EWOULDBLOCK | EBADF | ENOTCONN
        | ESHUTDOWN ),
        _,
        _ ) ->
    true
  | _ -> false

let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ())

let events_handler sv fd rq =
  let net = Http.query rq "net" in
  let capacity = Option.value (Http.query_int rq "cap") ~default:1024 in
  let max_lines = Option.value (Http.query_int rq "max") ~default:0 in
  (* Cap the kernel send buffer: the stream has its own drop-oldest
     queue, so megabytes of socket buffering only extend the window in
     which a stalled peer keeps this worker formatting lines.  With a
     small buffer the writer blocks early and the subscriber queue
     takes over as the only buffer, which is the designed behavior. *)
  (try Unix.setsockopt_int fd SO_SNDBUF 65536 with Unix.Unix_error _ -> ());
  let sub = Stream.subscribe ?net ~capacity hub in
  Fun.protect
    ~finally:(fun () -> Stream.unsubscribe hub sub)
    (fun () ->
      try
        Http.write_chunked_head fd ~status:200
          ~headers:
            [
              ("content-type", "application/x-ndjson");
              ("cache-control", "no-store");
              ("connection", "close");
            ];
        let stop () = not sv.sv_running in
        let n = ref 0 in
        let rec loop () =
          match Stream.next hub sub ~stop with
          | None -> ()
          | Some line ->
            Http.write_chunk fd (line ^ "\n");
            incr n;
            if max_lines = 0 || !n < max_lines then loop ()
        in
        loop ();
        Http.write_last_chunk fd
      with e when dead_peer e -> ())

let routes sv =
  let r = Router.create () in
  let get path h = Router.add r ~meth:"GET" ~path h in
  let post path h = Router.add r ~meth:"POST" ~path h in
  get "/" (fun _ ->
      Router.text
        "STEM telemetry server\n\n\
         GET /metrics    Prometheus text exposition\n\
         GET /healthz    watchdog roll-up (200 healthy / 503 firing)\n\
         GET /alerts     watchdog transitions, NDJSON\n\
         GET /exemplars  tail-sampled episodes, JSON\n\
         GET /spans      completed episode spans, JSON\n\
         GET /topo.dot   constraint graph, DOT (?net= selects)\n\
         GET /events     live trace stream, chunked NDJSON\n\
        \                (?net= filter, ?cap= queue bound, ?max= line limit)\n\
         GET /trace      request spans, Chrome trace-event JSON\n\
        \                (open in Perfetto / chrome://tracing)\n\n\
         Long-horizon history (404 until served with --history DIR):\n\
         GET /series     stored series + store statistics, JSON\n\
         GET /query      ?metric= range read, JSON\n\
        \                (?from= ?to= unix seconds, default last hour;\n\
        \                 ?step= buckets with min/max/avg, else raw points)\n\
         GET /slo        per-tenant burn rates and firing state, JSON\n\n\
         Write API (tenant = x-tenant header or ?tenant=, default anon):\n\
         GET  /nets            hosted networks, JSON\n\
         POST /nets?id=NAME    create from a spec body (201; 409 duplicate)\n\
         GET  /nets/:id/state  every variable, value and justification\n\
         POST /nets/:id/set    NDJSON batch, one object per line with\n\
        \                      string fields var, value and just\n\
         POST /nets/:id/why    ?var= backward causal chain, JSON\n\
         POST /nets/:id/blame  ?var= forward fan-out, JSON\n\
         POST /nets/:id/snapshot  checkpoint now (journal truncated)\n\
         POST /nets/:id/drop   final snapshot, then unhost\n\
         GET  /admission       per-tenant admission counters\n\n\
         Backpressure: 429 = tenant bound or quarantine, 503 = global\n\
         bound or mid-batch deadline; both carry retry-after seconds.\n");
  get "/metrics" (fun _ ->
      Router.text ~content_type:"text/plain; version=0.0.4; charset=utf-8"
        (render_metrics sv));
  get "/healthz" (fun _ -> Router.json ~status:(healthz_status ()) (healthz_json ()));
  get "/alerts" (fun _ -> Router.ndjson (alerts_ndjson ()));
  get "/exemplars" (fun _ -> Router.json (exemplars_json ()));
  get "/spans" (fun _ -> Router.json (spans_json ()));
  get "/topo.dot" (fun rq ->
      match topo_dot (Http.query rq "net") with
      | Some dot -> Router.text ~content_type:"text/vnd.graphviz" dot
      | None -> Router.text ~status:404 "no exposed network\n");
  get "/events" (fun _ -> Router.Stream_reply (events_handler sv));
  get "/trace" (fun _ -> Router.json (Obs.Tracing.chrome_json sv.sv_tracer));
  let history_disabled () =
    Router.json ~status:404
      (err_json "history disabled (serve with --history DIR)")
  in
  get "/series" (fun _ ->
      match sv.sv_history with
      | Some h -> Router.json (series_json h.hs_ts)
      | None -> history_disabled ());
  get "/query" (fun rq ->
      let qfloat name = Option.bind (Http.query rq name) float_of_string_opt in
      match sv.sv_history with
      | None -> history_disabled ()
      | Some { hs_ts = ts; _ } -> (
        match Http.query rq "metric" with
        | None -> Router.json ~status:422 (err_json "missing ?metric=")
        | Some series -> (
          let to_ =
            match qfloat "to" with Some t -> t | None -> Unix.gettimeofday ()
          in
          let from_ =
            match qfloat "from" with Some t -> t | None -> to_ -. 3600.
          in
          match Http.query rq "step" with
          | Some raw -> (
            match float_of_string_opt raw with
            | Some step when step > 0. ->
              Router.json (query_json ts ~series ~from_ ~to_ ~step:(Some step))
            | _ ->
              Router.json ~status:422
                (err_json "step must be a positive number"))
          | None -> Router.json (query_json ts ~series ~from_ ~to_ ~step:None))));
  get "/slo" (fun _ -> Router.json (slos_json sv));
  get "/nets" (fun _ -> Router.json (nets_json ()));
  post "/nets" (create_handler sv);
  get "/nets/:id/state" (fun rq ->
      match entry_for rq (param_id rq) with
      | Error reply -> reply
      | Ok e -> Router.json (state_json e));
  post "/nets/:id/set" (set_handler sv);
  post "/nets/:id/why" why_handler;
  post "/nets/:id/blame" blame_handler;
  post "/nets/:id/snapshot" snapshot_handler;
  post "/nets/:id/drop" drop_handler;
  get "/admission" (fun _ -> Router.json (Admission.stats_json sv.sv_admission));
  r

let rec serve_requests sv conn =
  (* one boolean load per request when tracing is off; the clock is
     only read on the traced path *)
  let tracer = sv.sv_tracer in
  let tr = Obs.Tracing.enabled tracer in
  let t0 = if tr then Obs.Tracing.now tracer else 0.0 in
  match Http.read_request conn with
  | Error Http.Closed | Error Http.Truncated -> ()
  | Error Http.Too_large ->
    Http.write_response (Http.fd conn) ~status:431
      ~headers:[ ("connection", "close") ]
      ~body:"request head too large\n"
  | Error (Http.Bad msg) ->
    Http.write_response (Http.fd conn) ~status:400
      ~headers:[ ("connection", "close") ]
      ~body:(msg ^ "\n")
  | Ok rq -> (
    Obs.Metrics.tick sv.sv_requests;
    match Http.read_body conn rq with
    | Error Http.Too_large ->
      Http.write_response (Http.fd conn) ~status:413
        ~headers:[ ("connection", "close") ]
        ~body:"request body too large\n"
    | Error (Http.Bad msg) ->
      Http.write_response (Http.fd conn) ~status:400
        ~headers:[ ("connection", "close") ]
        ~body:(msg ^ "\n")
    | Error (Http.Closed | Http.Truncated) -> ()
    | Ok () -> (
    (* root span opens at [t0] (first byte), so head+body parsing is
       inside the trace; its final name is the matched route pattern
       (low cardinality), bound by dispatch below *)
    let root =
      if tr then begin
        let h =
          Obs.Tracing.start ~at:t0 tracer
            ~parent:(Obs.Tracing.new_trace tracer)
            rq.Http.rq_method
        in
        let ctx = Obs.Tracing.ctx_of h in
        rq.Http.rq_ctx <- Some ctx;
        Obs.Tracing.span tracer ~parent:ctx ~name:"parse" ~start:t0
          ~stop:(Obs.Tracing.now tracer) ~note:"";
        Some h
      end
      else None
    in
    let finish_root note =
      Option.iter
        (fun h ->
          let route =
            if rq.Http.rq_route <> "" then rq.Http.rq_route
            else rq.Http.rq_path
          in
          Obs.Tracing.finish tracer h
            ~name:(rq.Http.rq_method ^ " " ^ route)
            ~note)
        root
    in
    let head_only = rq.Http.rq_method = "HEAD" in
    match Router.dispatch sv.sv_router rq with
    | Router.Stream_reply _ when head_only ->
      (* a stream has no fixed length; answer the head and stop *)
      Http.write_response (Http.fd conn) ~status:200
        ~headers:
          [
            ("content-type", "application/x-ndjson");
            ("connection", "close");
          ]
        ~body:"";
      finish_root "stream-head"
    | Router.Stream_reply f ->
      f (Http.fd conn) rq;
      finish_root "stream"
    | Router.Reply { status; headers; body } ->
      let keep = Http.keep_alive rq && sv.sv_running in
      Http.write_response ~head_only (Http.fd conn) ~status
        ~headers:
          (headers @ [ ("connection", if keep then "keep-alive" else "close") ])
        ~body;
      finish_root (string_of_int status);
      if keep then serve_requests sv conn))

let handle_connection sv fd =
  Mutex.lock sv.sv_mu;
  sv.sv_conns <- fd :: sv.sv_conns;
  Mutex.unlock sv.sv_mu;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock sv.sv_mu;
      sv.sv_conns <- List.filter (fun c -> c != fd) sv.sv_conns;
      Mutex.unlock sv.sv_mu;
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try serve_requests sv (Http.conn fd) with e when dead_peer e -> ())

let worker_loop sv =
  let rec loop () =
    Mutex.lock sv.sv_mu;
    while Queue.is_empty sv.sv_queue && sv.sv_running do
      Condition.wait sv.sv_cond sv.sv_mu
    done;
    let job = Queue.take_opt sv.sv_queue in
    Mutex.unlock sv.sv_mu;
    match job with
    | Some fd ->
      handle_connection sv fd;
      loop ()
    | None -> if sv.sv_running then loop ()
  in
  loop ()

let accept_loop sv =
  let rec loop () =
    match Unix.accept ~cloexec:true sv.sv_fd with
    | exception Unix.Unix_error ((EBADF | EINVAL), _, _) -> ()
    | exception Unix.Unix_error ((ECONNABORTED | EINTR), _, _) ->
      if sv.sv_running then loop ()
    | fd, _ ->
      if not sv.sv_running then (
        (try Unix.close fd with Unix.Unix_error _ -> ());
        ())
      else begin
        (* a stalled peer must tie up one worker for at most this long *)
        (try
           Unix.setsockopt_float fd SO_RCVTIMEO 10.0;
           Unix.setsockopt_float fd SO_SNDTIMEO 10.0
         with Unix.Unix_error _ -> ());
        Mutex.lock sv.sv_mu;
        let shed = Queue.length sv.sv_queue >= max_pending in
        if not shed then begin
          Queue.push fd sv.sv_queue;
          Condition.signal sv.sv_cond
        end;
        Mutex.unlock sv.sv_mu;
        if shed then begin
          (try
             Http.write_response fd ~status:503
               ~headers:[ ("connection", "close") ]
               ~body:"server overloaded\n"
           with _ -> ());
          try Unix.close fd with Unix.Unix_error _ -> ()
        end;
        loop ()
      end
  in
  loop ()

let start ?(bind_addr = "127.0.0.1") ?(port = 9464) ?(workers = 4)
    ?(admission = Admission.create ()) ?history () =
  Lazy.force ignore_sigpipe;
  let addr = Unix.inet_addr_of_string bind_addr in
  let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd SO_REUSEADDR true;
     Unix.bind fd (ADDR_INET (addr, port));
     Unix.listen fd 64
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let actual_port =
    match Unix.getsockname fd with ADDR_INET (_, p) -> p | _ -> port
  in
  let self = Obs.Metrics.create () in
  let sv =
    {
      sv_fd = fd;
      sv_port = actual_port;
      sv_router = Router.create ();
      sv_running = true;
      sv_threads = [];
      sv_queue = Queue.create ();
      sv_mu = Mutex.create ();
      sv_cond = Condition.create ();
      sv_conns = [];
      sv_admission = admission;
      sv_tracer =
        Obs.Tracing.create ~capacity:4096 ~stage_prefix:"serve.stage."
          ~stages:[ "parse"; "admit"; "episode"; "append"; "fsync" ]
          ();
      sv_history =
        Option.map (fun ts -> { hs_ts = ts; hs_slos = Hashtbl.create 8 }) history;
      sv_self = self;
      sv_requests = Obs.Metrics.counter self "serve.requests";
      sv_published = Obs.Metrics.counter self "serve.events_published";
      sv_dropped = Obs.Metrics.counter self "serve.events_dropped";
      sv_subs = Obs.Metrics.gauge self "serve.events_subscribers";
    }
  in
  Option.iter wire_history sv.sv_history;
  (* the routes close over [sv] (for the /events stop predicate) *)
  sv.sv_router <- routes sv;
  let threads =
    Thread.create accept_loop sv
    :: List.init (max 1 workers) (fun _ -> Thread.create worker_loop sv)
  in
  sv.sv_threads <- threads;
  sv

let stop sv =
  if sv.sv_running then begin
    sv.sv_running <- false;
    (* wake the accept thread: shutdown unblocks accept on Linux; the
       throwaway connect covers platforms where it does not *)
    (try Unix.shutdown sv.sv_fd SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try
       let fd = Unix.socket PF_INET SOCK_STREAM 0 in
       (try
          Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, sv.sv_port))
        with Unix.Unix_error _ -> ());
       Unix.close fd
     with Unix.Unix_error _ -> ());
    (try Unix.close sv.sv_fd with Unix.Unix_error _ -> ());
    (* wake /events streams blocked on the hub *)
    Stream.kick hub;
    (* unblock workers stuck writing to stalled peers, and idle ones *)
    Mutex.lock sv.sv_mu;
    List.iter
      (fun fd -> try Unix.shutdown fd SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      sv.sv_conns;
    Condition.broadcast sv.sv_cond;
    Mutex.unlock sv.sv_mu;
    List.iter Thread.join sv.sv_threads;
    (* anything still queued but never served *)
    Queue.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      sv.sv_queue;
    Queue.clear sv.sv_queue;
    (* withdraw what this server attached to served networks *)
    Wstore.untrace sv.sv_tracer;
    Option.iter unwire_history sv.sv_history
  end
