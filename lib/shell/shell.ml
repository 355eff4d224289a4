(* The interactive constraint editor (§5.4), line-command edition.

   The paper's constraint-editor windows let a designer walk a network,
   examine all variables of a constraint and all constraints of a
   variable, trace antecedents and consequences, instantiate or remove
   constraints, assign values, and toggle propagation.  This REPL offers
   the same operations over stdin/stdout (so it is also scriptable). *)

open Constraint_kernel

(* A shell session is an environment plus its observability board: the
   board's ring/metrics/profiler sinks are attached for the session's
   lifetime, and an optional JSONL exporter can be toggled per file. *)
type session = {
  ss_env : Stem.Design.env;
  ss_board : Dval.t Obs.Board.t;
  ss_prov : Dval.t Obs.Provenance.t;
  mutable ss_jsonl : (string * out_channel) option;
  mutable ss_serve : Serve.t option;
  mutable ss_history : Obs.Tsdb.t option;  (* opened by [history DIR] *)
}

let session env =
  { ss_env = env; ss_board = Obs.Board.attach ~monitor:true (Stem.Env.cnet env);
    ss_prov =
      Obs.Provenance.attach ~pp_value:Dval.to_string (Stem.Env.cnet env);
    ss_jsonl = None; ss_serve = None; ss_history = None }

let serve_off ss =
  match ss.ss_serve with
  | None -> false
  | Some sv ->
    Serve.stop sv;
    let name = (Stem.Env.cnet ss.ss_env).Types.net_name in
    ignore (Serve.unexpose name);
    (* withdrawal unwired the board; the session's own sampling goes on *)
    Option.iter
      (fun ts -> Obs.Board.set_history ~prefix:name ss.ss_board (Some ts))
      ss.ss_history;
    ss.ss_serve <- None;
    true

(* Seal and close a history store; a failed sync is reported, not
   swallowed.  [true] when it sealed. *)
let close_history ts =
  match Obs.Tsdb.close ts with
  | () -> true
  | exception Unix.Unix_error (e, _, _) ->
    Fmt.pr "  history fsync failed in %s: %s@." (Obs.Tsdb.dir ts)
      (Unix.error_message e);
    false

let trace_off ss =
  match ss.ss_jsonl with
  | None -> false
  | Some (_, oc) ->
    ignore (Engine.remove_sink (Stem.Env.cnet ss.ss_env) "jsonl");
    close_out_noerr oc;
    ss.ss_jsonl <- None;
    true

let help_text =
  "commands:\n\
  \  vars [SUBSTR]          list variables (optionally filtered)\n\
  \  cstrs                  list constraints\n\
  \  show PATH              one variable with value and justification\n\
  \  inspect PATH           variable plus its constraints\n\
  \  cstr ID                one constraint with its arguments\n\
  \  set PATH VALUE         assign (designer entry; propagates + checks)\n\
  \  reset PATH             erase a value (cascades update-constraints)\n\
  \  antecedents PATH       backward dependency trace\n\
  \  consequences PATH      forward dependency trace\n\
  \  disable ID / enable ID toggle one constraint\n\
  \  remove ID              remove a constraint (erases its dependents)\n\
  \  on / off               constraint propagation switch (CPSwitch)\n\
  \  check                  list currently unsatisfied constraints\n\
  \  quarantine             list quarantined constraints with reasons\n\
  \  clearq ID              lift a quarantine and re-initialise\n\
  \  threshold N            failures before auto-quarantine (0 = never)\n\
  \  budget N|off           per-episode inference step budget\n\
  \  audit                  cross-reference / justification integrity audit\n\
  \  dump                   network summary\n\
  \  metrics                episode/event metrics (latency histograms &c)\n\
  \  spans [N]              last N completed episode spans (default all)\n\
  \  hotspots [K]           top-K constraint kinds by activation count\n\
  \  trace jsonl FILE       start exporting trace events to FILE (JSONL)\n\
  \  trace off              stop the JSONL export\n\
  \  health                 one-shot health report (window, alerts, exemplars)\n\
  \  window [N]             last N completed telemetry windows + the current one\n\
  \  exemplars [N]          captured episode exemplars; N = full trace of the N-th newest\n\
  \  alerts                 watchdog status and alert transitions\n\
  \  dot FILE               write the constraint graph (heat-annotated DOT) to FILE\n\
  \  topo                   structural statistics (fan-out, depth, cycles)\n\
  \  why PATH               causal chain: why does PATH hold its value?\n\
  \  blame PATH             forward fan-out: everything derived from PATH\n\
  \  critical [EP]          longest causal chain of an episode (default last)\n\
  \  tracetree              episode tree of the session's network\n\
  \  replay FILE [SEQ]      replay a JSONL trace (to SEQ) and diff vs live\n\
  \  serve [PORT]           start the HTTP telemetry server (default port 9464)\n\
  \  unserve                stop the telemetry server\n\
  \  host ID [TENANT]       offer this network to the HTTP write API as ID\n\
  \  unhost ID              withdraw it from the write API\n\
  \  history [DIR|off]      long-horizon telemetry store: status / enable / seal\n\
  \  sparkline SERIES [SEC] unicode sparkline of a stored series (default last 300 s)\n\
  \  tracing [on|off]       the server's request tracing for hosted-net writes\n\
  \  chrome FILE            write the server's request spans as Chrome trace JSON\n\
  \  help                   this text\n\
  \  quit                   leave the editor"

let with_var cnet path f =
  match Editor.find_var cnet path with
  | Some v -> f v
  | None -> Fmt.pr "no variable %S (try: vars %s)@." path path

let with_cstr cnet id_str f =
  match int_of_string_opt id_str with
  | None -> Fmt.pr "constraint id must be an integer@."
  | Some id -> (
    match Editor.find_cstr cnet id with
    | Some c -> f c
    | None -> Fmt.pr "no constraint #%d@." id)

let execute ss line =
  let cnet = Stem.Env.cnet ss.ss_env in
  let words =
    String.split_on_char ' ' (String.trim line) |> List.filter (fun w -> w <> "")
  in
  match words with
  | [] -> true
  | [ "quit" ] | [ "q" ] | [ "exit" ] -> false
  | [ "help" ] ->
    Fmt.pr "%s@." help_text;
    true
  | [ "vars" ] | "vars" :: _ ->
    let filter = match words with _ :: f :: _ -> f | _ -> "" in
    List.iter
      (fun v -> Fmt.pr "  %a@." Var.pp_full v)
      (Editor.grep_vars cnet filter);
    true
  | [ "cstrs" ] ->
    List.iter
      (fun c -> Fmt.pr "  %a%s@." Cstr.pp c (if Cstr.is_enabled c then "" else " (disabled)"))
      (List.rev cnet.Types.net_cstrs);
    true
  | [ "show"; path ] ->
    with_var cnet path (fun v -> Fmt.pr "  %a@." Var.pp_full v);
    true
  | [ "inspect"; path ] ->
    with_var cnet path (fun v -> Fmt.pr "%a@." Editor.inspect_var v);
    true
  | [ "cstr"; id ] ->
    with_cstr cnet id (fun c -> Fmt.pr "%a@." Editor.inspect_cstr c);
    true
  | "set" :: path :: rest ->
    let value_text = String.concat " " rest in
    (match Dval.of_string value_text with
    | None -> Fmt.pr "cannot parse value %S (ints, floats, rect X Y W H, data:T, elec:T)@." value_text
    | Some value ->
      with_var cnet path (fun v ->
          match Engine.set cnet v value with
          | Ok () -> Fmt.pr "  ok: %a@." Var.pp_full v
          | Error viol -> Fmt.pr "  !! %a (values restored)@." Types.pp_violation viol));
    true
  | [ "reset"; path ] ->
    with_var cnet path (fun v ->
        ignore (Engine.reset cnet v);
        Fmt.pr "  ok: %a@." Var.pp_full v);
    true
  | [ "antecedents"; path ] ->
    with_var cnet path (fun v -> Fmt.pr "%a@." Editor.trace_antecedents v);
    true
  | [ "consequences"; path ] ->
    with_var cnet path (fun v -> Fmt.pr "%a@." Editor.trace_consequences v);
    true
  | [ "disable"; id ] ->
    with_cstr cnet id (fun c ->
        Cstr.set_enabled c false;
        Fmt.pr "  disabled %a@." Cstr.pp c);
    true
  | [ "enable"; id ] ->
    with_cstr cnet id (fun c ->
        Cstr.set_enabled c true;
        Fmt.pr "  enabled %a@." Cstr.pp c);
    true
  | [ "remove"; id ] ->
    with_cstr cnet id (fun c ->
        Network.remove_constraint cnet c;
        Fmt.pr "  removed #%s; dependent values erased@." id);
    true
  | [ "on" ] ->
    Engine.enable cnet;
    Fmt.pr "  propagation on@.";
    true
  | [ "off" ] ->
    Engine.disable cnet;
    Fmt.pr "  propagation off@.";
    true
  | [ "check" ] ->
    (match Editor.unsatisfied cnet with
    | [] -> Fmt.pr "  all constraints satisfied@."
    | bad -> List.iter (fun c -> Fmt.pr "  VIOLATED %a@." Cstr.pp c) bad);
    true
  | [ "quarantine" ] ->
    (match Network.quarantined cnet with
    | [] -> Fmt.pr "  no quarantined constraints@."
    | qs ->
      List.iter
        (fun c ->
          Fmt.pr "  %a — %s@." Cstr.pp c
            (Option.value ~default:"(no reason recorded)" (Cstr.quarantined c)))
        qs);
    true
  | [ "clearq"; id ] ->
    with_cstr cnet id (fun c ->
        if not (Cstr.is_quarantined c) then
          Fmt.pr "  #%s is not quarantined@." id
        else
          match Network.clear_quarantine cnet c with
          | Ok () -> Fmt.pr "  quarantine lifted: %a@." Cstr.pp c
          | Error viol ->
            Fmt.pr "  quarantine lifted, but re-initialisation failed: %a@."
              Types.pp_violation viol);
    true
  | [ "threshold"; n ] ->
    (match int_of_string_opt n with
    | Some n when n >= 0 ->
      Engine.set_fail_threshold cnet n;
      if n = 0 then Fmt.pr "  auto-quarantine off@."
      else Fmt.pr "  quarantine after %d failure(s)@." n
    | _ -> Fmt.pr "  threshold must be a non-negative integer@.");
    true
  | [ "budget"; b ] ->
    (match b with
    | "off" ->
      Engine.set_step_budget cnet None;
      Fmt.pr "  step budget off@.";
      true
    | _ ->
      (match int_of_string_opt b with
      | Some n when n > 0 ->
        Engine.set_step_budget cnet (Some n);
        Fmt.pr "  step budget: %d inference(s) per episode@." n
      | _ -> Fmt.pr "  budget must be a positive integer or 'off'@.");
      true)
  | [ "audit" ] ->
    (match Network.check_integrity cnet with
    | [] -> Fmt.pr "  network integrity ok@."
    | issues -> List.iter (fun i -> Fmt.pr "  INTEGRITY %s@." i) issues);
    true
  | [ "dump" ] ->
    Fmt.pr "%a@." Editor.dump_network cnet;
    true
  | [ "metrics" ] ->
    Fmt.pr "%a@." Obs.Metrics.render (Obs.Board.metrics ss.ss_board);
    true
  | "spans" :: rest ->
    let spans = Obs.Board.spans ss.ss_board in
    let spans =
      match rest with
      | [ n ] -> (
        match int_of_string_opt n with
        | Some n when n >= 0 ->
          let len = List.length spans in
          if len > n then List.filteri (fun i _ -> i >= len - n) spans
          else spans
        | _ ->
          Fmt.pr "  span count must be a non-negative integer@.";
          [])
      | _ -> spans
    in
    if spans = [] then Fmt.pr "  no completed episodes in the ring@."
    else List.iter (fun sp -> Fmt.pr "  %a@." Types.pp_span sp) spans;
    true
  | "hotspots" :: rest ->
    let k = match rest with [ n ] -> int_of_string_opt n | _ -> Some 5 in
    (match k with
    | Some k ->
      Fmt.pr "%a@."
        (Obs.Profiler.pp_hotspots ~k)
        (Obs.Board.profiler ss.ss_board)
    | None -> Fmt.pr "  hotspot count must be an integer@.");
    true
  | [ "trace"; "jsonl"; file ] ->
    ignore (trace_off ss);
    (match open_out file with
    | oc ->
      Engine.add_sink cnet
        (Obs.Jsonl.channel_sink ~pp_value:Dval.to_string oc);
      ss.ss_jsonl <- Some (file, oc);
      Fmt.pr "  tracing to %s (JSONL)@." file
    | exception Sys_error msg -> Fmt.pr "  cannot open %s: %s@." file msg);
    true
  | [ "trace"; "off" ] ->
    if trace_off ss then Fmt.pr "  trace export stopped@."
    else Fmt.pr "  no trace export active@.";
    true
  | [ "health" ] ->
    Obs.Board.checkpoint ss.ss_board;
    Fmt.pr "%a@." Obs.Board.pp_health ss.ss_board;
    Fmt.pr "%a@." Editor.pp_agenda cnet;
    true
  | "window" :: rest ->
    (match Obs.Board.window ss.ss_board with
    | None -> Fmt.pr "  monitoring off@."
    | Some w ->
      let completed = Obs.Window.completed w in
      let completed =
        match rest with
        | [ n ] -> (
          match int_of_string_opt n with
          | Some n when n >= 0 ->
            let len = List.length completed in
            if len > n then List.filteri (fun i _ -> i >= len - n) completed
            else completed
          | _ ->
            Fmt.pr "  window count must be a non-negative integer@.";
            [])
        | _ -> completed
      in
      List.iter
        (fun s -> Fmt.pr "  %a@." Obs.Window.pp_snapshot s)
        completed;
      let cur = Obs.Window.current w in
      Fmt.pr "  current %a@." Obs.Window.pp_snapshot cur);
    true
  | "exemplars" :: rest ->
    (match Obs.Board.sampler ss.ss_board with
    | None -> Fmt.pr "  monitoring off@."
    | Some sam -> (
      let exs = List.rev (Obs.Sampler.exemplars sam) in
      (* newest first *)
      match rest with
      | [] ->
        if exs = [] then Fmt.pr "  no exemplars captured yet@."
        else
          List.iteri
            (fun i ex -> Fmt.pr "  %2d. %a@." (i + 1) Obs.Sampler.pp_exemplar ex)
            exs
      | [ n ] -> (
        match int_of_string_opt n with
        | Some n when n >= 1 && n <= List.length exs ->
          Fmt.pr "%a@." Obs.Sampler.pp_exemplar_events (List.nth exs (n - 1))
        | Some _ -> Fmt.pr "  no exemplar #%s (have %d)@." n (List.length exs)
        | None -> Fmt.pr "  exemplar index must be an integer@.")
      | _ -> Fmt.pr "  usage: exemplars [N]@."));
    true
  | [ "alerts" ] ->
    (match Obs.Board.watchdog ss.ss_board with
    | None -> Fmt.pr "  monitoring off@."
    | Some wd ->
      Fmt.pr "  status: %a@." Obs.Watchdog.pp_status wd;
      (match Obs.Watchdog.alerts wd with
      | [] -> Fmt.pr "  no alert transitions recorded@."
      | alerts ->
        List.iter (fun a -> Fmt.pr "  %a@." Obs.Watchdog.pp_alert a) alerts));
    true
  | [ "dot"; file ] ->
    let dot =
      Obs.Topo.to_dot
        ~profiler:(Obs.Board.profiler ss.ss_board)
        ~metrics:(Obs.Board.metrics ss.ss_board)
        cnet
    in
    (match open_out file with
    | oc ->
      output_string oc dot;
      close_out oc;
      let s = Obs.Topo.stats cnet in
      Fmt.pr "  wrote %s (%d vars, %d constraints, %d edges)@." file
        s.Obs.Topo.tp_vars s.Obs.Topo.tp_cstrs s.Obs.Topo.tp_edges
    | exception Sys_error msg -> Fmt.pr "  cannot open %s: %s@." file msg);
    true
  | [ "topo" ] ->
    Fmt.pr "%a@." Obs.Topo.pp_stats (Obs.Topo.stats cnet);
    true
  | [ "why"; path ] ->
    with_var cnet path (fun v ->
        Fmt.pr "%a@." Obs.Provenance.pp_why
          (Obs.Provenance.why ss.ss_prov (Var.path v)));
    true
  | [ "blame"; path ] ->
    with_var cnet path (fun v ->
        match Obs.Provenance.blame ss.ss_prov (Var.path v) with
        | [] -> Fmt.pr "  nothing derived from %s@." (Var.path v)
        | spans -> List.iter (fun sp -> Fmt.pr "  %a@." Obs.Provenance.pp_span sp) spans);
    true
  | "critical" :: rest ->
    let episode =
      match rest with
      | [ e ] -> (
        match int_of_string_opt e with
        | Some _ as ep -> Ok ep
        | None -> Error ())
      | _ -> Ok None
    in
    (match episode with
    | Error () -> Fmt.pr "  episode id must be an integer@."
    | Ok episode ->
      Fmt.pr "%a@." Obs.Provenance.pp_chain
        (Obs.Provenance.critical_path ss.ss_prov ?episode ()));
    true
  | [ "tracetree" ] ->
    Fmt.pr "%a@." Obs.Provenance.pp_forest
      (Obs.Provenance.episode_forest ss.ss_prov);
    true
  | "replay" :: file :: rest ->
    (match Obs.Replay.of_file file with
    | rp ->
      List.iter
        (fun (lineno, msg) -> Fmt.pr "  warning: line %d: %s@." lineno msg)
        (Obs.Replay.warnings rp);
      let target = match rest with [ s ] -> int_of_string_opt s | _ -> None in
      (match target with
      | Some seq -> Obs.Replay.seek_seq rp seq
      | None -> Obs.Replay.to_end rp);
      Fmt.pr "  %d/%d event(s) applied (max seq %d)@." (Obs.Replay.position rp)
        (Obs.Replay.length rp) (Obs.Replay.max_seq rp);
      List.iter
        (fun (var, value) -> Fmt.pr "  %s = %s@." var value)
        (Obs.Replay.snapshot rp);
      if rest = [] then (
        (* a full replay should agree with the live network *)
        match Obs.Replay.diff_live rp ~pp_value:Dval.to_string cnet with
        | [] -> Fmt.pr "  replay matches the live network@."
        | divs ->
          List.iter
            (fun d -> Fmt.pr "  DIVERGENCE %a@." Obs.Replay.pp_divergence d)
            divs)
    | exception Sys_error msg -> Fmt.pr "  cannot read %s: %s@." file msg);
    true
  | "serve" :: rest ->
    (match ss.ss_serve with
    | Some sv -> Fmt.pr "  already serving on port %d (unserve first)@." (Serve.port sv)
    | None -> (
      let port = match rest with [ p ] -> int_of_string_opt p | _ -> Some 9464 in
      match port with
      | None -> Fmt.pr "  port must be an integer@."
      | Some port -> (
        Serve.expose ~pp_value:Dval.to_string ~board:ss.ss_board cnet;
        match Serve.start ~port ?history:ss.ss_history () with
        | sv ->
          ss.ss_serve <- Some sv;
          Fmt.pr "  telemetry server on http://127.0.0.1:%d (metrics, healthz, events, ...)@."
            (Serve.port sv)
        | exception Unix.Unix_error (e, _, _) ->
          ignore (Serve.unexpose cnet.Types.net_name);
          Fmt.pr "  cannot bind port %d: %s@." port (Unix.error_message e))));
    true
  | [ "unserve" ] ->
    if serve_off ss then Fmt.pr "  telemetry server stopped@."
    else Fmt.pr "  no telemetry server running@.";
    true
  | "host" :: id :: rest ->
    (let tenant = match rest with [ t ] -> Some t | _ -> None in
     match
       Serve.Wstore.adopt ?tenant ~id ~net:cnet ~board:ss.ss_board
         ~prov:ss.ss_prov ()
     with
     | Ok e ->
       Fmt.pr "  hosted as %S for tenant %S (POST /nets/%s/set)@."
         (Serve.Wstore.id e) (Serve.Wstore.tenant e) (Serve.Wstore.id e)
     | Error msg -> Fmt.pr "  cannot host: %s@." msg);
    true
  | [ "unhost"; id ] ->
    if Serve.Wstore.drop ~id then Fmt.pr "  %S unhosted@." id
    else Fmt.pr "  no hosted network %S@." id;
    true
  | [ "history" ] ->
    (match ss.ss_history with
    | None -> Fmt.pr "  history off (history DIR to enable)@."
    | Some ts ->
      let st = Obs.Tsdb.stats ts in
      Fmt.pr
        "  history in %s: %d series, %d points, %d segments, %d bytes on \
         disk (%.1fx compression)@."
        (Obs.Tsdb.dir ts)
        (List.length (Obs.Tsdb.series ts))
        st.Obs.Tsdb.st_points st.Obs.Tsdb.st_segments
        st.Obs.Tsdb.st_disk_bytes st.Obs.Tsdb.st_ratio);
    true
  | [ "history"; _ ] when Option.is_some ss.ss_serve ->
    Fmt.pr "  the server samples the store it started with (unserve first)@.";
    true
  | [ "history"; "off" ] ->
    (match ss.ss_history with
    | None -> Fmt.pr "  history already off@."
    | Some ts ->
      Obs.Board.set_history ss.ss_board None;
      ss.ss_history <- None;
      if close_history ts then Fmt.pr "  history off, store sealed@."
      else Fmt.pr "  history off@.");
    true
  | [ "history"; dir ] ->
    (match Obs.Tsdb.open_ dir with
    | ts ->
      Option.iter (fun old -> ignore (close_history old)) ss.ss_history;
      ss.ss_history <- Some ts;
      List.iter
        (fun w -> Fmt.pr "  recovery: %s@." w)
        (Obs.Tsdb.recovery_warnings ts);
      Obs.Board.set_history ~prefix:cnet.Types.net_name ss.ss_board (Some ts);
      let st = Obs.Tsdb.stats ts in
      Fmt.pr
        "  history in %s (%d points on disk); sampling every window tick@."
        dir st.Obs.Tsdb.st_points
    | exception Unix.Unix_error (e, _, _) ->
      Fmt.pr "  cannot open %s: %s@." dir (Unix.error_message e));
    true
  | "sparkline" :: series :: rest ->
    (match ss.ss_history with
    | None -> Fmt.pr "  history off (history DIR first)@."
    | Some ts -> (
      let secs =
        match rest with [ s ] -> float_of_string_opt s | _ -> Some 300.
      in
      match secs with
      | None | Some 0. -> Fmt.pr "  seconds must be a positive number@."
      | Some secs -> (
        let to_ = Unix.gettimeofday () in
        let from_ = to_ -. secs in
        match Obs.Tsdb.query ts ~series ~from_ ~to_ with
        | [] ->
          Fmt.pr "  no samples for %S in the last %gs@." series secs
        | pts ->
          let vs = List.map snd pts in
          (* one glyph per time bucket keeps the line terminal-width *)
          let line =
            if List.length pts <= 60 then Obs.Tsdb.sparkline vs
            else
              Obs.Tsdb.sparkline
                (List.map
                   (fun b -> b.Obs.Tsdb.bk_avg)
                   (Obs.Tsdb.query_range ts ~series ~from_ ~to_
                      ~step:(secs /. 60.)))
          in
          let mn = List.fold_left min infinity vs
          and mx = List.fold_left max neg_infinity vs in
          Fmt.pr "  %s@.  min %g  max %g  last %g  (%d samples / last %gs)@."
            line mn mx
            (List.nth vs (List.length vs - 1))
            (List.length pts) secs)));
    true
  | [ "tracing"; ("on" | "off") as sw ] ->
    (match ss.ss_serve with
    | None -> Fmt.pr "  request tracing belongs to the server (serve first)@."
    | Some sv ->
      Obs.Tracing.set_enabled (Serve.tracer sv) (sw = "on");
      if sw = "on" then
        Fmt.pr
          "  request tracing on: hosted-net writes record \
           parse/admit/episode/append spans (GET /trace, chrome FILE)@."
      else Fmt.pr "  request tracing off@.");
    true
  | [ "tracing" ] ->
    Fmt.pr "  request tracing is %s@."
      (match ss.ss_serve with
      | Some sv when Obs.Tracing.enabled (Serve.tracer sv) -> "on"
      | _ -> "off");
    true
  | [ "chrome"; file ] ->
    (match ss.ss_serve with
    | None -> Fmt.pr "  no server, no request spans (serve first)@."
    | Some sv -> (
      match
        Out_channel.with_open_text file (fun oc ->
            Out_channel.output_string oc
              (Obs.Tracing.chrome_json (Serve.tracer sv)))
      with
      | () ->
        Fmt.pr
          "  chrome trace written to %s (load it in Perfetto or \
           chrome://tracing)@."
          file
      | exception Sys_error msg -> Fmt.pr "  cannot write %s: %s@." file msg));
    true
  | cmd :: _ ->
    Fmt.pr "unknown command %S (try: help)@." cmd;
    true

let close ss =
  ignore (serve_off ss);
  ignore (trace_off ss);
  Obs.Board.set_history ss.ss_board None;
  Option.iter (fun ts -> ignore (close_history ts)) ss.ss_history;
  (* withdraw any write-API hosting of this session's network *)
  List.iter
    (fun e ->
      if Serve.Wstore.net e == Stem.Env.cnet ss.ss_env then
        ignore (Serve.Wstore.drop ~id:(Serve.Wstore.id e)))
    (Serve.Wstore.list ());
  Obs.Provenance.detach ss.ss_prov;
  Obs.Board.detach (Stem.Env.cnet ss.ss_env)

let run env =
  Fmt.pr "STEM constraint editor — 'help' for commands, 'quit' to leave@.";
  let ss = session env in
  let rec loop () =
    Fmt.pr "stem> %!";
    match In_channel.input_line stdin with
    | None -> ()
    | Some line -> if execute ss line then loop ()
  in
  Fun.protect ~finally:(fun () -> close ss) loop

(* run a whole script (for tests and batch use); returns the combined
   output of all commands *)
let execute_script env lines =
  let buf = Buffer.create 256 in
  let old = Format.get_formatter_output_functions () in
  Format.set_formatter_output_functions (Buffer.add_substring buf) (fun () -> ());
  let restore () =
    Format.print_flush ();
    let out, flush = old in
    Format.set_formatter_output_functions out flush
  in
  let ss = session env in
  Fun.protect
    ~finally:(fun () ->
      close ss;
      restore ())
    (fun () -> List.iter (fun line -> ignore (execute ss line)) lines);
  Buffer.contents buf
