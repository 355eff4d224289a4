(* The stem command-line interface: the textual stand-in for STEM's
   interactive browsers and constraint editors.

     stem accumulator [--spec NS]     the Fig. 5.2 delay scenario
     stem select --delay D --area A   module selection on the Fig. 8.1 ALU
     stem simulate [--stages N]       compile + extract + simulate a chain
     stem inspect [--trace]           build a demo design, dump its network
     stem check                       incremental vs batch checking demo *)

open Cmdliner
open Stem.Design
module Cell = Stem.Cell

let setup_logs () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning)

(* ---------------- accumulator ---------------- *)

let run_accumulator spec =
  setup_logs ();
  let env = Stem.Env.create () in
  Fmt.pr "ACCUMULATOR = REG8 (60 ns) -> ADDER8 (105 ns + 5 ns loading), spec %g ns@."
    spec;
  Constraint_kernel.Engine.set_violation_handler env.env_cnet (fun v ->
      Fmt.pr "!! %a@." Constraint_kernel.Types.pp_violation v);
  let acc = Cell_library.Datapath.accumulator ~spec env in
  (match
     Delay.Delay_network.delay env acc.Cell_library.Datapath.acc ~from_:"in"
       ~to_:"out"
   with
  | Some d -> Fmt.pr "computed in->out delay: %g ns@." d
  | None -> Fmt.pr "delay not installed (specification violated)@.");
  (match
     Delay.Delay_network.critical_path env acc.Cell_library.Datapath.acc
       ~from_:"in" ~to_:"out"
   with
  | Some (path, d) ->
    Fmt.pr "critical path (%g ns): %a@." d Delay.Delay_path.pp_path path
  | None -> ());
  0

let accumulator_cmd =
  let spec =
    Arg.(value & opt float 160.0 & info [ "spec" ] ~docv:"NS" ~doc:"Delay budget in ns.")
  in
  Cmd.v
    (Cmd.info "accumulator" ~doc:"Run the Fig. 5.2 hierarchical delay scenario")
    Term.(const run_accumulator $ spec)

(* ---------------- select ---------------- *)

let run_select delay_spec area_spec prune =
  setup_logs ();
  let env = Stem.Env.create () in
  let adders = Cell_library.Adders.fig_8_1 env in
  let scenario =
    Cell_library.Datapath.alu env ~adder:adders.Cell_library.Adders.add8
      ~delay_spec ~area_spec
  in
  let stats = Selection.Select.fresh_stats () in
  let picks =
    Selection.Select.select env scenario.Cell_library.Datapath.adder_inst
      ~priorities:
        [ Selection.Select.BBox; Selection.Select.Signals; Selection.Select.Delays ]
      ~prune ~stats ()
  in
  Fmt.pr "ALU specs: delay <= %g ns, area <= %d λ²@." delay_spec area_spec;
  Fmt.pr "valid realisations of the generic ADD8: %a@."
    Fmt.(list ~sep:comma string)
    (List.map (fun c -> c.cc_name) picks);
  Fmt.pr "search effort: %a@." Selection.Select.pp_stats stats;
  0

let select_cmd =
  let delay_spec =
    Arg.(value & opt float 11.0 & info [ "delay" ] ~docv:"NS" ~doc:"ALU delay spec (ns).")
  in
  let area_spec =
    Arg.(value & opt int 300 & info [ "area" ] ~docv:"L2" ~doc:"ALU area spec (λ²).")
  in
  let prune =
    Arg.(value & opt bool true & info [ "prune" ] ~doc:"Prune via generic-class tests.")
  in
  Cmd.v
    (Cmd.info "select" ~doc:"Module selection on the Fig. 8.1 ALU")
    Term.(const run_select $ delay_spec $ area_spec $ prune)

(* ---------------- simulate ---------------- *)

let run_simulate stages =
  setup_logs ();
  let env = Stem.Env.create () in
  let gates = Cell_library.Gates.make env in
  Spice.Gate_templates.inverter env gates.Cell_library.Gates.inverter ~in_:"in"
    ~out:"out";
  let chain = Cell_library.Gates.inverter_chain env gates ~n:stages in
  (match Delay.Delay_network.delay env chain ~from_:"in" ~to_:"out" with
  | Some d -> Fmt.pr "constraint-network estimate: %g ns@." d
  | None -> ());
  let sim = Spice.Spice_view.simulation env chain in
  let stimuli = [ Spice.Sim.step ~at:2.0 ~low:0.0 ~high:5.0 "in" ] in
  let t_end = 5.0 +. (2.0 *. float_of_int stages) in
  let res = Spice.Spice_view.run sim ~stimuli ~t_end () in
  let inp = Option.get (Spice.Sim.waveform res "in") in
  let out = Option.get (Spice.Sim.waveform res "out") in
  (match Spice.Measure.propagation_delay ~input:inp ~output:out ~threshold:2.5 () with
  | Some d -> Fmt.pr "simulated delay: %.3f ns@." d
  | None -> Fmt.pr "no output transition@.");
  Fmt.pr "%s@." (Spice.Measure.ascii_plot ~width:64 ~height:8 out);
  0

let simulate_cmd =
  let stages =
    Arg.(value & opt int 3 & info [ "stages" ] ~docv:"N" ~doc:"Chain length.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Compile, extract and simulate an inverter chain")
    Term.(const run_simulate $ stages)

(* ---------------- inspect ---------------- *)

let run_inspect trace =
  setup_logs ();
  let env = Stem.Env.create () in
  if trace then
    Constraint_kernel.Engine.add_sink env.env_cnet
      (Obs.Sink.logger ~name:"inspect" Fmt.stdout);
  let acc = Cell_library.Datapath.accumulator ~spec:180.0 env in
  ignore
    (Delay.Delay_network.delay env acc.Cell_library.Datapath.acc ~from_:"in"
       ~to_:"out");
  ignore (Constraint_kernel.Engine.remove_sink env.env_cnet "inspect");
  Fmt.pr "%a@." Constraint_kernel.Editor.dump_network env.env_cnet;
  let cd = acc.Cell_library.Datapath.acc_delay in
  Fmt.pr "@.%a@." Constraint_kernel.Editor.trace_antecedents cd.cd_var;
  0

let inspect_cmd =
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print every propagation event.")
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Build the demo design and dump its constraint network")
    Term.(const run_inspect $ trace)

(* ---------------- check ---------------- *)

let run_check () =
  setup_logs ();
  let env = Stem.Env.create () in
  let violations = ref 0 in
  Constraint_kernel.Engine.set_violation_handler env.env_cnet (fun _ -> incr violations);
  let acc = Cell_library.Datapath.accumulator ~spec:160.0 env in
  ignore
    (Delay.Delay_network.delay env acc.Cell_library.Datapath.acc ~from_:"in"
       ~to_:"out");
  Fmt.pr "incremental checking caught %d violation(s) during entry@." !violations;
  let examined, bad = Checking.Check.batch_check env in
  Fmt.pr "batch sweep: %d constraints examined, %d violated now@." examined
    (List.length bad);
  Fmt.pr "%s@." (Checking.Check.report env acc.Cell_library.Datapath.acc);
  0

let check_cmd =
  Cmd.v
    (Cmd.info "check" ~doc:"Incremental vs batch design checking")
    Term.(const run_check $ const ())

(* ---------------- edit ---------------- *)

let run_edit scenario =
  setup_logs ();
  let env = Stem.Env.create () in
  (match scenario with
  | "accumulator" -> ignore (Cell_library.Datapath.accumulator ~spec:180.0 env)
  | "alu" ->
    let adders = Cell_library.Adders.fig_8_1 env in
    ignore
      (Cell_library.Datapath.alu env ~adder:adders.Cell_library.Adders.add8
         ~delay_spec:11.0 ~area_spec:300)
  | other -> Fmt.pr "unknown scenario %S, using accumulator@." other);
  (* pull the delay values so the editor has a live network to walk *)
  List.iter
    (fun cls ->
      List.iter
        (fun cd ->
          ignore
            (Delay.Delay_network.delay env cls ~from_:cd.cd_from ~to_:cd.cd_to))
        cls.cc_delays)
    (Stem.Env.cells env);
  Shell.run env;
  0

let edit_cmd =
  let scenario =
    Arg.(value & opt string "accumulator"
         & info [ "scenario" ] ~docv:"NAME" ~doc:"accumulator or alu.")
  in
  Cmd.v
    (Cmd.info "edit" ~doc:"Interactive constraint editor on a demo design (§5.4)")
    Term.(const run_edit $ scenario)

(* ---------------- faults ---------------- *)

(* A deterministic fault-injection demonstration on a plain integer
   network: a chain of equalities with one flaky constraint in the
   middle.  Repeated injected failures quarantine the broken constraint;
   traffic then degrades gracefully (the chain is severed at the broken
   link but everything else keeps propagating), and the post-restore
   audit confirms the network is structurally intact throughout. *)
let run_faults seed threshold prob edits budget =
  setup_logs ();
  let open Constraint_kernel in
  let net = Engine.create_network ~name:"faults" () in
  Engine.set_fail_threshold net threshold;
  Engine.set_step_budget net budget;
  Engine.set_audit_on_restore net true;
  let n = 8 in
  let vars =
    Array.init (n + 1) (fun i ->
        Var.create net ~owner:"f" ~name:(Printf.sprintf "v%d" i)
          ~equal:Int.equal ~pp:Fmt.int ())
  in
  let cstrs =
    Array.init n (fun i ->
        let c, _ = Clib.equality net [ vars.(i); vars.(i + 1) ] in
        c)
  in
  let victim = cstrs.(n / 2) in
  let inj = Fault.wrap ~seed ~mode:(Fault.Flaky prob) victim in
  Fmt.pr "chain of %d equalities; %a injected into %a (seed %d)@." n
    Fault.pp_mode (Fault.Flaky prob) Cstr.pp victim seed;
  let violations = ref 0 in
  Engine.set_violation_handler net (fun v ->
      incr violations;
      Fmt.pr "  !! %a@." Types.pp_violation v);
  for tick = 1 to edits do
    match Engine.set net vars.(0) tick with
    | Ok () -> ()
    | Error _ -> Fmt.pr "  edit %d rolled back@." tick
  done;
  Fmt.pr "@.%d edits, %d violation(s), %d fault(s) fired in %d activation(s)@."
    edits !violations (Fault.fired inj) (Fault.activations inj);
  (match Network.quarantined net with
  | [] -> Fmt.pr "no constraint quarantined@."
  | qs ->
    List.iter
      (fun c ->
        Fmt.pr "QUARANTINED %a — %s@." Cstr.pp c
          (Option.value ~default:"?" (Cstr.quarantined c)))
      qs);
  (match Network.check_integrity net with
  | [] -> Fmt.pr "integrity audit: ok@."
  | issues -> List.iter (fun i -> Fmt.pr "integrity audit: %s@." i) issues);
  Fmt.pr "final values: head=%a mid=%a tail=%a@."
    Fmt.(option ~none:(any "NIL") int)
    (Var.value vars.(0))
    Fmt.(option ~none:(any "NIL") int)
    (Var.value vars.(n / 2))
    Fmt.(option ~none:(any "NIL") int)
    (Var.value vars.(n));
  let s = Engine.stats net in
  Fmt.pr "stats: %a@." Editor.pp_stats s;
  0

let faults_cmd =
  let seed =
    Arg.(value & opt int 0x5eed & info [ "seed" ] ~docv:"N" ~doc:"Fault PRNG seed.")
  in
  let threshold =
    Arg.(value & opt int 3
         & info [ "threshold" ] ~docv:"N"
             ~doc:"Failures before a constraint is quarantined (0 = never).")
  in
  let prob =
    Arg.(value & opt float 0.5
         & info [ "flaky" ] ~docv:"P" ~doc:"Per-activation failure probability.")
  in
  let edits =
    Arg.(value & opt int 20 & info [ "edits" ] ~docv:"N" ~doc:"Assignments to attempt.")
  in
  let budget =
    Arg.(value & opt (some int) None
         & info [ "budget" ] ~docv:"N" ~doc:"Per-episode inference step budget.")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Deterministic fault injection, quarantine and recovery demo")
    Term.(const run_faults $ seed $ threshold $ prob $ edits $ budget)

(* ---------------- the demo workload ---------------- *)

(* The Fig. 5.2 accumulator and its edit mix, shared by the
   observability demos: each round is one healthy edit, one tentative
   probe and one assignment the adder's 120 ns internal spec rejects,
   so every window holds committed, probe and rolled-back episodes.
   [attach] runs on the empty network first, so its sinks see the
   network from creation. *)
let demo_workload attach =
  let env = Stem.Env.create () in
  let net = env.env_cnet in
  let attached = attach net in
  let acc = Cell_library.Datapath.accumulator ~spec:180.0 env in
  ignore
    (Delay.Delay_network.delay env acc.Cell_library.Datapath.acc ~from_:"in"
       ~to_:"out");
  let reg_delay = List.hd acc.Cell_library.Datapath.acc_reg.cc_delays in
  let add_delay = List.hd acc.Cell_library.Datapath.acc_adder.cc_delays in
  let round i =
    let open Constraint_kernel in
    ignore
      (Engine.set net reg_delay.cd_var
         (Dval.Float (45.0 +. float_of_int (i mod 3))));
    ignore (Engine.can_be_set_to net add_delay.cd_var (Dval.Float 115.0));
    ignore (Engine.set net add_delay.cd_var (Dval.Float 130.0))
  in
  (net, attached, round)

(* ---------------- trace ---------------- *)

(* Observability demo: the demo workload with a board attached and an
   optional JSONL export. *)
let run_trace jsonl chrome edits verify =
  setup_logs ();
  let open Constraint_kernel in
  let attach net =
    let board = Obs.Board.attach net in
    let span_tracer =
      match chrome with
      | None -> None
      | Some _ ->
        (* hierarchical spans for the Perfetto export: the kernel sink
           turns each episode into an "episode" span with its
           propagate/drain/check/restore phases as children *)
        let tr =
          Obs.Tracing.create ~stage_prefix:"kernel.stage."
            ~stages:[ "episode" ] ()
        in
        Obs.Tracing.set_enabled tr true;
        Engine.add_sink net (Obs.Tracing.kernel_sink tr ~net:net.Types.net_name);
        Some tr
    in
    let jsonl_oc =
      Option.map
        (fun file ->
          let oc = open_out file in
          Engine.add_sink net
            (Obs.Jsonl.channel_sink ~pp_value:Dval.to_string oc);
          (file, oc))
        jsonl
    in
    (board, span_tracer, jsonl_oc)
  in
  let net, (board, span_tracer, jsonl_oc), round = demo_workload attach in
  for i = 1 to edits do
    round i
  done;
  let name = net.Types.net_name in
  Fmt.pr "== episode spans (most recent last) ==@.%a@." Obs.Answer.text
    (Obs.Answer.spans [ Obs.Answer.Named (name, board) ]);
  Fmt.pr "@.== hotspots (constraint kinds by activations) ==@.%a@."
    Obs.Answer.text
    (Obs.Answer.hotspots (Obs.Board.profiler board));
  Fmt.pr "@.== metrics ==@.%s"
    (Serve.Exposition.render [ (name, Obs.Board.metrics board) ]);
  Fmt.pr "@.== kernel stats ==@.%a@." Editor.pp_stats (Engine.stats net);
  (match (chrome, span_tracer) with
  | Some file, Some tr ->
    let oc = open_out file in
    output_string oc (Obs.Tracing.chrome_json tr);
    close_out oc;
    Fmt.pr
      "@.chrome trace written to %s (load it in Perfetto or \
       chrome://tracing)@."
      file
  | _ -> ());
  match jsonl_oc with
  | None ->
    if verify then begin
      Fmt.epr "--verify-replay requires --jsonl FILE@.";
      2
    end
    else 0
  | Some (file, oc) ->
    close_out oc;
    Fmt.pr "@.trace written to %s@." file;
    if not verify then 0
    else begin
      (* The divergence detector: the trace covers the network from
         creation, so replaying it must land exactly on the live final
         snapshot.  Anything else means lost events or nondeterminism. *)
      let rp = Obs.Replay.of_file file in
      List.iter
        (fun (lineno, msg) ->
          Fmt.pr "replay warning: line %d: %s@." lineno msg)
        (Obs.Replay.warnings rp);
      Obs.Replay.to_end rp;
      match Obs.Replay.diff_live rp ~pp_value:Dval.to_string net with
      | [] ->
        Fmt.pr "replay verified: %d event(s), snapshot matches the live network@."
          (Obs.Replay.length rp);
        0
      | divs ->
        List.iter
          (fun d -> Fmt.pr "DIVERGENCE %a@." Obs.Replay.pp_divergence d)
          divs;
        1
    end

let trace_cmd =
  let jsonl =
    Arg.(value & opt (some string) None
         & info [ "jsonl" ] ~docv:"FILE" ~doc:"Export the trace as JSON lines.")
  in
  let chrome =
    Arg.(value & opt (some string) None
         & info [ "chrome" ] ~docv:"FILE"
             ~doc:"Export the episode spans (with propagate/drain/check \
                   phase children) as Chrome trace-event JSON — loads in \
                   Perfetto or chrome://tracing.")
  in
  let edits =
    Arg.(value & opt int 4 & info [ "edits" ] ~docv:"N" ~doc:"Edit rounds to run.")
  in
  let verify =
    Arg.(value & flag
         & info [ "verify-replay" ]
             ~doc:"After the run, replay the JSONL file and fail (exit 1) if \
                   the replayed snapshot diverges from the live network.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Observability demo: episode spans, metrics and hotspots")
    Term.(const run_trace $ jsonl $ chrome $ edits $ verify)

(* ---------------- health / top ---------------- *)

(* The demo workload under a board with a stricter watchdog; its
   sampler always has a violating exemplar to show. *)
let health_setup ~window_width =
  demo_workload
    (Obs.Board.attach ~window_width
       ~rules:
         (Obs.Watchdog.latency_p99_above 50_000.0
         :: Obs.Watchdog.violation_rate_above 0.9
         :: Obs.Watchdog.default_rules ()))

let verdict board = if Obs.Watchdog.ok (Obs.Board.watchdog board) then 0 else 1

let run_health edits window_eps dot_file json =
  setup_logs ();
  let open Constraint_kernel in
  let net, board, round =
    health_setup ~window_width:(Obs.Window.Episodes window_eps)
  in
  for i = 1 to edits do
    round i
  done;
  Obs.Board.checkpoint board;
  let name = net.Types.net_name in
  if json then
    (* machine-ingestible mode: the alerts answer, one schema-v2 record
       per line — parseable by Obs.Jsonl.parse_line and replay-compatible
       (R_other) *)
    print_string
      (Obs.Jsonl.to_ndjson
         (Obs.Answer.alerts [ (name, Obs.Board.watchdog board) ]))
  else begin
    Fmt.pr "== health: net '%s' ==@.%a@.%a@." name Obs.Answer.text
      (Obs.Answer.health name board)
      Editor.pp_agenda net;
    Option.iter
      (fun ex ->
        Fmt.pr "@.== slowest episode exemplar ==@.%a@." Obs.Answer.text
          (Obs.Answer.exemplar name ex))
      (Obs.Sampler.slowest (Obs.Board.sampler board));
    Option.iter
      (fun file ->
        Out_channel.with_open_text file (fun oc ->
            output_string oc
              (Obs.Topo.to_dot
                 ~profiler:(Obs.Board.profiler board)
                 ~metrics:(Obs.Board.metrics board)
                 net));
        Fmt.pr "@.topology written to %s@.%a@." file Obs.Answer.text
          (Obs.Answer.topo net))
      dot_file
  end;
  verdict board

let health_cmd =
  let edits =
    Arg.(value & opt int 6 & info [ "edits" ] ~docv:"N" ~doc:"Edit rounds to run.")
  in
  let window =
    Arg.(value & opt int 8
         & info [ "window" ] ~docv:"EPISODES" ~doc:"Window width in episodes.")
  in
  let dot =
    Arg.(value & opt (some string) None
         & info [ "dot" ] ~docv:"FILE"
             ~doc:"Also write the heat-annotated constraint graph (DOT).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the watchdog's alert transitions as schema-v2 JSONL \
                   records instead of the human report.")
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:"One-shot health report: window telemetry, latency quantiles, \
             slow-episode exemplars and watchdog alerts")
    Term.(const run_health $ edits $ window $ dot $ json)

let run_top seconds interval =
  setup_logs ();
  let net, board, round =
    health_setup ~window_width:(Obs.Window.Seconds interval)
  in
  let name = net.Constraint_kernel.Types.net_name in
  let t0 = Unix.gettimeofday () in
  let tick = ref 0 in
  while Unix.gettimeofday () -. t0 < seconds do
    incr tick;
    round !tick;
    let w = Obs.Board.window board in
    let s = Option.value (Obs.Window.last w) ~default:(Obs.Window.current w) in
    Fmt.pr "t=%.1fs %a@." (Unix.gettimeofday () -. t0) Obs.Answer.text
      (Obs.Answer.window name s);
    Unix.sleepf interval
  done;
  Obs.Board.checkpoint board;
  Fmt.pr "@.== final health ==@.%a@." Obs.Answer.text (Obs.Answer.health name board);
  verdict board

let top_cmd =
  let seconds =
    Arg.(value & opt float 3.0
         & info [ "seconds" ] ~docv:"S" ~doc:"How long to run.")
  in
  let interval =
    Arg.(value & opt float 0.5
         & info [ "interval" ] ~docv:"S" ~doc:"Refresh (and window) period.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Periodic health refresh over N seconds (time-based windows)")
    Term.(const run_top $ seconds $ interval)

(* ---------------- serve / scrape ---------------- *)

(* Run a history flush or close; a failed sync is reported on stderr,
   never swallowed, and the server carries on. *)
let sync_history op ts =
  match op ts with
  | () -> true
  | exception Unix.Unix_error (e, _, _) ->
    Fmt.epr "history fsync failed in %s: %s@." (Obs.Tsdb.dir ts)
      (Unix.error_message e);
    false

(* The telemetry daemon: the same accumulator workload as
   `stem health`, kept propagating at a configurable rate while the
   HTTP server exposes /metrics, /healthz, /events &c.  SIGINT/SIGTERM
   stop it gracefully (server drained and joined, summary printed) —
   the CI smoke test drives exactly this. *)
let run_serve bind port rate duration window_eps data fsync verify_replay
    tracing history history_flush =
  setup_logs ();
  (* the workload violates one spec per round by design (so windows and
     exemplars always have content); at 50 rounds/s that would flood
     stderr with warnings — remote consumers read /alerts instead *)
  Logs.set_level (Some Logs.Error);
  match Serve.Journal.fsync_of_string fsync with
  | None ->
    Fmt.epr "bad --fsync %S (always | never | interval:SECONDS)@." fsync;
    2
  | Some fsync_policy ->
  (* the demo net is served first: a recovered net of the same name
     takes its place *)
  let net, board, round =
    health_setup ~window_width:(Obs.Window.Episodes window_eps)
  in
  Serve.expose ~pp_value:Dval.to_string ~board net;
  (* durability + recovery before the listener opens: a client must
     never observe a hosted network that is still mid-replay *)
  (match data with
  | None -> ()
  | Some dir ->
    Serve.Wstore.configure ~dir ~fsync:fsync_policy ();
    let recoveries, notes =
      Serve.Wstore.recover_dir ~verify:verify_replay dir
    in
    List.iter (fun n -> Fmt.pr "recovery: %s@." n) notes;
    List.iter
      (fun rc ->
        let e = rc.Serve.Wstore.rc_entry in
        let id = Serve.Wstore.id e in
        List.iter
          (fun (src, n, msg) ->
            Fmt.pr "recovery warning: %s %s record %d: %s@." id src n msg)
          rc.Serve.Wstore.rc_warnings;
        Fmt.pr "recovered %s: %d snapshot set(s), %d journal set(s) replayed@."
          id rc.Serve.Wstore.rc_snapshot_sets
          rc.Serve.Wstore.rc_journal_replayed;
        if rc.Serve.Wstore.rc_verified then begin
          Fmt.pr "recovery verified: %s (%d set(s) replayed, %d divergence(s))@."
            id
            (rc.Serve.Wstore.rc_snapshot_sets
            + rc.Serve.Wstore.rc_journal_replayed)
            (List.length rc.Serve.Wstore.rc_divergences);
          List.iter
            (fun d -> Fmt.pr "  DIVERGENCE %a@." Obs.Replay.pp_divergence d)
            rc.Serve.Wstore.rc_divergences
        end)
      recoveries);
  let history =
    Option.map
      (fun dir ->
        let ts = Obs.Tsdb.open_ dir in
        List.iter
          (fun w -> Fmt.pr "history recovery: %s@." w)
          (Obs.Tsdb.recovery_warnings ts);
        Fmt.pr "history in %s (%d points on disk; GET /query /series /slo)@."
          dir (Obs.Tsdb.stats ts).Obs.Tsdb.st_points;
        ts)
      history
  in
  match Serve.start ~bind_addr:bind ~port ?history () with
  | exception Unix.Unix_error (e, _, _) ->
    Fmt.epr "cannot bind %s:%d: %s@." bind port (Unix.error_message e);
    Option.iter Obs.Tsdb.close history;
    1
  | sv ->
    Obs.Tracing.set_enabled (Serve.tracer sv) tracing;
    let stopping = ref false in
    let on_signal = Sys.Signal_handle (fun _ -> stopping := true) in
    (try Sys.set_signal Sys.sigint on_signal with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigterm on_signal with Invalid_argument _ -> ());
    Fmt.pr
      "telemetry server on http://%s:%d (net '%s'; /metrics /healthz /alerts \
       /exemplars /spans /topo.dot /events%s) — Ctrl-C to stop@."
      bind (Serve.port sv)
      net.Constraint_kernel.Types.net_name
      (if tracing then " /trace" else "");
    let t0 = Unix.gettimeofday () in
    let period = if rate <= 0.0 then 0.02 else 1.0 /. rate in
    let tick = ref 0 in
    let last_sample = ref t0 in
    let last_flush = ref t0 in
    while
      (not !stopping)
      && (duration <= 0.0 || Unix.gettimeofday () -. t0 < duration)
    do
      incr tick;
      (* the engine's ambient episode stack is process-global: while
         the write API is live, the demo loop's episodes must
         serialize with HTTP write episodes *)
      Serve.Wstore.with_episode_lock (fun () -> round !tick);
      (* serve counters + per-tenant totals + SLO evaluation, 1 Hz *)
      let now = Unix.gettimeofday () in
      if now -. !last_sample >= 1.0 then begin
        last_sample := now;
        Serve.history_tick ~now sv;
        (* bound the kill -9 data-loss window: seal + fsync open blocks
           every --history-flush seconds (sealing early trades a little
           compression for durability, exactly like --fsync interval) *)
        if history_flush > 0.0 && now -. !last_flush >= history_flush then begin
          last_flush := now;
          Option.iter (fun ts -> ignore (sync_history Obs.Tsdb.flush ts)) history
        end
      end;
      try Unix.sleepf period with Unix.Unix_error (EINTR, _, _) -> ()
    done;
    Obs.Board.checkpoint board;
    (* the last sample, while the server still runs *)
    Serve.history_tick sv;
    (* graceful drain: stop accepting and finish in-flight requests
       first, then flush every journal and take final snapshots *)
    Serve.stop sv;
    (match Serve.Wstore.close_all () with
    | [] -> ()
    | ids -> Fmt.pr "flushed and snapshotted: %s@." (String.concat ", " ids));
    ignore (Serve.unexpose net.Constraint_kernel.Types.net_name);
    (* seal + fsync every open block so a restart recovers the series *)
    Option.iter
      (fun ts ->
        if sync_history Obs.Tsdb.close ts then Fmt.pr "history sealed@.")
      history;
    let st = Serve.stream_stats () in
    Fmt.pr
      "stopped after %.1fs: %d edit round(s), %d request(s) served, %d event \
       line(s) streamed (%d dropped)@."
      (Unix.gettimeofday () -. t0)
      !tick (Serve.requests_served sv) st.Serve.Stream.st_published
      st.Serve.Stream.st_dropped;
    0

let serve_cmd =
  let bind =
    Arg.(value & opt string "127.0.0.1"
         & info [ "bind" ] ~docv:"ADDR" ~doc:"Address to bind.")
  in
  let port =
    Arg.(value & opt int 9464
         & info [ "port" ] ~docv:"PORT" ~doc:"TCP port (0 = ephemeral).")
  in
  let rate =
    Arg.(value & opt float 50.0
         & info [ "rate" ] ~docv:"HZ" ~doc:"Edit rounds per second.")
  in
  let duration =
    Arg.(value & opt float 0.0
         & info [ "duration" ] ~docv:"S"
             ~doc:"Stop after this many seconds (0 = run until SIGINT).")
  in
  let window =
    Arg.(value & opt int 8
         & info [ "window" ] ~docv:"EPISODES" ~doc:"Window width in episodes.")
  in
  let data =
    Arg.(value & opt (some string) None
         & info [ "data" ] ~docv:"DIR"
             ~doc:"Durability directory: recover every network found \
                   there at startup, journal every acknowledged write.")
  in
  let fsync =
    Arg.(value & opt string "always"
         & info [ "fsync" ] ~docv:"POLICY"
             ~doc:"Journal fsync policy: always, never, or interval:SECONDS.")
  in
  let verify_replay =
    Arg.(value & flag
         & info [ "verify-replay" ]
             ~doc:"Differentially check each recovered network against \
                   its own replayed episode trace (Obs.Replay.diff_live).")
  in
  let tracing =
    Arg.(value & opt bool true
         & info [ "tracing" ] ~docv:"BOOL"
             ~doc:"End-to-end request tracing: parse/admit/episode/append/\
                   fsync spans per request, exported at GET /trace as \
                   Chrome trace-event JSON and as serve.stage.* \
                   histograms in /metrics.")
  in
  let history =
    Arg.(value & opt (some string) None
         & info [ "history" ] ~docv:"DIR"
             ~doc:"Long-horizon telemetry: sample every exposed board's \
                   instruments (plus serve counters and per-tenant SLO \
                   burn rates) into a compressed on-disk time-series \
                   store under DIR, served at GET /query, /series and \
                   /slo. Crash-safe: a restart recovers every sealed \
                   block.")
  in
  let history_flush =
    Arg.(value & opt float 60.0
         & info [ "history-flush" ] ~docv:"SECONDS"
             ~doc:"Seal and fsync open history blocks every SECONDS \
                   (bounds kill -9 data loss; 0 disables the periodic \
                   flush — blocks then seal only when full or on \
                   graceful shutdown). Default 60.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the demo workload under the HTTP telemetry server \
             (Prometheus /metrics, /healthz, live /events NDJSON) with \
             an optional crash-safe write API (--data) and long-horizon \
             history (--history)")
    Term.(const run_serve $ bind $ port $ rate $ duration $ window $ data
          $ fsync $ verify_replay $ tracing $ history $ history_flush)

(* In-tree scrape client, so tests and CI never need curl. *)
let run_scrape host port path out =
  setup_logs ();
  match Serve.Client.get ~host ~port path with
  | Error msg ->
    Fmt.epr "scrape %s:%d%s failed: %s@." host port path msg;
    1
  | Ok r ->
    (match out with
    | None -> print_string r.Serve.Client.rs_body
    | Some file ->
      let oc = open_out file in
      output_string oc r.Serve.Client.rs_body;
      close_out oc;
      Fmt.pr "wrote %s (%d bytes, HTTP %d)@." file
        (String.length r.Serve.Client.rs_body)
        r.Serve.Client.rs_status);
    if r.Serve.Client.rs_status = 200 then 0
    else begin
      Fmt.epr "HTTP %d %s@." r.Serve.Client.rs_status r.Serve.Client.rs_reason;
      1
    end

let scrape_cmd =
  let host =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"HOST" ~doc:"Server host.")
  in
  let port =
    Arg.(value & opt int 9464 & info [ "port" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let path =
    Arg.(value & pos 0 string "/metrics"
         & info [] ~docv:"PATH" ~doc:"Endpoint path, e.g. /metrics.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Write the body to FILE.")
  in
  Cmd.v
    (Cmd.info "scrape"
       ~doc:"Fetch one telemetry endpoint (exit 0 only on HTTP 200)")
    Term.(const run_scrape $ host $ port $ path $ out)

(* The write-side counterpart of scrape: create a network from a spec
   file, or batch PATH VALUE pairs into one POST /nets/:id/set.  Exit 0
   only when the server acknowledged everything (HTTP 2xx) — the CI
   crash-recovery smoke leans on exactly this: every exit-0 put is a
   durably acknowledged write. *)
let run_put host port net tenant timeout create args =
  setup_logs ();
  let headers = [ ("x-tenant", tenant) ] in
  let show r =
    print_string r.Serve.Client.rs_body;
    if String.length r.Serve.Client.rs_body > 0
       && r.Serve.Client.rs_body.[String.length r.Serve.Client.rs_body - 1]
          <> '\n'
    then print_newline ();
    if r.Serve.Client.rs_status / 100 = 2 then 0
    else begin
      Fmt.epr "HTTP %d %s@." r.Serve.Client.rs_status
        r.Serve.Client.rs_reason;
      1
    end
  in
  match create with
  | Some file -> (
    match In_channel.with_open_bin file In_channel.input_all with
    | exception Sys_error msg ->
      Fmt.epr "cannot read %s: %s@." file msg;
      2
    | spec -> (
      match
        Serve.Client.post ~host ~port ~timeout ~headers ~body:spec
          ("/nets?id=" ^ net)
      with
      | Error msg ->
        Fmt.epr "put %s:%d /nets?id=%s failed: %s@." host port net msg;
        1
      | Ok r -> show r))
  | None -> (
    let rec pairs = function
      | [] -> Some []
      | path :: value :: rest ->
        Option.map
          (fun tl ->
            Obs.Jsonl.(
              to_string
                (J_obj
                   [
                     ("var", J_str path);
                     ("value", J_str value);
                     ("just", J_str "user");
                   ]))
            :: tl)
          (pairs rest)
      | [ _ ] -> None
    in
    match pairs args with
    | None | Some [] ->
      Fmt.epr "need PATH VALUE pairs (or --create SPECFILE)@.";
      2
    | Some lines -> (
      let body = String.concat "\n" lines ^ "\n" in
      match
        Serve.Client.post ~host ~port ~timeout ~headers ~body
          ("/nets/" ^ net ^ "/set")
      with
      | Error msg ->
        Fmt.epr "put %s:%d /nets/%s/set failed: %s@." host port net msg;
        1
      | Ok r -> show r))

let put_cmd =
  let host =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"HOST" ~doc:"Server host.")
  in
  let port =
    Arg.(value & opt int 9464 & info [ "port" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let net =
    Arg.(value & opt string "net"
         & info [ "net" ] ~docv:"ID" ~doc:"Target network id.")
  in
  let tenant =
    Arg.(value & opt string "anon"
         & info [ "tenant" ] ~docv:"T" ~doc:"Tenant (the x-tenant header).")
  in
  let timeout =
    Arg.(value & opt float 10.0
         & info [ "timeout" ] ~docv:"S" ~doc:"Total request deadline.")
  in
  let create =
    Arg.(value & opt (some string) None
         & info [ "create" ] ~docv:"SPECFILE"
             ~doc:"Create the network from this spec file instead of \
                   setting values.")
  in
  let args =
    Arg.(value & pos_all string [] & info [] ~docv:"PATH VALUE")
  in
  Cmd.v
    (Cmd.info "put"
       ~doc:"Write to a served network: create from a spec, or set \
             PATH VALUE pairs (exit 0 only when acknowledged)")
    Term.(const run_put $ host $ port $ net $ tenant $ timeout $ create $ args)

(* ---------------- why ---------------- *)

(* Causal provenance demo across two environments: a designer entry in
   the design environment ripples through an equality, crosses into a
   floorplanner's own constraint network over a dual bridge, and
   propagates further there.  `why` on the floorplanner's variable walks
   the whole derivation back — across both networks — to the original
   designer entry. *)
let run_why width =
  setup_logs ();
  let open Constraint_kernel in
  let design = Stem.Env.create ~name:"design" () in
  let floorplan = Stem.Env.create ~name:"floorplan" () in
  let scope = Obs.Provenance.scope () in
  let provenance net =
    Obs.Board.provenance (Obs.Board.attach ~pp_value:Dval.to_string ~scope net)
  in
  let dprov = provenance design.env_cnet in
  let fprov = provenance floorplan.env_cnet in
  (* design side: two connected pin widths held equal *)
  let a = Dclib.variable design.env_cnet ~owner:"alu/a" ~name:"bitWidth" () in
  let b = Dclib.variable design.env_cnet ~owner:"alu/sum" ~name:"bitWidth" () in
  ignore (Dclib.equality design.env_cnet ~label:"alu widths" [ a; b ]);
  (* floorplan side: the routing channel needs one track per bus bit *)
  let bus =
    Dclib.variable floorplan.env_cnet ~owner:"chan0" ~name:"busWidth" ()
  in
  let tracks =
    Dclib.variable floorplan.env_cnet ~owner:"chan0" ~name:"tracks" ()
  in
  ignore (Dclib.equality floorplan.env_cnet ~label:"chan0 tracks" [ bus; tracks ]);
  ignore
    (Stem.Dual.bridge design ~kind:"width-export" ~label:"alu/sum -> chan0"
       ~from_:b ~to_env:floorplan ~to_:bus ());
  (match Engine.set design.env_cnet a (Dval.Int width) with
  | Ok () -> ()
  | Error v -> Fmt.pr "!! %a@." Types.pp_violation v);
  Fmt.pr "designer sets alu/a.bitWidth = %d; the floorplanner's channel follows:@." width;
  Fmt.pr "  %a@.  %a@.@." Var.pp_full bus Var.pp_full tracks;
  let show title j = Fmt.pr "== %s ==@.%a@.@." title Obs.Answer.text j in
  show "why chan0.tracks" (Obs.Answer.why fprov "chan0.tracks");
  show "critical path of the floorplan's last episode"
    (Obs.Answer.critical fprov None);
  show "episode tree" (Obs.Answer.episodes fprov);
  show "blame alu/a.bitWidth (forward fan-out)"
    (Obs.Answer.blame dprov "alu/a.bitWidth");
  (* the acceptance property, checked live: the chain ends at the user set *)
  let chain = Obs.Provenance.why fprov "chan0.tracks" in
  let ends_at_user =
    List.exists (fun s -> s.Obs.Provenance.ws_span.Obs.Provenance.sp_just = "user") chain
  in
  let nets =
    List.sort_uniq compare
      (List.map (fun s -> s.Obs.Provenance.ws_span.Obs.Provenance.sp_net) chain)
  in
  Fmt.pr "@.chain spans %d network(s)%s@." (List.length nets)
    (if ends_at_user then " and ends at the designer entry" else
       " but DOES NOT reach a designer entry");
  Obs.Board.detach design.env_cnet;
  Obs.Board.detach floorplan.env_cnet;
  if ends_at_user && List.length nets = 2 then 0 else 1

let why_cmd =
  let width =
    Arg.(value & opt int 16 & info [ "width" ] ~docv:"N" ~doc:"Bus width to enter.")
  in
  Cmd.v
    (Cmd.info "why"
       ~doc:"Causal provenance demo: trace a value across two environments \
             back to the designer entry that caused it")
    Term.(const run_why $ width)

(* ---------------- report ---------------- *)

(* Offline soak-run summary: open a --history directory (no server
   needed) and print per-series statistics with a terminal sparkline.
   The read path tolerates a torn tail, so this works on the directory
   of a kill -9'd server. *)
let run_report dir seconds =
  setup_logs ();
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Fmt.epr "no such directory: %s@." dir;
    2
  end
  else begin
    let ts = Obs.Tsdb.open_ dir in
    List.iter
      (fun w -> Fmt.pr "recovery: %s@." w)
      (Obs.Tsdb.recovery_warnings ts);
    let summary (series, _, first, last) =
      let from_ = if seconds > 0.0 then last -. seconds else first in
      Obs.Answer.summary ts series ~from_ ~to_:last
    in
    Fmt.pr "%a@.@.== per series ==@.%a@." Obs.Answer.text (Obs.Answer.history ts)
      Obs.Answer.text
      (Obs.Jsonl.J_arr (List.map summary (Obs.Tsdb.series ts)));
    Obs.Tsdb.close ts;
    0
  end

let report_cmd =
  let dir =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DIR" ~doc:"A --history directory.")
  in
  let seconds =
    Arg.(value & opt float 0.0
         & info [ "seconds" ] ~docv:"S"
             ~doc:"Sparkline window: only the last S seconds of each series \
                   (0 = everything).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Offline summary of a --history time-series directory: \
             per-series min/max/last with unicode sparklines, store and \
             compression statistics, recovery warnings")
    Term.(const run_report $ dir $ seconds)

(* ---------------- ripple ---------------- *)

let run_ripple bits =
  setup_logs ();
  let env = Stem.Env.create () in
  let gates = Cell_library.Gates.make env in
  let ra = Cell_library.Composed.ripple_adder env gates ~bits in
  let cell = ra.Cell_library.Composed.ra_cell in
  Fmt.pr "compiled %s: %d slices, %d nets@." cell.cc_name
    (List.length (Cell.subcells cell))
    (List.length (Cell.nets cell));
  (match Cell.bounding_box env cell with
  | Some box -> Fmt.pr "bounding box: %a@." Geometry.Rect.pp box
  | None -> ());
  let show from_ to_ =
    match Delay.Delay_network.delay env cell ~from_ ~to_ with
    | Some d -> Fmt.pr "  %-18s -> %-18s %7.3f ns@." from_ to_ d
    | None -> Fmt.pr "  %-18s -> %-18s (unknown)@." from_ to_
  in
  Fmt.pr "delays (gate -> slice -> adder hierarchy):@.";
  show ra.Cell_library.Composed.ra_cin ra.Cell_library.Composed.ra_cout;
  show ra.Cell_library.Composed.ra_a.(0) ra.Cell_library.Composed.ra_cout;
  show ra.Cell_library.Composed.ra_a.(0) ra.Cell_library.Composed.ra_s.(0);
  0

let ripple_cmd =
  let bits =
    Arg.(value & opt int 8 & info [ "bits" ] ~docv:"N" ~doc:"Adder width.")
  in
  Cmd.v
    (Cmd.info "ripple"
       ~doc:"Compile a gate-level ripple-carry adder and report its delays")
    Term.(const run_ripple $ bits)

let main_cmd =
  let doc = "STEM: constraint propagation in an object-oriented IC design environment" in
  Cmd.group (Cmd.info "stem" ~version:"1.0.0" ~doc)
    [
      accumulator_cmd; select_cmd; simulate_cmd; inspect_cmd; check_cmd;
      edit_cmd; ripple_cmd; faults_cmd; trace_cmd; why_cmd; health_cmd;
      top_cmd; serve_cmd; scrape_cmd; put_cmd; report_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
