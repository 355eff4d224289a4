(* The interactive constraint editor (§5.4), line-command edition.

   The paper's constraint-editor windows let a designer walk a network,
   examine all variables of a constraint and all constraints of a
   variable, trace antecedents and consequences, instantiate or remove
   constraints, assign values, and toggle propagation.  This REPL offers
   the same operations over stdin/stdout (so it is also scriptable). *)

open Constraint_kernel

(* A shell session is an environment plus its board, attached for the
   session's lifetime, and an optional JSONL exporter toggled per
   file. *)
type session = {
  ss_env : Stem.Design.env;
  ss_board : Dval.t Obs.Board.t;
  mutable ss_jsonl : (string * out_channel) option;
  mutable ss_serve : Serve.t option;
  mutable ss_history : Obs.Tsdb.t option;  (* opened by [history DIR] *)
}

let session env =
  { ss_env = env;
    ss_board = Obs.Board.attach ~pp_value:Dval.to_string (Stem.Env.cnet env);
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
  \  dump                   network summary, wakeups and agenda strata\n\
  \  metrics                the board's metrics as Prometheus text (GET /metrics)\n\
  \  spans [N]              last N completed episode spans (default all)\n\
  \  hotspots [K]           top-K constraint kinds by activation count\n\
  \  trace jsonl FILE       start exporting trace events to FILE (JSONL)\n\
  \  trace off              stop the JSONL export\n\
  \  health                 one-shot health (windows, watchdog, exemplars)\n\
  \  window [N]             last N telemetry windows, the current one last\n\
  \  exemplars [N]          captured exemplars, oldest first; N = the N-th's event trace\n\
  \  alerts                 watchdog alert transitions (schema-v2 records)\n\
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
  \  sparkline SERIES [SEC] a stored series in one line, with a sparkline (default last 300 s)\n\
  \  tracing [on|off]       the server's request tracing for hosted-net writes\n\
  \  chrome FILE            write the server's request spans as Chrome trace JSON\n\
  \  help                   this text\n\
  \  quit                   leave the editor"

(* Every observability command prints one answer: the tree the HTTP
   server would serve for the same question, in its text view. *)
let answer j = Fmt.pr "%a@." Obs.Answer.text j

(* [rows keep arg answer] — an array answer cut to [keep n] of its rows
   when a count argument is given. *)
let rows keep arg j =
  match (arg, j) with
  | [], _ -> answer j
  | [ n ], Obs.Jsonl.J_arr rs -> (
    match int_of_string_opt n with
    | Some n when n >= 0 -> answer (Obs.Jsonl.J_arr (keep n rs))
    | _ -> Fmt.pr "  count must be a non-negative integer@.")
  | _ -> Fmt.pr "  at most one count argument@."

let first n rs = List.filteri (fun i _ -> i < n) rs

let last n rs = List.filteri (fun i _ -> i >= List.length rs - n) rs

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

(* One command's output; whether the loop goes on is [execute]'s call. *)
let command ss words =
  let cnet = Stem.Env.cnet ss.ss_env in
  let name = cnet.Types.net_name in
  let boards = [ Obs.Answer.Named (name, ss.ss_board) ] in
  let prov = Obs.Board.provenance ss.ss_board in
  match words with
  | [] -> ()
  | [ "help" ] ->
    Fmt.pr "%s@." help_text
  | [ "vars" ] | "vars" :: _ ->
    let filter = match words with _ :: f :: _ -> f | _ -> "" in
    List.iter
      (fun v -> Fmt.pr "  %a@." Var.pp_full v)
      (Editor.grep_vars cnet filter)
  | [ "cstrs" ] ->
    List.iter
      (fun c -> Fmt.pr "  %a%s@." Cstr.pp c (if Cstr.is_enabled c then "" else " (disabled)"))
      (List.rev cnet.Types.net_cstrs)
  | [ "show"; path ] ->
    with_var cnet path (fun v -> Fmt.pr "  %a@." Var.pp_full v)
  | [ "inspect"; path ] ->
    with_var cnet path (fun v -> Fmt.pr "%a@." Editor.inspect_var v)
  | [ "cstr"; id ] ->
    with_cstr cnet id (fun c -> Fmt.pr "%a@." Editor.inspect_cstr c)
  | "set" :: path :: rest ->
    let value_text = String.concat " " rest in
    (match Dval.of_string value_text with
    | None -> Fmt.pr "cannot parse value %S (ints, floats, rect X Y W H, data:T, elec:T)@." value_text
    | Some value ->
      with_var cnet path (fun v ->
          match Engine.set cnet v value with
          | Ok () -> Fmt.pr "  ok: %a@." Var.pp_full v
          | Error viol -> Fmt.pr "  !! %a (values restored)@." Types.pp_violation viol))
  | [ "reset"; path ] ->
    with_var cnet path (fun v ->
        ignore (Engine.reset cnet v);
        Fmt.pr "  ok: %a@." Var.pp_full v)
  | [ "antecedents"; path ] ->
    with_var cnet path (fun v -> Fmt.pr "%a@." Editor.trace_antecedents v)
  | [ "consequences"; path ] ->
    with_var cnet path (fun v -> Fmt.pr "%a@." Editor.trace_consequences v)
  | [ "disable"; id ] ->
    with_cstr cnet id (fun c ->
        Cstr.set_enabled c false;
        Fmt.pr "  disabled %a@." Cstr.pp c)
  | [ "enable"; id ] ->
    with_cstr cnet id (fun c ->
        Cstr.set_enabled c true;
        Fmt.pr "  enabled %a@." Cstr.pp c)
  | [ "remove"; id ] ->
    with_cstr cnet id (fun c ->
        Network.remove_constraint cnet c;
        Fmt.pr "  removed #%s; dependent values erased@." id)
  | [ "on" ] ->
    Engine.enable cnet;
    Fmt.pr "  propagation on@."
  | [ "off" ] ->
    Engine.disable cnet;
    Fmt.pr "  propagation off@."
  | [ "check" ] ->
    (match Editor.unsatisfied cnet with
    | [] -> Fmt.pr "  all constraints satisfied@."
    | bad -> List.iter (fun c -> Fmt.pr "  VIOLATED %a@." Cstr.pp c) bad)
  | [ "quarantine" ] ->
    (match Network.quarantined cnet with
    | [] -> Fmt.pr "  no quarantined constraints@."
    | qs ->
      List.iter
        (fun c ->
          Fmt.pr "  %a — %s@." Cstr.pp c
            (Option.value ~default:"(no reason recorded)" (Cstr.quarantined c)))
        qs)
  | [ "clearq"; id ] ->
    with_cstr cnet id (fun c ->
        if not (Cstr.is_quarantined c) then
          Fmt.pr "  #%s is not quarantined@." id
        else
          match Network.clear_quarantine cnet c with
          | Ok () -> Fmt.pr "  quarantine lifted: %a@." Cstr.pp c
          | Error viol ->
            Fmt.pr "  quarantine lifted, but re-initialisation failed: %a@."
              Types.pp_violation viol)
  | [ "threshold"; n ] ->
    (match int_of_string_opt n with
    | Some n when n >= 0 ->
      Engine.set_fail_threshold cnet n;
      if n = 0 then Fmt.pr "  auto-quarantine off@."
      else Fmt.pr "  quarantine after %d failure(s)@." n
    | _ -> Fmt.pr "  threshold must be a non-negative integer@.")
  | [ "budget"; "off" ] ->
    Engine.set_step_budget cnet None;
    Fmt.pr "  step budget off@."
  | [ "budget"; b ] -> (
    match int_of_string_opt b with
    | Some n when n > 0 ->
      Engine.set_step_budget cnet (Some n);
      Fmt.pr "  step budget: %d inference(s) per episode@." n
    | _ -> Fmt.pr "  budget must be a positive integer or 'off'@.")
  | [ "audit" ] ->
    (match Network.check_integrity cnet with
    | [] -> Fmt.pr "  network integrity ok@."
    | issues -> List.iter (fun i -> Fmt.pr "  INTEGRITY %s@." i) issues)
  | [ "dump" ] ->
    Fmt.pr "%a@.%a@." Editor.dump_network cnet Editor.pp_agenda cnet
  | [ "metrics" ] ->
    Fmt.pr "%s@?"
      (Serve.Exposition.render [ (name, Obs.Board.metrics ss.ss_board) ])
  | "spans" :: rest ->
    rows last rest (Obs.Answer.spans boards)
  | "hotspots" :: rest ->
    rows first (if rest = [] then [ "5" ] else rest)
      (Obs.Answer.hotspots (Obs.Board.profiler ss.ss_board))
  | [ "trace"; "jsonl"; file ] ->
    ignore (trace_off ss);
    (match open_out file with
    | oc ->
      Engine.add_sink cnet
        (Obs.Jsonl.channel_sink ~pp_value:Dval.to_string oc);
      ss.ss_jsonl <- Some (file, oc);
      Fmt.pr "  tracing to %s (JSONL)@." file
    | exception Sys_error msg -> Fmt.pr "  cannot open %s: %s@." file msg)
  | [ "trace"; "off" ] ->
    if trace_off ss then Fmt.pr "  trace export stopped@."
    else Fmt.pr "  no trace export active@."
  | [ "health" ] ->
    Obs.Board.checkpoint ss.ss_board;
    answer (Obs.Answer.health name ss.ss_board)
  | "window" :: rest ->
    rows last rest (Obs.Answer.windows name (Obs.Board.window ss.ss_board))
  | [ "exemplars" ] ->
    answer (Obs.Answer.exemplars boards)
  | [ "exemplars"; n ] ->
    let exs = Obs.Sampler.exemplars (Obs.Board.sampler ss.ss_board) in
    (match int_of_string_opt n with
    | Some i when i >= 1 && i <= List.length exs ->
      answer (Obs.Answer.exemplar name (List.nth exs (i - 1)))
    | _ -> Fmt.pr "  no exemplar #%s (have %d)@." n (List.length exs))
  | [ "alerts" ] ->
    answer
      (Obs.Answer.alerts [ (name, Obs.Board.watchdog ss.ss_board) ])
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
      Fmt.pr "  wrote %s@." file;
      answer (Obs.Answer.topo cnet)
    | exception Sys_error msg -> Fmt.pr "  cannot open %s: %s@." file msg)
  | [ "topo" ] ->
    answer (Obs.Answer.topo cnet)
  | [ "why"; path ] ->
    with_var cnet path (fun v -> answer (Obs.Answer.why prov (Var.path v)))
  | [ "blame"; path ] ->
    with_var cnet path (fun v ->
        answer (Obs.Answer.blame prov (Var.path v)))
  | [ "critical" ] -> answer (Obs.Answer.critical prov None)
  | [ "critical"; e ] when int_of_string_opt e <> None ->
    answer (Obs.Answer.critical prov (int_of_string_opt e))
  | "critical" :: _ -> Fmt.pr "  episode id must be an integer@."
  | [ "tracetree" ] ->
    answer (Obs.Answer.episodes prov)
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
    | exception Sys_error msg -> Fmt.pr "  cannot read %s: %s@." file msg)
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
          Fmt.pr "  cannot bind port %d: %s@." port (Unix.error_message e))))
  | [ "unserve" ] ->
    if serve_off ss then Fmt.pr "  telemetry server stopped@."
    else Fmt.pr "  no telemetry server running@."
  | "host" :: id :: rest ->
    (let tenant = match rest with [ t ] -> Some t | _ -> None in
     match
       Serve.Wstore.adopt ?tenant ~id ~net:cnet ~board:ss.ss_board ()
     with
     | Ok e ->
       Fmt.pr "  hosted as %S for tenant %S (POST /nets/%s/set)@."
         (Serve.Wstore.id e) (Serve.Wstore.tenant e) (Serve.Wstore.id e)
     | Error msg -> Fmt.pr "  cannot host: %s@." msg)
  | [ "unhost"; id ] ->
    if Serve.Wstore.drop ~id then Fmt.pr "  %S unhosted@." id
    else Fmt.pr "  no hosted network %S@." id
  | [ "history" ] ->
    (match ss.ss_history with
    | None -> Fmt.pr "  history off (history DIR to enable)@."
    | Some ts -> answer (Obs.Answer.history ts))
  | [ "history"; _ ] when Option.is_some ss.ss_serve ->
    Fmt.pr "  the server samples the store it started with (unserve first)@."
  | [ "history"; "off" ] ->
    (match ss.ss_history with
    | None -> Fmt.pr "  history already off@."
    | Some ts ->
      Obs.Board.set_history ss.ss_board None;
      ss.ss_history <- None;
      if close_history ts then Fmt.pr "  history off, store sealed@."
      else Fmt.pr "  history off@.")
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
      Fmt.pr "  cannot open %s: %s@." dir (Unix.error_message e))
  | "sparkline" :: series :: rest ->
    (match ss.ss_history with
    | None -> Fmt.pr "  history off (history DIR first)@."
    | Some ts -> (
      match
        match rest with [ s ] -> float_of_string_opt s | _ -> Some 300.
      with
      | Some secs when secs > 0. ->
        let to_ = Unix.gettimeofday () in
        answer (Obs.Answer.summary ts series ~from_:(to_ -. secs) ~to_)
      | _ -> Fmt.pr "  seconds must be a positive number@."))
  | [ "tracing"; ("on" | "off") as sw ] ->
    (match ss.ss_serve with
    | None -> Fmt.pr "  request tracing belongs to the server (serve first)@."
    | Some sv ->
      Obs.Tracing.set_enabled (Serve.tracer sv) (sw = "on");
      if sw = "on" then
        Fmt.pr
          "  request tracing on: hosted-net writes record \
           parse/admit/episode/append spans (GET /trace, chrome FILE)@."
      else Fmt.pr "  request tracing off@.")
  | [ "tracing" ] ->
    Fmt.pr "  request tracing is %s@."
      (match ss.ss_serve with
      | Some sv when Obs.Tracing.enabled (Serve.tracer sv) -> "on"
      | _ -> "off")
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
      | exception Sys_error msg -> Fmt.pr "  cannot write %s: %s@." file msg))
  | cmd :: _ ->
    Fmt.pr "unknown command %S (try: help)@." cmd

let execute ss line =
  match
    String.split_on_char ' ' (String.trim line) |> List.filter (fun w -> w <> "")
  with
  | [ "quit" ] | [ "q" ] | [ "exit" ] -> false
  | words ->
    command ss words;
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
