(* Tests for the constraint-editor command shell (§5.4). *)

let contains = Astring_contains.contains

let mkenv () =
  let env = Stem.Env.create () in
  let acc = Cell_library.Datapath.accumulator ~spec:180.0 env in
  ignore
    (Delay.Delay_network.delay env acc.Cell_library.Datapath.acc ~from_:"in"
       ~to_:"out");
  env

let run env cmds = Shell.execute_script env cmds

let test_show_and_vars () =
  let env = mkenv () in
  let out = run env [ "vars delay" ] in
  Alcotest.(check bool) "lists delay vars" true (contains out "REG8.d->q.delay");
  let out = run env [ "show ACCUMULATOR.in->out.delay" ] in
  Alcotest.(check bool) "shows value" true (contains out "170");
  let out = run env [ "show NO.SUCH" ] in
  Alcotest.(check bool) "miss reported" true (contains out "no variable")

let test_set_and_propagate () =
  let env = mkenv () in
  let out =
    run env [ "set REG8.d->q.delay 45.0"; "show ACCUMULATOR.in->out.delay" ]
  in
  Alcotest.(check bool) "assignment accepted" true (contains out "ok:");
  Alcotest.(check bool) "propagated to 155" true (contains out "155")

let test_violating_set_reports () =
  let env = mkenv () in
  (* the adder's internal spec is 120 ns *)
  let out = run env [ "set ADDER8.a->s.delay 130.0"; "show ADDER8.a->s.delay" ] in
  Alcotest.(check bool) "violation printed" true (contains out "!!");
  Alcotest.(check bool) "value restored" true (contains out "105")

let test_traces_and_dump () =
  let env = mkenv () in
  let out = run env [ "antecedents ACCUMULATOR.in->out.delay" ] in
  Alcotest.(check bool) "antecedents reach the register" true
    (contains out "REG8.d->q.delay");
  let out = run env [ "consequences REG8.d->q.delay" ] in
  Alcotest.(check bool) "consequences reach the top delay" true
    (contains out "ACCUMULATOR.in->out.delay");
  let out = run env [ "dump" ] in
  Alcotest.(check bool) "dump shows counts" true (contains out "variables")

let test_switch_and_check () =
  let env = mkenv () in
  let out =
    run env
      [
        "off";
        "set ADDER8.a->s.delay 130.0" (* plain store while off *);
        "check";
        "on";
      ]
  in
  Alcotest.(check bool) "off acknowledged" true (contains out "propagation off");
  Alcotest.(check bool) "batch check finds the violation" true
    (contains out "VIOLATED")

let test_bad_input () =
  let env = mkenv () in
  let out = run env [ "set REG8.d->q.delay not-a-value" ] in
  Alcotest.(check bool) "parse failure reported" true (contains out "cannot parse");
  let out = run env [ "frobnicate" ] in
  Alcotest.(check bool) "unknown command reported" true (contains out "unknown command");
  let out = run env [ "cstr banana" ] in
  Alcotest.(check bool) "non-integer id reported" true (contains out "integer")

let test_disable_enable_remove () =
  let env = mkenv () in
  let out = run env [ "cstrs" ] in
  Alcotest.(check bool) "constraints listed" true (contains out "less-equal");
  (* find some constraint id from the listing: use id 0 *)
  let out = run env [ "disable 0"; "enable 0" ] in
  Alcotest.(check bool) "toggles reported" true
    (contains out "disabled" && contains out "enabled")

let test_observability_commands () =
  let env = mkenv () in
  let out =
    run env [ "set REG8.d->q.delay 45.0"; "metrics"; "spans 2"; "hotspots 3" ]
  in
  Alcotest.(check bool) "metrics render counters" true
    (contains out "stem_episodes_total");
  Alcotest.(check bool) "latency histogram populated" true
    (contains out "stem_episode_latency_us_bucket");
  Alcotest.(check bool) "span printed with outcome" true
    (contains out "committed");
  Alcotest.(check bool) "hotspots name a constraint kind" true
    (contains out "activations=");
  let out = run env [ "spans" ] in
  Alcotest.(check string) "no-episode case is the empty answer" "[]\n" out

let test_health_commands () =
  let env = mkenv () in
  let out =
    run env
      [
        "set REG8.d->q.delay 45.0";
        "set REG8.d->q.delay 50.0";
        "set ADDER8.a->s.delay 130.0" (* violates: one rolled-back episode *);
        "health";
        "window";
        "exemplars";
        "exemplars 1";
        "alerts";
        "topo";
      ]
  in
  Alcotest.(check bool) "health shows a window line" true
    (contains out "episodes");
  Alcotest.(check bool) "health shows latency quantiles" true
    (contains out "p99");
  Alcotest.(check bool) "health shows alert status" true
    (contains out "firing:");
  Alcotest.(check bool) "health counts exemplars" true
    (contains out "exemplars:");
  Alcotest.(check bool) "exemplar list names a reason" true
    (contains out "slow" || contains out "violating");
  Alcotest.(check bool) "exemplar detail prints the event trace" true
    (contains out "start (set)" && contains out "<-");
  Alcotest.(check bool) "alerts prints the transitions" true
    (contains out "[]" || contains out "t=alert");
  Alcotest.(check bool) "topo prints structural stats" true
    (contains out "depth=");
  (* dot export writes a parseable document *)
  let file = Filename.temp_file "stem_shell_topo" ".dot" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let out = run env [ Printf.sprintf "dot %s" file ] in
      Alcotest.(check bool) "dot reports the write" true (contains out file);
      let ic = open_in file in
      let n = in_channel_length ic in
      let doc = really_input_string ic n in
      close_in ic;
      Alcotest.(check bool) "graph block" true (contains doc "graph stem {");
      Alcotest.(check bool) "heat or plain constraint nodes" true
        (contains doc "shape=box");
      Alcotest.(check bool) "edges present" true (contains doc " -- "))

let test_trace_jsonl_command () =
  let env = mkenv () in
  let file = Filename.temp_file "stem_shell_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let out =
        run env
          [
            Printf.sprintf "trace jsonl %s" file;
            "set REG8.d->q.delay 45.0";
            "trace off";
            "set REG8.d->q.delay 46.0" (* after export stopped *);
          ]
      in
      Alcotest.(check bool) "export announced" true (contains out "tracing to");
      Alcotest.(check bool) "export stopped" true (contains out "stopped");
      let lines = Obs.Jsonl.load_file file in
      Alcotest.(check bool) "events written" true (List.length lines > 0);
      let eps =
        List.filter_map
          (function
            | Ok fields ->
              (match Obs.Jsonl.str fields "t" with
              | Some "episode_end" -> Obs.Jsonl.str fields "outcome"
              | _ -> None)
            | Error e -> Alcotest.failf "unparsable shell trace: %s" e)
          lines
      in
      Alcotest.(check (list string)) "only the traced episode exported"
        [ "committed" ] eps)

(* ---------------- one answer, three surfaces ---------------- *)

(* One command in a live session, and what it printed. *)
let capture ss line =
  let buf = Buffer.create 256 in
  let out, flush = Format.get_formatter_output_functions () in
  Format.set_formatter_output_functions (Buffer.add_substring buf) ignore;
  Fun.protect
    ~finally:(fun () ->
      Format.print_flush ();
      Format.set_formatter_output_functions out flush)
    (fun () -> ignore (Shell.execute ss line));
  Buffer.contents buf

(* A session net with its board, served (shell
   [serve], with the session's history store) and hosted (shell [host]),
   after a fixed edit mix with a rolled-back episode: every HTTP body is
   [Jsonl.to_string] of an answer, and every shell command prints
   [Answer.text] of the same answer. *)
let test_surfaces_agree () =
  Test_durable.with_dir (fun dir ->
      let env = mkenv () in
      let ss = Shell.session env in
      Fun.protect
        ~finally:(fun () -> Shell.close ss)
        (fun () ->
          let sh = capture ss in
          List.iter
            (fun l -> ignore (sh l))
            [
              "set REG8.d->q.delay 45.0";
              "set REG8.d->q.delay 50.0";
              "set ADDER8.a->s.delay 130.0" (* rolled back *);
              "history " ^ dir;
            ];
          let port =
            let out = sh "serve 0" in
            match String.index_opt out ':' with
            | None -> Alcotest.failf "no port in %S" out
            | Some _ ->
              Scanf.sscanf
                (List.nth (String.split_on_char ':' out) 2)
                "%d" Fun.id
          in
          ignore (sh "host agree");
          let health_out = sh "health" in
          let net = (Stem.Env.cnet env).Constraint_kernel.Types.net_name in
          let e = Option.get (Serve.Wstore.find ~id:"agree") in
          let board = Serve.Wstore.board e and prov = Serve.Wstore.prov e in
          let ts = Option.get (Obs.Board.history board) in
          let served =
            List.map
              (fun (Serve.Wstore.Served s) -> Obs.Answer.Named (s.name, s.board))
              (Serve.Wstore.served ())
          in
          let mine = [ Obs.Answer.Named (net, board) ] in
          let watchdogs =
            List.map
              (fun (Serve.Wstore.Served s) -> (s.name, Obs.Board.watchdog s.board))
              (Serve.Wstore.served ())
          in
          let body meth path =
            let r =
              match meth with
              | `Get -> Serve.Client.request ~port path
              | `Post -> Serve.Client.post ~port ~body:"" path
            in
            match r with
            | Ok r -> r.Serve.Client.rs_body
            | Error e -> Alcotest.failf "%s: %s" path e
          in
          let text j = Fmt.str "%a@." Obs.Answer.text j in
          let json = Obs.Jsonl.to_string in
          let check = Alcotest.(check string) in
          Alcotest.(check bool) "the mix rolled one episode back" true
            (contains (json (Obs.Answer.spans mine)) "\"outcome\":\"rolled_back\"");
          (* HTTP bodies *)
          check "GET /spans" (json (Obs.Answer.spans served)) (body `Get "/spans");
          (match Strict_json.parse_json (body `Get "/spans") with
          | Strict_json.Arr rows ->
            Alcotest.(check (list string)) "served once, under the hosted id"
              [ "agree"; "agree"; "agree" ]
              (List.map
                 (function
                   | Strict_json.Obj kvs -> (
                     match List.assoc_opt "net" kvs with
                     | Some (Strict_json.Str n) -> n
                     | _ -> "?")
                   | _ -> "?")
                 rows)
          | _ -> Alcotest.fail "/spans is not an array");
          check "GET /exemplars"
            (json (Obs.Answer.exemplars served))
            (body `Get "/exemplars");
          let st = Serve.stream_stats () in
          check "GET /healthz"
            (json
               (Obs.Answer.healthz served []
                  ~stream:
                    [
                      ("published", st.Serve.Stream.st_published);
                      ("dropped", st.Serve.Stream.st_dropped);
                      ("subscribers", st.Serve.Stream.st_subscribers);
                    ]))
            (body `Get "/healthz");
          check "GET /alerts"
            (Obs.Jsonl.to_ndjson (Obs.Answer.alerts watchdogs))
            (body `Get "/alerts");
          let var = "ACCUMULATOR.in->out.delay" in
          let q = "?var=ACCUMULATOR.in-%3Eout.delay" in
          check "POST /nets/:id/why"
            (json (Obs.Answer.why prov var))
            (body `Post ("/nets/agree/why" ^ q));
          check "POST /nets/:id/blame"
            (json (Obs.Answer.blame prov "REG8.d->q.delay"))
            (body `Post "/nets/agree/blame?var=REG8.d-%3Eq.delay");
          check "GET /series" (json (Obs.Answer.history ts)) (body `Get "/series");
          (* shell output *)
          check "shell health" (text (Obs.Answer.health net board)) health_out;
          check "shell spans" (text (Obs.Answer.spans mine)) (sh "spans");
          check "shell exemplars" (text (Obs.Answer.exemplars mine)) (sh "exemplars");
          check "shell alerts"
            (text (Obs.Answer.alerts [ (net, Obs.Board.watchdog board) ]))
            (sh "alerts");
          check "shell why" (text (Obs.Answer.why prov var)) (sh ("why " ^ var));
          check "shell blame"
            (text (Obs.Answer.blame prov "REG8.d->q.delay"))
            (sh "blame REG8.d->q.delay");
          check "shell history" (text (Obs.Answer.history ts)) (sh "history")))

let suite =
  let tc = Alcotest.test_case in
  ( "shell",
    [
      tc "show and vars" `Quick test_show_and_vars;
      tc "set and propagate" `Quick test_set_and_propagate;
      tc "violating set reports" `Quick test_violating_set_reports;
      tc "traces and dump" `Quick test_traces_and_dump;
      tc "switch and check" `Quick test_switch_and_check;
      tc "bad input" `Quick test_bad_input;
      tc "disable/enable/remove" `Quick test_disable_enable_remove;
      tc "observability commands" `Quick test_observability_commands;
      tc "health and topology commands" `Quick test_health_commands;
      tc "trace jsonl export" `Quick test_trace_jsonl_command;
      tc "surfaces agree" `Quick test_surfaces_agree;
    ] )
