(* The telemetry server: Prometheus exposition correctness (escaping,
   naming, family grouping across registries), DOT escaping, watchdog
   alert JSONL records, the HTTP parser's edge cases, the bounded
   drop-oldest event stream, and the full server over real sockets —
   including the acceptance properties: >= 100 NDJSON events streamed
   during a burst, and a deliberately slow scraper that drops lines
   without stopping propagation. *)

open Constraint_kernel

let mknet ?(name = "srv") () = Engine.create_network ~name ()

let ivar net name =
  Var.create net ~owner:"s" ~name ~equal:Int.equal ~pp:Fmt.int ()

let chain net =
  let a = ivar net "a" and b = ivar net "b" and c = ivar net "c" in
  ignore (Clib.equality net [ a; b ]);
  ignore (Clib.equality net [ b; c ]);
  (a, b, c)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---------------- Prometheus exposition units ---------------- *)

let test_prometheus_escape () =
  Alcotest.(check string)
    "backslash, quote, newline" "a\\\\b\\\"c\\nd"
    (Obs.Metrics.prometheus_escape "a\\b\"c\nd");
  let clean = "plain-value_1.2" in
  Alcotest.(check string) "clean value unchanged" clean
    (Obs.Metrics.prometheus_escape clean)

let test_prometheus_name () =
  Alcotest.(check string) "dots underscore, namespaced" "stem_episode_latency_us"
    (Obs.Metrics.prometheus_name "episode.latency_us");
  Alcotest.(check string) "odd bytes sanitised" "stem_a_b_c"
    (Obs.Metrics.prometheus_name "a-b c");
  Alcotest.(check string) "custom namespace" "x_n"
    (Obs.Metrics.prometheus_name ~namespace:"x" "n");
  Alcotest.(check string) "empty namespace = bare" "n"
    (Obs.Metrics.prometheus_name ~namespace:"" "n")

let test_prometheus_family () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "edits" in
  let ct = Obs.Metrics.counter m "episodes.total" in
  let g = Obs.Metrics.gauge m "depth" in
  let h = Obs.Metrics.histogram m "lat" in
  let fam it = Obs.Metrics.prometheus_family it in
  Alcotest.(check (pair string string))
    "counter gains _total" ("stem_edits_total", "counter")
    (fam (Obs.Metrics.Counter c));
  Alcotest.(check (pair string string))
    "no double _total" ("stem_episodes_total", "counter")
    (fam (Obs.Metrics.Counter ct));
  Alcotest.(check (pair string string))
    "gauge" ("stem_depth", "gauge")
    (fam (Obs.Metrics.Gauge g));
  Alcotest.(check (pair string string))
    "histogram" ("stem_lat", "histogram")
    (fam (Obs.Metrics.Histogram h))

let test_render_prometheus () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "edits" in
  Obs.Metrics.incr ~by:3 c;
  let g = Obs.Metrics.gauge m "depth" in
  Obs.Metrics.set_gauge g 2.5;
  let h = Obs.Metrics.histogram ~bounds:[| 1.0; 2.0; 5.0 |] m "lat" in
  List.iter (Obs.Metrics.observe h) [ 0.5; 1.5; 9.0 ];
  let out = Serve.Exposition.render [ ("a\"b\\c\nd", m) ] in
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("exposition contains " ^ sub) true
        (contains ~sub out))
    [
      "# TYPE stem_edits_total counter";
      "# HELP stem_edits_total ";
      "stem_edits_total{net=\"a\\\"b\\\\c\\nd\"} 3";
      "# TYPE stem_depth gauge";
      "stem_depth{net=\"a\\\"b\\\\c\\nd\"} 2.5";
      "# TYPE stem_lat histogram";
      "le=\"1\"} 1";
      "le=\"2\"} 2";
      "le=\"5\"} 2";
      "le=\"+Inf\"} 3";
      "stem_lat_sum{net=\"a\\\"b\\\\c\\nd\"} 11";
      "stem_lat_count{net=\"a\\\"b\\\\c\\nd\"} 3";
    ]

(* Exposition well-formedness: each family announced exactly once, and
   every series line sits under its own family's header (contiguity —
   the property a naive per-registry concat would violate). *)
let check_exposition out =
  let starts_with ~prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  let seen = Hashtbl.create 16 in
  let current = ref "" in
  List.iter
    (fun l ->
      if starts_with ~prefix:"# TYPE " l then begin
        let fam =
          List.hd
            (String.split_on_char ' '
               (String.sub l 7 (String.length l - 7)))
        in
        Alcotest.(check bool)
          ("family announced once: " ^ fam)
          false (Hashtbl.mem seen fam);
        Hashtbl.replace seen fam ();
        current := fam
      end
      else if l <> "" && l.[0] <> '#' then begin
        let name =
          match (String.index_opt l '{', String.index_opt l ' ') with
          | Some i, Some j -> String.sub l 0 (min i j)
          | Some i, None -> String.sub l 0 i
          | None, Some j -> String.sub l 0 j
          | None, None -> l
        in
        Alcotest.(check bool)
          ("series under its family header: " ^ name)
          true
          (starts_with ~prefix:!current name)
      end)
    (String.split_on_char '\n' out)

let test_exposition_merge () =
  let mk label =
    let m = Obs.Metrics.create () in
    Obs.Metrics.incr ~by:label (Obs.Metrics.counter m "episodes.total");
    Obs.Metrics.observe (Obs.Metrics.histogram m "episode.latency_us") 10.0;
    m
  in
  let out = Serve.Exposition.render [ ("one", mk 1); ("two", mk 2) ] in
  check_exposition out;
  Alcotest.(check bool) "series for net one" true
    (contains ~sub:"stem_episodes_total{net=\"one\"} 1" out);
  Alcotest.(check bool) "series for net two" true
    (contains ~sub:"stem_episodes_total{net=\"two\"} 2" out)

(* ---------------- DOT escaping ---------------- *)

let test_dot_escape () =
  Alcotest.(check string)
    "quote/backslash/newline" "a\\\"b\\\\c\\nd"
    (Obs.Topo.dot_escape "a\"b\\c\nd");
  Alcotest.(check string) "carriage return" "a\\rb" (Obs.Topo.dot_escape "a\rb");
  Alcotest.(check string)
    "control bytes become placeholders" "a\\x01b\\x7fc"
    (Obs.Topo.dot_escape "a\x01b\x7fc");
  Alcotest.(check string) "tab too" "a\\x09b" (Obs.Topo.dot_escape "a\tb")

(* ---------------- watchdog alert records ---------------- *)

let test_alert_json () =
  (* a firing then a cleared transition, recorded through the verdict
     entry point, rendered by the alerts answer as two NDJSON lines *)
  let wd = Obs.Watchdog.create [] in
  ignore
    (Obs.Watchdog.record wd ~index:7
       [ ("latency.p99", Some "p99 123.0µs > 50.0µs") ]);
  ignore (Obs.Watchdog.record wd ~index:8 [ ("latency.p99", None) ]);
  let line, cleared =
    match
      String.split_on_char '\n'
        (Obs.Jsonl.to_ndjson (Obs.Answer.alerts [ ("net\"1", wd) ]))
    with
    | [ line; cleared; "" ] -> (line, cleared)
    | _ -> Alcotest.fail "expected two alert lines"
  in
  (match Obs.Jsonl.parse_line line with
  | Error e -> Alcotest.failf "alert line does not parse: %s" e
  | Ok fields ->
    Alcotest.(check int) "schema v2" 2 (Obs.Jsonl.version fields);
    Alcotest.(check (option string)) "kind" (Some "alert")
      (Obs.Jsonl.str fields "t");
    Alcotest.(check (option string)) "net escaped+restored" (Some "net\"1")
      (Obs.Jsonl.str fields "net");
    Alcotest.(check (option string)) "rule" (Some "latency.p99")
      (Obs.Jsonl.str fields "rule");
    Alcotest.(check (option int)) "window" (Some 7)
      (Obs.Jsonl.int fields "window");
    Alcotest.(check (option string)) "state" (Some "firing")
      (Obs.Jsonl.str fields "state"));
  (match Obs.Jsonl.parse_line cleared with
  | Error e -> Alcotest.failf "cleared line does not parse: %s" e
  | Ok fields ->
    Alcotest.(check (option string)) "cleared state" (Some "cleared")
      (Obs.Jsonl.str fields "state"));
  (* replay treats the unknown kind as a non-value-moving record *)
  let rp = Obs.Replay.of_string (line ^ "\n" ^ cleared ^ "\n") in
  Alcotest.(check int) "no replay warnings" 0
    (List.length (Obs.Replay.warnings rp));
  Obs.Replay.to_end rp;
  Alcotest.(check int) "both records consumed" 2 (Obs.Replay.position rp)

let test_json_of_event_net () =
  let te =
    {
      Types.te_episode = 3;
      te_seq = 41;
      te_event = Types.T_episode_start (3, "set", None);
    }
  in
  match Obs.Jsonl.parse_line (Obs.Jsonl.json_of_event ~net:"cell-A" te) with
  | Error e -> Alcotest.failf "line does not parse: %s" e
  | Ok fields ->
    Alcotest.(check (option string)) "net tag" (Some "cell-A")
      (Obs.Jsonl.str fields "net");
    Alcotest.(check (option int)) "seq kept" (Some 41)
      (Obs.Jsonl.int fields "seq")

(* ---------------- the event stream hub ---------------- *)

let never_stop () = false

let test_stream_drop_oldest () =
  let hub = Serve.Stream.create () in
  Alcotest.(check bool) "inactive without subscribers" false
    (Serve.Stream.active hub);
  let formatted = ref 0 in
  let line s () =
    incr formatted;
    s
  in
  Serve.Stream.publish hub ~net:"x" (line "lost");
  Alcotest.(check int) "publish without subscribers is a no-op" 0
    (Serve.Stream.stats hub).Serve.Stream.st_published;
  let transitions = ref [] in
  Serve.Stream.set_on_transition hub (fun a -> transitions := a :: !transitions);
  let sub = Serve.Stream.subscribe ~capacity:4 hub in
  Alcotest.(check bool) "active now" true (Serve.Stream.active hub);
  for i = 1 to 10 do
    Serve.Stream.publish hub ~net:"x" (line (Printf.sprintf "l%d" i))
  done;
  Alcotest.(check int) "nothing formatted before a reader asks" 0 !formatted;
  Alcotest.(check int) "oldest six dropped" 6 (Serve.Stream.dropped sub);
  let got = List.init 4 (fun _ -> Serve.Stream.next hub sub ~stop:never_stop) in
  Alcotest.(check (list (option string)))
    "newest four survive, in order"
    [ Some "l7"; Some "l8"; Some "l9"; Some "l10" ]
    got;
  Alcotest.(check int) "only delivered lines were ever formatted" 4 !formatted;
  Serve.Stream.unsubscribe hub sub;
  Alcotest.(check bool) "inactive again" false (Serve.Stream.active hub);
  Alcotest.(check (list bool)) "transitions reported in order" [ false; true ]
    !transitions;
  Alcotest.(check int) "closed sub answers None immediately" 0
    (match Serve.Stream.next hub sub ~stop:never_stop with
    | None -> 0
    | Some _ -> 1)

let test_stream_net_filter () =
  let hub = Serve.Stream.create () in
  let only_a = Serve.Stream.subscribe ~net:"a" hub in
  let all = Serve.Stream.subscribe hub in
  Serve.Stream.publish hub ~net:"a" (fun () -> "from-a");
  Serve.Stream.publish hub ~net:"b" (fun () -> "from-b");
  Alcotest.(check (option string)) "filtered sub sees only net a"
    (Some "from-a")
    (Serve.Stream.next hub only_a ~stop:never_stop);
  Alcotest.(check int) "nothing else queued for the filtered sub" 0
    (Serve.Stream.received only_a
    -
    match Serve.Stream.next hub only_a ~stop:(fun () -> true) with
    | None -> 1
    | Some _ -> 0);
  Alcotest.(check (option string)) "unfiltered sees a" (Some "from-a")
    (Serve.Stream.next hub all ~stop:never_stop);
  Alcotest.(check (option string)) "unfiltered sees b" (Some "from-b")
    (Serve.Stream.next hub all ~stop:never_stop);
  Serve.Stream.unsubscribe hub only_a;
  Serve.Stream.unsubscribe hub all

(* ---------------- HTTP parser edge cases ---------------- *)

(* Feed the parser through a real socketpair: write [data] on one end
   (then close it), parse on the other. *)
let with_pair data f =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  let _ =
    Unix.write_substring a data 0 (String.length data)
  in
  Unix.close a;
  Fun.protect ~finally:(fun () -> try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f (Serve.Http.conn b))

let test_http_parse_ok () =
  with_pair
    "GET /events?net=cell%20A&cap=8&flag HTTP/1.1\r\nHost: x\r\nX-Weird:  padded \r\n\r\n"
    (fun conn ->
      match Serve.Http.read_request conn with
      | Error _ -> Alcotest.fail "expected a parsed request"
      | Ok rq ->
        Alcotest.(check string) "method" "GET" rq.Serve.Http.rq_method;
        Alcotest.(check string) "path" "/events" rq.Serve.Http.rq_path;
        Alcotest.(check (option string)) "percent-decoded query"
          (Some "cell A")
          (Serve.Http.query rq "net");
        Alcotest.(check (option int)) "int query" (Some 8)
          (Serve.Http.query_int rq "cap");
        Alcotest.(check (option string)) "bare query key" (Some "")
          (Serve.Http.query rq "flag");
        Alcotest.(check (option string)) "header lowercased+trimmed"
          (Some "padded")
          (Serve.Http.header rq "x-weird");
        Alcotest.(check bool) "1.1 defaults to keep-alive" true
          (Serve.Http.keep_alive rq))

let test_http_truncated () =
  with_pair "GET /metr" (fun conn ->
      match Serve.Http.read_request conn with
      | Error Serve.Http.Truncated -> ()
      | _ -> Alcotest.fail "expected Truncated");
  with_pair "" (fun conn ->
      match Serve.Http.read_request conn with
      | Error Serve.Http.Closed -> ()
      | _ -> Alcotest.fail "expected Closed on clean EOF")

let test_http_too_large () =
  let big =
    "GET / HTTP/1.1\r\nx-pad: " ^ String.make 2000 'a' ^ "\r\n\r\n"
  in
  with_pair big (fun conn ->
      match Serve.Http.read_request ~max_head:512 conn with
      | Error Serve.Http.Too_large -> ()
      | _ -> Alcotest.fail "expected Too_large")

let test_http_bad_request () =
  with_pair "NONSENSE\r\n\r\n" (fun conn ->
      match Serve.Http.read_request conn with
      | Error (Serve.Http.Bad _) -> ()
      | _ -> Alcotest.fail "expected Bad");
  with_pair "GET /x SMTP/1.0\r\n\r\n" (fun conn ->
      match Serve.Http.read_request conn with
      | Error (Serve.Http.Bad _) -> ()
      | _ -> Alcotest.fail "expected Bad on non-HTTP version")

let test_http_pipelining () =
  (* two requests in one segment: the second must survive in the
     connection's pending buffer *)
  with_pair
    "GET /one HTTP/1.1\r\n\r\nGET /two HTTP/1.1\r\nconnection: close\r\n\r\n"
    (fun conn ->
      (match Serve.Http.read_request conn with
      | Ok rq -> Alcotest.(check string) "first" "/one" rq.Serve.Http.rq_path
      | Error _ -> Alcotest.fail "first request");
      match Serve.Http.read_request conn with
      | Ok rq ->
        Alcotest.(check string) "second" "/two" rq.Serve.Http.rq_path;
        Alcotest.(check bool) "close honoured" false (Serve.Http.keep_alive rq)
      | Error _ -> Alcotest.fail "second request")

(* ---------------- the server over real sockets ---------------- *)

let with_server f =
  let net = mknet ~name:"srv-live" () in
  let vars = chain net in
  let board = Obs.Board.attach net in
  Serve.expose ~board net;
  let sv = Serve.start ~port:0 () in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop sv;
      ignore (Serve.unexpose "srv-live");
      Obs.Board.detach net)
    (fun () -> f sv net vars)

let get_ok port path =
  match Serve.Client.get ~port path with
  | Ok r -> r
  | Error e -> Alcotest.failf "GET %s: %s" path e

let raw_roundtrip port data =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd SO_RCVTIMEO 10.0;
      Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
      ignore (Unix.write_substring fd data 0 (String.length data));
      Unix.shutdown fd SHUTDOWN_SEND;
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> ()
      in
      drain ();
      Buffer.contents buf)

let test_server_endpoints () =
  with_server (fun sv net (a, _, _) ->
      for i = 1 to 5 do
        ignore (Engine.set net a i)
      done;
      let port = Serve.port sv in
      let metrics = get_ok port "/metrics" in
      Alcotest.(check int) "metrics 200" 200 metrics.Serve.Client.rs_status;
      check_exposition metrics.Serve.Client.rs_body;
      Alcotest.(check bool) "episodes counted for the exposed net" true
        (contains ~sub:"stem_episodes_total{net=\"srv-live\"} 5"
           metrics.Serve.Client.rs_body);
      Alcotest.(check bool) "server self-metrics present" true
        (contains ~sub:"stem_serve_requests_total" metrics.Serve.Client.rs_body);
      let hz = get_ok port "/healthz" in
      Alcotest.(check int) "healthz 200 when quiet" 200 hz.Serve.Client.rs_status;
      Alcotest.(check bool) "healthz names the net" true
        (contains ~sub:"\"net\":\"srv-live\"" hz.Serve.Client.rs_body);
      Alcotest.(check bool) "healthz carries stream stats" true
        (contains ~sub:"\"stream\":{" hz.Serve.Client.rs_body);
      let idx = get_ok port "/" in
      Alcotest.(check bool) "index lists endpoints" true
        (contains ~sub:"/metrics" idx.Serve.Client.rs_body);
      let spans = get_ok port "/spans" in
      Alcotest.(check bool) "spans is a JSON array with content" true
        (String.length spans.Serve.Client.rs_body > 2
        && spans.Serve.Client.rs_body.[0] = '[');
      let dot = get_ok port "/topo.dot" in
      Alcotest.(check bool) "topology is DOT" true
        (contains ~sub:"graph" dot.Serve.Client.rs_body);
      let missing =
        match Serve.Client.get ~port "/nothing-here" with
        | Ok r -> r.Serve.Client.rs_status
        | Error e -> Alcotest.failf "404 request failed: %s" e
      in
      Alcotest.(check int) "unknown path is 404" 404 missing)

let test_server_405_431_truncated () =
  with_server (fun sv _ _ ->
      let port = Serve.port sv in
      let resp = raw_roundtrip port "POST /metrics HTTP/1.1\r\n\r\n" in
      Alcotest.(check bool) "unknown method answers 405" true
        (contains ~sub:"405" resp);
      Alcotest.(check bool) "405 carries allow" true
        (contains ~sub:"allow: GET" resp);
      let big = "GET / HTTP/1.1\r\nx-pad: " ^ String.make 9000 'a' ^ "\r\n\r\n" in
      let resp = raw_roundtrip port big in
      Alcotest.(check bool) "oversized head answers 431" true
        (contains ~sub:"431" resp);
      (* truncated request line: the server must drop the connection
         quietly and stay alive *)
      let resp = raw_roundtrip port "GET /met" in
      Alcotest.(check string) "truncated head gets no response" "" resp;
      let ok = get_ok port "/healthz" in
      Alcotest.(check int) "server healthy afterwards" 200
        ok.Serve.Client.rs_status)

let test_server_keep_alive () =
  with_server (fun sv _ _ ->
      let port = Serve.port sv in
      let resp =
        raw_roundtrip port
          "GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n"
      in
      let rec count_at i acc =
        match String.index_from_opt resp i 'H' with
        | None -> acc
        | Some j ->
          if
            j + 12 <= String.length resp
            && String.sub resp j 12 = "HTTP/1.1 200"
          then count_at (j + 1) (acc + 1)
          else count_at (j + 1) acc
      in
      Alcotest.(check int) "two responses on one connection" 2
        (count_at 0 0))

(* The headline acceptance test: >= 100 NDJSON lines streamed live
   from /events during a propagation burst, every line parseable. *)
let test_events_stream_burst () =
  with_server (fun sv net (a, _, _) ->
      let port = Serve.port sv in
      let result = ref (Error "not run") in
      let reader =
        Thread.create
          (fun () ->
            result := Serve.Client.get ~port "/events?max=120&cap=4096")
          ()
      in
      (* wait for the subscription, then burst *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      while
        Serve.Stream.subscribers Serve.hub = 0
        && Unix.gettimeofday () < deadline
      do
        Thread.yield ()
      done;
      Alcotest.(check bool) "subscriber arrived" true
        (Serve.Stream.subscribers Serve.hub > 0);
      let i = ref 0 in
      while Serve.Stream.subscribers Serve.hub > 0 && !i < 5_000 do
        incr i;
        ignore (Engine.set net a !i)
      done;
      Thread.join reader;
      match !result with
      | Error e -> Alcotest.failf "/events scrape failed: %s" e
      | Ok r ->
        Alcotest.(check int) "stream 200" 200 r.Serve.Client.rs_status;
        let lines =
          String.split_on_char '\n' r.Serve.Client.rs_body
          |> List.filter (fun l -> l <> "")
        in
        Alcotest.(check int) "exactly the requested line budget" 120
          (List.length lines);
        Alcotest.(check bool) "well over the 100-line floor" true
          (List.length lines >= 100);
        List.iter
          (fun l ->
            match Obs.Jsonl.parse_line l with
            | Error e -> Alcotest.failf "unparseable NDJSON line %S: %s" l e
            | Ok fields ->
              Alcotest.(check (option string)) "line tagged with the net"
                (Some "srv-live")
                (Obs.Jsonl.str fields "net"))
          lines)

(* A client that vanishes mid-stream must cost the server nothing but
   the next failed write. *)
let test_events_disconnect () =
  with_server (fun sv net (a, _, _) ->
      let port = Serve.port sv in
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
      let rq = "GET /events HTTP/1.1\r\n\r\n" in
      ignore (Unix.write_substring fd rq 0 (String.length rq));
      let deadline = Unix.gettimeofday () +. 5.0 in
      while
        Serve.Stream.subscribers Serve.hub = 0
        && Unix.gettimeofday () < deadline
      do
        Thread.yield ()
      done;
      ignore (Engine.set net a 1);
      (* read a little proof-of-life, then hang up mid-stream *)
      let chunk = Bytes.create 512 in
      ignore (Unix.read fd chunk 0 (Bytes.length chunk));
      Unix.close fd;
      (* keep propagating: the failed write evicts the subscriber *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      let i = ref 1 in
      while
        Serve.Stream.subscribers Serve.hub > 0
        && Unix.gettimeofday () < deadline
      do
        incr i;
        ignore (Engine.set net a !i);
        Thread.yield ()
      done;
      Alcotest.(check int) "subscriber reaped after the hang-up" 0
        (Serve.Stream.subscribers Serve.hub);
      let ok = get_ok port "/healthz" in
      Alcotest.(check int) "server fine afterwards" 200
        ok.Serve.Client.rs_status)

(* The drop-oldest contract end to end: a scraper that never reads
   fills its tiny queue; propagation keeps committing and the hub
   counts the dropped lines. *)
let test_events_slow_scraper_drops () =
  with_server (fun sv net (a, _, _) ->
      let port = Serve.port sv in
      let before = (Serve.stream_stats ()).Serve.Stream.st_dropped in
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      Unix.setsockopt_int fd SO_RCVBUF 1024;
      Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let rq = "GET /events?cap=8 HTTP/1.1\r\n\r\n" in
          ignore (Unix.write_substring fd rq 0 (String.length rq));
          let deadline = Unix.gettimeofday () +. 5.0 in
          while
            Serve.Stream.subscribers Serve.hub = 0
            && Unix.gettimeofday () < deadline
          do
            Thread.yield ()
          done;
          (* burst until the stalled subscriber has demonstrably lost
             lines; every one of these episodes commits regardless *)
          let i = ref 0 in
          let committed = ref 0 in
          while
            (Serve.stream_stats ()).Serve.Stream.st_dropped <= before
            && !i < 50_000
          do
            incr i;
            (match Engine.set net a !i with
            | Ok () -> incr committed
            | Error _ -> ());
            if !i mod 1000 = 0 then Thread.yield ()
          done;
          Alcotest.(check bool) "slow scraper dropped lines" true
            ((Serve.stream_stats ()).Serve.Stream.st_dropped > before);
          Alcotest.(check int) "propagation never stalled or failed"
            !i !committed;
          let ok = get_ok port "/metrics" in
          Alcotest.(check int) "scrapes still answered" 200
            ok.Serve.Client.rs_status))

let suite =
  ( "serve",
    [
      Alcotest.test_case "prometheus: label escaping" `Quick
        test_prometheus_escape;
      Alcotest.test_case "prometheus: name sanitising" `Quick
        test_prometheus_name;
      Alcotest.test_case "prometheus: family naming" `Quick
        test_prometheus_family;
      Alcotest.test_case "prometheus: full exposition render" `Quick
        test_render_prometheus;
      Alcotest.test_case "exposition: multi-registry family merge" `Quick
        test_exposition_merge;
      Alcotest.test_case "dot: control-byte escaping" `Quick test_dot_escape;
      Alcotest.test_case "watchdog: alert JSONL record" `Quick test_alert_json;
      Alcotest.test_case "jsonl: net field on event lines" `Quick
        test_json_of_event_net;
      Alcotest.test_case "stream: bounded drop-oldest queue" `Quick
        test_stream_drop_oldest;
      Alcotest.test_case "stream: per-net filter" `Quick test_stream_net_filter;
      Alcotest.test_case "http: request parsing" `Quick test_http_parse_ok;
      Alcotest.test_case "http: truncated head" `Quick test_http_truncated;
      Alcotest.test_case "http: oversized head" `Quick test_http_too_large;
      Alcotest.test_case "http: malformed requests" `Quick
        test_http_bad_request;
      Alcotest.test_case "http: keep-alive pipelining" `Quick
        test_http_pipelining;
      Alcotest.test_case "server: endpoints over sockets" `Quick
        test_server_endpoints;
      Alcotest.test_case "server: 405 / 431 / truncated" `Quick
        test_server_405_431_truncated;
      Alcotest.test_case "server: keep-alive connection reuse" `Quick
        test_server_keep_alive;
      Alcotest.test_case "server: /events streams a burst (>=100 lines)"
        `Quick test_events_stream_burst;
      Alcotest.test_case "server: mid-stream disconnect" `Quick
        test_events_disconnect;
      Alcotest.test_case "server: slow scraper drops, never stalls" `Quick
        test_events_slow_scraper_drops;
    ] )
