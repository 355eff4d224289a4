(* Request tracing: tracer determinism under an injected clock, the
   episode kernel sink (phase children, ambient-context parenting),
   and the served /trace export — validated through the strict JSON
   parser of [Strict_json], not by grepping substrings.  Also the two
   acceptance properties: a stem-put-shaped request yields
   parse -> admit -> episode (with propagate children) -> append ->
   fsync under one trace id, and a rejected request still produces a
   complete terminal trace. *)

open Constraint_kernel

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

open Strict_json

(* ---------------- Chrome trace-event decoding ---------------- *)

type ev = {
  ev_name : string;
  ev_ts : float;
  ev_dur : float;
  ev_tid : int;
  ev_span : int;
  ev_parent : int;
  ev_note : string;
}

let field obj name =
  match obj with
  | Obj kvs -> (
    match List.assoc_opt name kvs with
    | Some v -> v
    | None -> Alcotest.failf "missing field %S" name)
  | _ -> Alcotest.failf "not an object looking for %S" name

let num = function Num f -> f | _ -> Alcotest.fail "expected number"

let str = function Str s -> s | _ -> Alcotest.fail "expected string"

(* Parse a /trace body all the way down, checking the envelope and the
   per-event shape strictly. *)
let decode_chrome body =
  let doc =
    match parse_json body with
    | v -> v
    | exception Bad_json msg -> Alcotest.failf "invalid /trace JSON: %s" msg
  in
  let events =
    match field doc "traceEvents" with
    | Arr evs -> evs
    | _ -> Alcotest.fail "traceEvents is not an array"
  in
  List.map
    (fun e ->
      Alcotest.(check string) "ph is complete-event" "X" (str (field e "ph"));
      Alcotest.(check int) "pid is 1" 1 (int_of_float (num (field e "pid")));
      let args = field e "args" in
      {
        ev_name = str (field e "name");
        ev_ts = num (field e "ts");
        ev_dur = num (field e "dur");
        ev_tid = int_of_float (num (field e "tid"));
        ev_span = int_of_float (num (field args "span"));
        ev_parent = int_of_float (num (field args "parent"));
        ev_note = str (field args "note");
      })
    events

(* Every trace in the batch is a well-formed tree: at most one root,
   and in a complete trace (one with a finished root — the request
   serving /trace itself is still open while it renders the ring, so
   its own trace is legitimately rootless) every other span's parent
   is present and children sit inside their parent's [ts, ts+dur]
   interval (eps for float I/O). *)
let check_well_formed evs =
  let eps = 0.5 (* microseconds *) in
  let by_trace = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let l = try Hashtbl.find by_trace e.ev_tid with Not_found -> [] in
      Hashtbl.replace by_trace e.ev_tid (e :: l))
    evs;
  Hashtbl.iter
    (fun tid group ->
      let roots = List.filter (fun e -> e.ev_parent = 0) group in
      Alcotest.(check bool)
        (Printf.sprintf "trace %d has at most one root" tid)
        true
        (List.length roots <= 1);
      if roots <> [] then
        List.iter
          (fun e ->
            if e.ev_parent <> 0 then begin
              match List.find_opt (fun p -> p.ev_span = e.ev_parent) group with
              | None ->
                Alcotest.failf "trace %d: span %d orphaned (parent %d)" tid
                  e.ev_span e.ev_parent
              | Some p ->
                Alcotest.(check bool)
                  (Printf.sprintf "span %d starts inside parent %d" e.ev_span
                     p.ev_span)
                  true
                  (e.ev_ts >= p.ev_ts -. eps
                  && e.ev_ts +. e.ev_dur <= p.ev_ts +. p.ev_dur +. eps)
            end)
          group)
    by_trace

(* ---------------- tracer determinism ---------------- *)

let test_deterministic_clock () =
  let now = ref 10.0 in
  let tr = Obs.Tracing.create ~clock:(fun () -> !now) () in
  Obs.Tracing.set_enabled tr true;
  let t0 = Obs.Tracing.new_trace tr in
  let root = Obs.Tracing.start tr ~parent:t0 "request" in
  now := 10.25;
  let child =
    Obs.Tracing.start tr ~parent:(Obs.Tracing.ctx_of root) "stage"
  in
  now := 10.375;
  Obs.Tracing.finish tr child ~note:"ok";
  now := 10.5;
  Obs.Tracing.finish tr root;
  let evs = decode_chrome (Obs.Tracing.chrome_json tr) in
  check_well_formed evs;
  Alcotest.(check int) "two spans" 2 (List.length evs);
  let req = List.find (fun e -> e.ev_name = "request") evs in
  let stage = List.find (fun e -> e.ev_name = "stage") evs in
  (* exact: the injected clock fully determines every timestamp *)
  Alcotest.(check (float 0.0)) "root ts" 10.0e6 req.ev_ts;
  Alcotest.(check (float 0.0)) "root dur" 0.5e6 req.ev_dur;
  Alcotest.(check (float 0.0)) "child ts" 10.25e6 stage.ev_ts;
  Alcotest.(check (float 0.0)) "child dur" 0.125e6 stage.ev_dur;
  Alcotest.(check int) "child under root" req.ev_span stage.ev_parent;
  Alcotest.(check string) "note survives round-trip" "ok" stage.ev_note;
  Alcotest.(check int) "same trace id" req.ev_tid stage.ev_tid

let test_ring_wraps () =
  let tr = Obs.Tracing.create ~capacity:4 ~clock:(fun () -> 0.0) () in
  let ctx = Obs.Tracing.new_trace tr in
  for i = 1 to 10 do
    Obs.Tracing.add tr ~trace:ctx.Obs.Tracing.tc_trace ~parent:0
      ~name:(Printf.sprintf "s%d" i) ~start:0.0 ~dur:0.0 ()
  done;
  Alcotest.(check int) "lifetime count" 10 (Obs.Tracing.seen tr);
  let names = List.map (fun s -> s.Obs.Tracing.sp_name) (Obs.Tracing.spans tr) in
  Alcotest.(check (list string))
    "ring keeps the newest, oldest first"
    [ "s7"; "s8"; "s9"; "s10" ]
    names

(* ---------------- the episode kernel sink ---------------- *)

let test_kernel_sink_phases () =
  let now = ref 0.0 in
  let clock () =
    (* advancing clock: every read moves 1ms, so each engine phase and
       each span boundary lands on a distinct, reproducible instant *)
    let v = !now in
    now := v +. 0.001;
    v
  in
  let net = Engine.create_network ~name:"trc-sink" () in
  Engine.set_clock net clock;
  let a = Var.create net ~owner:"t" ~name:"a" ~equal:Int.equal ~pp:Fmt.int () in
  let b = Var.create net ~owner:"t" ~name:"b" ~equal:Int.equal ~pp:Fmt.int () in
  ignore (Clib.equality net [ a; b ]);
  let tr = Obs.Tracing.create ~clock () in
  Obs.Tracing.set_enabled tr true;
  Engine.add_sink net (Obs.Tracing.kernel_sink tr ~net:"trc-sink");
  let ctx = Obs.Tracing.new_trace tr in
  let root = Obs.Tracing.start tr ~parent:ctx "request" in
  let rctx = Obs.Tracing.ctx_of root in
  (match
     Obs.Tracing.with_ambient tr rctx (fun () -> Engine.set net a 7)
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "set failed");
  Obs.Tracing.finish tr root;
  ignore (Engine.remove_sink net Obs.Tracing.kernel_sink_name);
  let sps = Obs.Tracing.spans tr in
  let ep =
    match List.find_opt (fun s -> s.Obs.Tracing.sp_name = "episode") sps with
    | Some s -> s
    | None -> Alcotest.fail "no episode span recorded"
  in
  let req = List.find (fun s -> s.Obs.Tracing.sp_name = "request") sps in
  Alcotest.(check int)
    "episode parented under the ambient request"
    req.Obs.Tracing.sp_id ep.Obs.Tracing.sp_parent;
  Alcotest.(check int)
    "episode in the request's trace"
    req.Obs.Tracing.sp_trace ep.Obs.Tracing.sp_trace;
  Alcotest.(check bool) "episode annotated" true
    (contains ~sub:"committed" ep.Obs.Tracing.sp_note);
  let phases =
    List.filter (fun s -> s.Obs.Tracing.sp_parent = ep.Obs.Tracing.sp_id) sps
  in
  Alcotest.(check bool)
    "propagate child present" true
    (List.exists (fun s -> s.Obs.Tracing.sp_name = "propagate") phases);
  (* phase children tile the episode from its start, inside its span *)
  List.iter
    (fun ph ->
      Alcotest.(check bool)
        (ph.Obs.Tracing.sp_name ^ " inside episode")
        true
        (ph.Obs.Tracing.sp_start >= ep.Obs.Tracing.sp_start
        && ph.Obs.Tracing.sp_start +. ph.Obs.Tracing.sp_dur
           <= ep.Obs.Tracing.sp_start +. ep.Obs.Tracing.sp_dur +. 1e-9))
    phases;
  (* a second set with NO ambient context starts a fresh root trace *)
  (match Engine.set net a 9 with
  | Ok () | Error _ -> ());
  Obs.Tracing.set_enabled tr false

(* ---------------- the server end to end ---------------- *)

let tmpdir () =
  let d = Filename.temp_file "stem-tracing" ".d" in
  Sys.remove d;
  Sys.mkdir d 0o700;
  d

let rm_rf d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Sys.rmdir d
  end

let spec = "var a.x\nvar a.y = 1\nvar a.sum\nsum a.sum a.x a.y\n"

let with_traced_server ?admission f =
  let dir = tmpdir () in
  Serve.Wstore.configure ~dir ~fsync:Serve.Journal.Always ();
  let sv = Serve.start ~port:0 ?admission () in
  Obs.Tracing.set_enabled (Serve.tracer sv) true;
  Fun.protect
    ~finally:(fun () ->
      Serve.stop sv;
      List.iter
        (fun e -> ignore (Serve.Wstore.drop ~id:(Serve.Wstore.id e)))
        (Serve.Wstore.list ());
      rm_rf dir)
    (fun () -> f (Serve.port sv))

let post_ok ?headers port ~body path =
  match Serve.Client.post ?headers ~port ~body path with
  | Ok r -> r
  | Error e -> Alcotest.failf "POST %s: %s" path e

let get_ok port path =
  match Serve.Client.get ~port path with
  | Ok r -> r
  | Error e -> Alcotest.failf "GET %s: %s" path e

let test_server_trace () =
  with_traced_server (fun port ->
      let r = post_ok port ~body:spec "/nets?id=trc" in
      Alcotest.(check int) "create 201" 201 r.Serve.Client.rs_status;
      let r = post_ok port ~body:"{\"var\":\"a.x\",\"value\":\"5\"}" "/nets/trc/set" in
      Alcotest.(check int) "set 200" 200 r.Serve.Client.rs_status;
      let t = get_ok port "/trace" in
      Alcotest.(check int) "/trace 200" 200 t.Serve.Client.rs_status;
      let evs = decode_chrome t.Serve.Client.rs_body in
      check_well_formed evs;
      (* the put request: every write stage under ONE trace id *)
      let set_root =
        match
          List.find_opt (fun e -> e.ev_name = "POST /nets/:id/set") evs
        with
        | Some e -> e
        | None -> Alcotest.fail "no root span for the set request"
      in
      let tid = set_root.ev_tid in
      let in_trace name =
        List.exists (fun e -> e.ev_tid = tid && e.ev_name = name) evs
      in
      List.iter
        (fun stage ->
          Alcotest.(check bool) (stage ^ " span in the put trace") true
            (in_trace stage))
        [ "parse"; "admit"; "episode"; "propagate"; "append"; "fsync" ];
      Alcotest.(check string) "root notes the status" "200" set_root.ev_note;
      (* the episode hangs under admit's sibling level, its phase
         children under it — parent pointers, not just co-presence *)
      let ep = List.find (fun e -> e.ev_tid = tid && e.ev_name = "episode") evs in
      let prop =
        List.find (fun e -> e.ev_tid = tid && e.ev_name = "propagate") evs
      in
      Alcotest.(check int) "propagate under episode" ep.ev_span prop.ev_parent;
      (* stage histograms joined the exposition *)
      let m = get_ok port "/metrics" in
      List.iter
        (fun sub ->
          Alcotest.(check bool) ("exposition has " ^ sub) true
            (contains ~sub m.Serve.Client.rs_body))
        [
          "stem_serve_stage_parse";
          "stem_serve_stage_episode";
          "stem_serve_stage_fsync";
          "stem_serve_tenant_requests_total{tenant=\"anon\"}";
          "stem_runtime_gc_minor_collections";
        ])

(* The tracer is on before the net exists, and the net is hosted
   directly (as the shell's [host] does), not over HTTP: its first
   traced write still records the episode under the request. *)
let test_trace_reaches_late_net () =
  with_traced_server (fun port ->
      (match Serve.Wstore.create ~id:"late" ~spec () with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg);
      let r =
        post_ok port ~body:"{\"var\":\"a.x\",\"value\":\"5\"}" "/nets/late/set"
      in
      Alcotest.(check int) "set 200" 200 r.Serve.Client.rs_status;
      let evs = decode_chrome (get_ok port "/trace").Serve.Client.rs_body in
      check_well_formed evs;
      let root =
        List.find (fun e -> e.ev_name = "POST /nets/:id/set") evs
      in
      Alcotest.(check bool) "episode span in the set trace" true
        (List.exists
           (fun e -> e.ev_tid = root.ev_tid && e.ev_name = "episode")
           evs))

let test_rejected_trace () =
  (* a zero-width global bound rejects everything with 503 *)
  let admission =
    Serve.Admission.create
      ~config:
        {
          Serve.Admission.default_config with
          Serve.Admission.ac_max_total = 0;
        }
      ()
  in
  with_traced_server ~admission (fun port ->
      let r = post_ok port ~body:spec "/nets?id=nope" in
      Alcotest.(check int) "rejected with 503" 503 r.Serve.Client.rs_status;
      let evs = decode_chrome (get_ok port "/trace").Serve.Client.rs_body in
      check_well_formed evs;
      let root =
        match List.find_opt (fun e -> e.ev_name = "POST /nets") evs with
        | Some e -> e
        | None -> Alcotest.fail "rejected request left no root span"
      in
      Alcotest.(check string) "terminal status on the root" "503" root.ev_note;
      let admit =
        match
          List.find_opt
            (fun e -> e.ev_tid = root.ev_tid && e.ev_name = "admit")
            evs
        with
        | Some e -> e
        | None -> Alcotest.fail "rejected request has no admit span"
      in
      Alcotest.(check string)
        "rejection annotated on the admit span" "rejected: overloaded (503)"
        admit.ev_note;
      (* the rejection surfaced on the per-tenant Prometheus counters *)
      let m = get_ok port "/metrics" in
      Alcotest.(check bool) "rejected counter by reason" true
        (contains
           ~sub:
             "stem_serve_tenant_rejected_total{tenant=\"anon\",reason=\"overloaded\"} 1"
           m.Serve.Client.rs_body))

let test_concurrent_nesting () =
  with_traced_server (fun port ->
      let r = post_ok port ~body:spec "/nets?id=conc" in
      Alcotest.(check int) "create 201" 201 r.Serve.Client.rs_status;
      let threads =
        List.init 4 (fun t ->
            Thread.create
              (fun () ->
                for i = 1 to 5 do
                  ignore
                    (Serve.Client.post ~port
                       ~body:
                         (Printf.sprintf "{\"var\":\"a.x\",\"value\":\"%d\"}"
                            ((t * 10) + i))
                       "/nets/conc/set")
                done)
              ())
      in
      List.iter Thread.join threads;
      let evs = decode_chrome (get_ok port "/trace").Serve.Client.rs_body in
      (* interleaved workers must still yield one well-formed tree per
         request: single root, no orphans, children inside parents *)
      check_well_formed evs;
      let roots = List.filter (fun e -> e.ev_parent = 0) evs in
      Alcotest.(check bool)
        (Printf.sprintf "all 21 requests traced (got %d)" (List.length roots))
        true
        (List.length roots = 21))

let suite =
  ( "tracing",
    [
      Alcotest.test_case "deterministic under injected clock" `Quick
        test_deterministic_clock;
      Alcotest.test_case "ring eviction" `Quick test_ring_wraps;
      Alcotest.test_case "kernel sink: episode + phase children" `Quick
        test_kernel_sink_phases;
      Alcotest.test_case "served trace: put end to end" `Quick
        test_server_trace;
      Alcotest.test_case "traced write reaches a net hosted later" `Quick
        test_trace_reaches_late_net;
      Alcotest.test_case "rejected request leaves a terminal trace" `Quick
        test_rejected_trace;
      Alcotest.test_case "well-formed under concurrent requests" `Quick
        test_concurrent_nesting;
    ] )
