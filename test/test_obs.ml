(* The observability layer: sink fan-out semantics (order, isolation of
   throwing sinks), episode span attribution, the ring buffer, the
   metrics registry, the per-kind profiler, JSONL round-trips and the
   deprecated compatibility shims. *)

open Constraint_kernel

let mknet () = Engine.create_network ~name:"obs" ()

let ivar ?overwrite net name =
  Var.create net ~owner:"o" ~name ~equal:Int.equal ~pp:Fmt.int ?overwrite ()

(* A three-variable equality chain: one [set] produces a healthy mix of
   assign / activate / schedule / check / episode events. *)
let chain net =
  let a = ivar net "a" and b = ivar net "b" and c = ivar net "c" in
  let ab, _ = Clib.equality net [ a; b ] in
  let bc, _ = Clib.equality net [ b; c ] in
  (a, b, c, ab, bc)

let ok = function Ok () -> true | Error _ -> false

(* ---------------- fan-out ---------------- *)

let test_fan_out_order () =
  let net = mknet () in
  let a, _, _, _, _ = chain net in
  let log = ref [] in
  let tap tag =
    Types.{ snk_name = tag; snk_emit = (fun _ seq _ -> log := (tag, seq) :: !log) }
  in
  Engine.add_sink net (tap "first");
  Engine.add_sink net (tap "second");
  Engine.add_sink net (tap "third");
  Alcotest.(check bool) "set ok" true (ok (Engine.set net a 1));
  let by_seq = Hashtbl.create 16 in
  List.iter
    (fun (tag, seq) ->
      Hashtbl.replace by_seq seq
        (tag :: (Option.value ~default:[] (Hashtbl.find_opt by_seq seq))))
    !log (* log is reversed, so per-seq lists come out in fan-out order *);
  Alcotest.(check bool) "events were emitted" true (Hashtbl.length by_seq > 0);
  Hashtbl.iter
    (fun seq tags ->
      Alcotest.(check (list string))
        (Printf.sprintf "seq %d visits sinks in registration order" seq)
        [ "first"; "second"; "third" ] tags)
    by_seq

let test_add_sink_replaces_in_place () =
  let net = mknet () in
  let a, _, _, _, _ = chain net in
  let log = ref [] in
  let tap tag name =
    Types.{ snk_name = name; snk_emit = (fun _ _ _ -> log := tag :: !log) }
  in
  Engine.add_sink net (tap "old-a" "a");
  Engine.add_sink net (tap "b" "b");
  Engine.add_sink net (tap "new-a" "a");
  (* replaces, same position *)
  Alcotest.(check int) "still two sinks" 2 (List.length (Engine.sinks net));
  ignore (Engine.set net a 1);
  Alcotest.(check bool) "replaced sink fires" true (List.mem "new-a" !log);
  Alcotest.(check bool) "old sink is gone" false (List.mem "old-a" !log);
  (match !log with
  | "b" :: "new-a" :: _ -> () (* reversed log: a fired before b *)
  | l ->
    Alcotest.failf "replacement did not keep fan-out position: %a"
      Fmt.(Dump.list string) l);
  Alcotest.(check bool) "remove" true (Engine.remove_sink net "a");
  Alcotest.(check bool) "remove again" false (Engine.remove_sink net "a")

let test_throwing_sink_isolated () =
  let net = mknet () in
  let a, b, _, _, _ = chain net in
  let seen = ref 0 in
  Engine.add_sink net
    Types.{ snk_name = "boom"; snk_emit = (fun _ _ _ -> failwith "sink bug") };
  Engine.add_sink net
    Types.{ snk_name = "after"; snk_emit = (fun _ _ _ -> incr seen) };
  Alcotest.(check bool) "episode survives throwing sink" true
    (ok (Engine.set net a 7));
  Alcotest.(check (option int)) "assignment committed" (Some 7) (Var.value b);
  Alcotest.(check bool) "later sink still notified" true (!seen > 0);
  let st = Engine.stats net in
  Alcotest.(check int) "every event trapped once" !seen
    st.Types.st_sink_errors

(* The boxed helper: [Types.sink] must hand the same episode/seq through
   the tagged_event it allocates. *)
let test_boxed_sink_helper () =
  let net = mknet () in
  let a, _, _, _, _ = chain net in
  let raw = ref [] and boxed = ref [] in
  Engine.add_sink net
    Types.{ snk_name = "raw"; snk_emit = (fun ep seq _ -> raw := (ep, seq) :: !raw) };
  Engine.add_sink net
    (Types.sink ~name:"boxed" (fun te ->
         boxed := (te.Types.te_episode, te.Types.te_seq) :: !boxed));
  ignore (Engine.set net a 3);
  Alcotest.(check (list (pair int int)))
    "boxed form carries the same tags" !raw !boxed

(* ---------------- episode spans ---------------- *)

(* Every event between a start/end pair must carry that episode's id;
   ids must be fresh and increasing across episodes. *)
let test_episode_ids_consistent () =
  let net = mknet () in
  let a, _, _, _, _ = chain net in
  let ring = Obs.Ring.create ~capacity:4096 () in
  Engine.add_sink net (Obs.Ring.sink ring);
  ignore (Engine.set net a 1);
  ignore (Engine.set net a 2);
  ignore (Engine.explain_set net a 3);
  ignore (Engine.set net a 4);
  let cur = ref None and ids = ref [] in
  List.iter
    (fun te ->
      let ep = te.Types.te_episode in
      match te.Types.te_event with
      | Types.T_episode_start (id, _, _) ->
        Alcotest.(check int) "start tagged with its own id" id ep;
        Alcotest.(check bool) "no nested episode" true (!cur = None);
        ids := id :: !ids;
        cur := Some id
      | Types.T_episode_end sp ->
        Alcotest.(check (option int)) "end matches start" !cur (Some sp.Types.es_id);
        Alcotest.(check int) "end tagged with its own id" sp.Types.es_id ep;
        cur := None
      | _ ->
        Alcotest.(check (option int))
          "inner event tagged with enclosing episode" !cur (Some ep))
    (Obs.Ring.to_list ring);
  Alcotest.(check (option int)) "last episode closed" None !cur;
  let ids = List.rev !ids in
  Alcotest.(check int) "four episodes" 4 (List.length ids);
  List.iteri
    (fun i id ->
      if i > 0 then
        Alcotest.(check bool) "ids strictly increasing" true
          (id > List.nth ids (i - 1)))
    ids;
  (* the probe episode must be visible as such *)
  let outcomes =
    List.map (fun sp -> sp.Types.es_outcome) (Obs.Ring.spans ring)
  in
  Alcotest.(check bool) "probe span recorded" true
    (List.mem Types.E_probe_ok outcomes);
  Alcotest.(check bool) "committed spans recorded" true
    (List.mem Types.E_committed outcomes)

let test_rolled_back_span_on_fault () =
  let net = mknet () in
  let a, _, _, _, bc = chain net in
  ignore (Engine.set net a 1);
  let ring = Obs.Ring.create ~capacity:1024 () in
  Engine.add_sink net (Obs.Ring.sink ring);
  let inj = Fault.wrap ~mode:(Fault.Throw_on [ 1 ]) bc in
  Alcotest.(check bool) "faulted set fails" false (ok (Engine.set net a 2));
  Fault.restore inj;
  let spans = Obs.Ring.spans ring in
  Alcotest.(check bool) "rolled-back span recorded" true
    (List.exists (fun sp -> sp.Types.es_outcome = Types.E_rolled_back) spans);
  Alcotest.(check bool) "restore events inside the episode" true
    (List.exists
       (fun te ->
         match te.Types.te_event with Types.T_restore _ -> true | _ -> false)
       (Obs.Ring.to_list ring))

(* ---------------- ring buffer ---------------- *)

let test_ring_eviction () =
  let net = mknet () in
  let a, _, _, _, _ = chain net in
  let ring = Obs.Ring.create ~capacity:8 () in
  Engine.add_sink net (Obs.Ring.sink ring);
  for i = 1 to 10 do
    ignore (Engine.set net a i)
  done;
  Alcotest.(check int) "length capped at capacity" 8 (Obs.Ring.length ring);
  Alcotest.(check int) "capacity reported" 8 (Obs.Ring.capacity ring);
  Alcotest.(check bool) "older events were evicted" true
    (Obs.Ring.seen ring > 8);
  let seqs = List.map (fun te -> te.Types.te_seq) (Obs.Ring.to_list ring) in
  (* oldest-first, contiguous, and ending at the newest event seen *)
  List.iteri
    (fun i seq ->
      if i > 0 then
        Alcotest.(check int) "contiguous ascending seq"
          (List.nth seqs (i - 1) + 1) seq)
    seqs;
  Alcotest.(check int) "ends at the last event"
    (Obs.Ring.seen ring)
    (List.nth seqs (List.length seqs - 1));
  Obs.Ring.clear ring;
  Alcotest.(check int) "clear empties" 0 (Obs.Ring.length ring)

(* Wrap-around eviction with a sink added mid-episode: the ring only
   sees events emitted after attachment — nothing from before the sink
   existed may surface — and [since]/[since_complete] account honestly
   for positions evicted by the wrap. *)
let test_ring_wrap_mid_episode () =
  let net = mknet () in
  let a, _, _, _, _ = chain net in
  (* pre-attachment traffic the ring must never see *)
  ignore (Engine.set net a 100);
  ignore (Engine.set net a 101);
  (* 16 slots: one ~9-event episode fits, a handful of episodes wrap *)
  let ring = Obs.Ring.create ~capacity:16 () in
  let installed = ref false in
  (* a sink that installs the ring sink *while an episode is running*:
     the ring's first event is mid-episode, not an episode start *)
  Engine.add_sink net
    (Types.sink ~name:"installer" (fun te ->
         match te.Types.te_event with
         | Types.T_assign _ when not !installed ->
           installed := true;
           Engine.add_sink net (Obs.Ring.sink ring)
         | _ -> ()));
  ignore (Engine.set net a 1);
  Alcotest.(check bool) "sink installed mid-episode" true !installed;
  let has_value v =
    List.exists
      (fun te ->
        match te.Types.te_event with
        | Types.T_assign (_, x, _) -> x = v
        | _ -> false)
      (Obs.Ring.to_list ring)
  in
  Alcotest.(check bool) "pre-attachment assigns absent" false
    (has_value 100 || has_value 101);
  (* the enclosing episode's start predates the attachment *)
  Alcotest.(check bool) "no start event for the partial episode" true
    (List.for_all
       (fun te ->
         match te.Types.te_event with
         | Types.T_episode_start _ -> false
         | _ -> true)
       (Obs.Ring.to_list ring));
  Alcotest.(check bool) "but its end was captured" true
    (List.exists
       (fun te ->
         match te.Types.te_event with
         | Types.T_episode_end _ -> true
         | _ -> false)
       (Obs.Ring.to_list ring));
  (* mark a stream position, wrap the ring past it, and check the
     honest-extraction contract *)
  let mark = Obs.Ring.seen ring in
  ignore (Engine.set net a 2);
  Alcotest.(check bool) "nothing evicted yet: range complete" true
    (Obs.Ring.since_complete ring mark);
  let r1 = Obs.Ring.since ring mark in
  Alcotest.(check int) "since returns exactly the new events"
    (Obs.Ring.seen ring - mark)
    (List.length r1);
  for i = 3 to 6 do
    ignore (Engine.set net a i)
  done;
  Alcotest.(check bool) "wrap evicted the marked range" false
    (Obs.Ring.since_complete ring mark);
  let r2 = Obs.Ring.since ring mark in
  Alcotest.(check int) "truncated result = whatever survives"
    (Obs.Ring.length ring) (List.length r2);
  (* everything older than the horizon is gone, so the survivors are
     exactly the ring's full contents, in the same order *)
  Alcotest.(check (list int)) "survivors are the ring's contents"
    (List.map (fun te -> te.Types.te_seq) (Obs.Ring.to_list ring))
    (List.map (fun te -> te.Types.te_seq) r2)

(* ---------------- metrics ---------------- *)

let test_metrics_agree_with_stats () =
  let net = mknet () in
  let a, _, _, _, _ = chain net in
  let m = Obs.Metrics.create () in
  Engine.add_sink net (Obs.Metrics.kernel_sink m);
  (* the constraint-attach episodes above ran unobserved *)
  Engine.reset_stats net;
  ignore (Engine.set net a 1);
  ignore (Engine.set net a 2);
  ignore (Engine.explain_set net a 3);
  let st = Engine.stats net in
  let count name =
    match Obs.Metrics.find m name with
    | Some (Obs.Metrics.Counter c) -> Obs.Metrics.count c
    | _ -> Alcotest.failf "counter %s missing" name
  in
  Alcotest.(check int) "checks agree" st.Types.st_checks (count "events.check");
  Alcotest.(check int) "schedule agrees" st.Types.st_scheduled
    (count "events.schedule");
  Alcotest.(check int) "episode count" 3 (count "episodes.total");
  Alcotest.(check int) "committed" 2 (count "episodes.committed");
  Alcotest.(check int) "probe ok" 1 (count "episodes.probe_ok");
  (match Obs.Metrics.find m "episode.latency_us" with
  | Some (Obs.Metrics.Histogram h) ->
    Alcotest.(check int) "latency sample per episode" 3 (Obs.Metrics.samples h)
  | _ -> Alcotest.fail "latency histogram missing");
  (* stats snapshot is immutable: later activity must not mutate it *)
  ignore (Engine.set net a 9);
  Alcotest.(check bool) "snapshot unchanged" true
    (st.Types.st_checks < (Engine.stats net).Types.st_checks)

let test_metrics_kind_clash_and_quantiles () =
  let m = Obs.Metrics.create () in
  ignore (Obs.Metrics.counter m "x");
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument "Metrics: \"x\" is not a gauge") (fun () ->
      ignore (Obs.Metrics.gauge m "x"));
  let h = Obs.Metrics.histogram m "lat" in
  List.iter (fun v -> Obs.Metrics.observe h v) [ 1.5; 3.; 4.; 40.; 400. ];
  Alcotest.(check (float 1e-6)) "mean" 89.7 (Obs.Metrics.mean h);
  let p0 = Obs.Metrics.quantile h 0. and p100 = Obs.Metrics.quantile h 1. in
  Alcotest.(check bool) "q0 at observed min" true (p0 >= 1.5 -. 1e-9);
  Alcotest.(check bool) "q1 at observed max" true (p100 <= 400. +. 1e-9);
  let p50 = Obs.Metrics.quantile h 0.5 in
  Alcotest.(check bool) "median inside range" true (p50 >= p0 && p50 <= p100);
  let g = Obs.Metrics.gauge m "depth" in
  Obs.Metrics.set_gauge g 3.;
  Obs.Metrics.set_gauge g 1.;
  Alcotest.(check (float 0.)) "gauge keeps max" 3. (Obs.Metrics.gauge_max g);
  Alcotest.(check (float 0.)) "gauge keeps last" 1. (Obs.Metrics.gauge_last g)

(* Quantile/mean edge cases: empty histogram, single sample, the
   q=0/q=1 extremes, and samples beyond the last bucket bound (the
   overflow bucket), where interpolation must stay clamped to the
   observed extremes rather than invent a bucket upper edge. *)
let test_metrics_quantile_edge_cases () =
  let m = Obs.Metrics.create () in
  let empty = Obs.Metrics.histogram m "empty" in
  Alcotest.(check (float 0.)) "empty mean is 0" 0. (Obs.Metrics.mean empty);
  Alcotest.(check int) "empty has no samples" 0 (Obs.Metrics.samples empty);
  List.iter
    (fun q ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "empty q=%g is 0" q)
        0.
        (Obs.Metrics.quantile empty q))
    [ 0.0; 0.5; 0.99; 1.0 ];
  let single = Obs.Metrics.histogram m "single" in
  Obs.Metrics.observe single 42.0;
  Alcotest.(check (float 1e-9)) "single-sample mean" 42.0
    (Obs.Metrics.mean single);
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "every quantile of one sample is it (q=%g)" q)
        42.0
        (Obs.Metrics.quantile single q))
    [ 0.0; 0.5; 0.99; 1.0 ];
  (* beyond the last bucket bound: bounds top out at 2.0, samples don't *)
  let over = Obs.Metrics.histogram ~bounds:[| 1.0; 2.0 |] m "over" in
  List.iter (fun v -> Obs.Metrics.observe over v) [ 0.5; 1.5; 50.0; 900.0 ];
  Alcotest.(check (float 1e-9)) "mean uses true values, not buckets" 238.0
    (Obs.Metrics.mean over);
  Alcotest.(check (float 1e-9)) "q=0 clamps to the observed min" 0.5
    (Obs.Metrics.quantile over 0.0);
  Alcotest.(check (float 1e-9)) "q=1 clamps to the observed max" 900.0
    (Obs.Metrics.quantile over 1.0);
  let p99 = Obs.Metrics.quantile over 0.99 in
  Alcotest.(check bool) "overflow-bucket quantile stays within data" true
    (p99 > 2.0 && p99 <= 900.0);
  (* a standalone histogram behaves identically but is unregistered *)
  let st = Obs.Metrics.histogram_standalone ~bounds:[| 1.0; 2.0 |] "st" in
  Obs.Metrics.observe st 42.0;
  Alcotest.(check (float 1e-9)) "standalone quantile" 42.0
    (Obs.Metrics.quantile st 0.5);
  Alcotest.(check bool) "standalone is not registered" true
    (Obs.Metrics.find m "st" = None)

(* ---------------- profiler ---------------- *)

let test_profiler_hotspots () =
  let net = mknet () in
  let a = ivar net "a" and b = ivar net "b" and c = ivar net "c" in
  let _ = Clib.equality net [ a; b ] in
  let _ = Clib.equality net [ b; c ] in
  let _ =
    Clib.predicate ~kind:"limit"
      ~pred:(fun vs ->
        List.for_all (function Some x -> x < 100 | None -> true) vs)
      net [ c ]
  in
  let p = Obs.Profiler.create () in
  Engine.add_sink net (Obs.Profiler.sink p);
  for i = 1 to 5 do
    ignore (Engine.set net a i)
  done;
  (match Obs.Profiler.hotspots ~k:1 p with
  | [ e ] ->
    Alcotest.(check string) "equality dominates" "equality"
      e.Obs.Profiler.e_kind;
    Alcotest.(check bool) "activations counted" true
      (e.Obs.Profiler.e_activations > 0)
  | _ -> Alcotest.fail "expected exactly one hotspot");
  let entries = Obs.Profiler.entries p in
  Alcotest.(check int) "both kinds present" 2 (List.length entries);
  List.iteri
    (fun i e ->
      if i > 0 then
        Alcotest.(check bool) "sorted by activations desc" true
          ((List.nth entries (i - 1)).Obs.Profiler.e_activations
          >= e.Obs.Profiler.e_activations))
    entries;
  Obs.Profiler.clear p;
  Alcotest.(check int) "clear" 0 (List.length (Obs.Profiler.entries p))

(* ---------------- JSONL round-trip ---------------- *)

let test_jsonl_roundtrip () =
  let net = mknet () in
  let a, _, _, _, bc = chain net in
  let buf = Buffer.create 4096 in
  Engine.add_sink net (Obs.Jsonl.buffer_sink ~pp_value:string_of_int buf);
  ignore (Engine.set net a 1);
  ignore (Engine.explain_set net a 2);
  let inj = Fault.wrap ~mode:(Fault.Throw_on [ 1 ]) bc in
  ignore (Engine.set net a 3);
  Fault.restore inj;
  let lines =
    List.map
      (function
        | Ok fields -> fields
        | Error e -> Alcotest.failf "unparsable line: %s" e)
      (Obs.Jsonl.parse_lines (Buffer.contents buf))
  in
  Alcotest.(check bool) "events exported" true (List.length lines > 10);
  (* per-line invariants: every line has seq/ep/t; seq strictly increases *)
  let last_seq = ref 0 in
  List.iter
    (fun fields ->
      let seq =
        match Obs.Jsonl.int fields "seq" with
        | Some s -> s
        | None -> Alcotest.fail "line without seq"
      in
      Alcotest.(check bool) "seq strictly increasing" true (seq > !last_seq);
      last_seq := seq;
      Alcotest.(check bool) "ep present" true
        (Obs.Jsonl.int fields "ep" <> None);
      Alcotest.(check bool) "type present" true
        (Obs.Jsonl.str fields "t" <> None))
    lines;
  (* episode attribution survives the round-trip *)
  let cur = ref None in
  List.iter
    (fun fields ->
      let ep = Option.get (Obs.Jsonl.int fields "ep") in
      match Option.get (Obs.Jsonl.str fields "t") with
      | "episode_start" ->
        Alcotest.(check (option int)) "start id in json" (Some ep)
          (Obs.Jsonl.int fields "id");
        cur := Some ep
      | "episode_end" ->
        Alcotest.(check (option int)) "end id in json" !cur
          (Obs.Jsonl.int fields "id");
        let oc = Option.get (Obs.Jsonl.str fields "outcome") in
        Alcotest.(check bool) "outcome parses back" true
          (Obs.Jsonl.outcome_of_string oc <> None);
        Alcotest.(check bool) "total time present" true
          (Obs.Jsonl.float fields "us" <> None);
        cur := None
      | _ ->
        Alcotest.(check (option int)) "event inside episode" !cur (Some ep))
    lines;
  let outcomes =
    List.filter_map (fun fields -> Obs.Jsonl.str fields "outcome") lines
  in
  Alcotest.(check bool) "rolled_back exported" true
    (List.mem "rolled_back" outcomes);
  (* an assignment line round-trips its value through pp_value *)
  Alcotest.(check bool) "assign value exported" true
    (List.exists
       (fun fields ->
         Obs.Jsonl.str fields "t" = Some "assign"
         && Obs.Jsonl.str fields "value" = Some "1")
       lines)

let test_jsonl_escaping () =
  let te =
    Types.
      {
        te_episode = 1;
        te_seq = 2;
        te_event =
          T_violation
            {
              viol_message = "a \"quoted\"\nmessage\twith\\controls";
              viol_cstr_id = None;
              viol_cstr_kind = Some "uni\tmax";
              viol_var_path = None;
              viol_exn = None;
            };
      }
  in
  let line = Obs.Jsonl.json_of_event te in
  match Obs.Jsonl.parse_line line with
  | Error e -> Alcotest.failf "escaped line does not parse: %s" e
  | Ok fields ->
    Alcotest.(check (option string)) "message round-trips"
      (Some "a \"quoted\"\nmessage\twith\\controls")
      (Obs.Jsonl.str fields "msg");
    Alcotest.(check (option string)) "kind round-trips" (Some "uni\tmax")
      (Obs.Jsonl.str fields "kind")

(* ---------------- the board bundle ---------------- *)

let test_board_bundle () =
  let net = mknet () in
  let a, _, _, _, _ = chain net in
  let b = Obs.Board.attach ~ring_capacity:64 net in
  ignore (Engine.set net a 1);
  ignore (Engine.set net a 2);
  Alcotest.(check int) "one fused subscription" 1
    (List.length (Engine.sinks net));
  Alcotest.(check int) "spans collected" 2 (List.length (Obs.Board.spans b));
  Alcotest.(check bool) "hotspots collected" true
    (Obs.Board.hotspots b <> []);
  (match Obs.Metrics.find (Obs.Board.metrics b) "episodes.total" with
  | Some (Obs.Metrics.Counter c) ->
    Alcotest.(check int) "metrics fed" 2 (Obs.Metrics.count c)
  | _ -> Alcotest.fail "board metrics missing episodes.total");
  Obs.Board.detach net;
  Alcotest.(check int) "detached" 0 (List.length (Engine.sinks net));
  ignore (Engine.set net a 3);
  Alcotest.(check int) "no longer fed" 2 (List.length (Obs.Board.spans b))

(* ---------------- deprecated shims ---------------- *)

(* ---------------- provenance ---------------- *)

let pnet name = Engine.create_network ~name ()

(* Single network: the derivation chain of a propagated value, forward
   blame, and the critical path of the episode. *)
let test_provenance_queries () =
  let net = pnet "prov-q" in
  let a, _, _, _, _ = chain net in
  let p = Obs.Provenance.attach ~pp_value:string_of_int net in
  Alcotest.(check bool) "set ok" true (ok (Engine.set net a 7));
  let open Obs.Provenance in
  (match latest_span p "o.b" with
  | None -> Alcotest.fail "no span for o.b"
  | Some sp ->
    Alcotest.(check (option string)) "rendered value" (Some "7") sp.sp_value;
    Alcotest.(check string) "justification" "propagated" sp.sp_just;
    Alcotest.(check bool) "source labelled" true
      (String.starts_with ~prefix:"equality#" sp.sp_source);
    Alcotest.(check bool) "antecedent edge captured" true
      (sp.sp_antecedents <> []));
  let why_c = why p "o.c" in
  (match why_c with
  | { ws_depth = 0; ws_span } :: _ ->
    Alcotest.(check string) "chain roots at the queried var" "o.c"
      ws_span.sp_var
  | _ -> Alcotest.fail "why must start at depth 0");
  Alcotest.(check bool) "chain ends at the user entry" true
    (List.exists
       (fun s ->
         s.ws_span.sp_just = "user" && s.ws_span.sp_var = "o.a"
         && s.ws_depth = 2)
       why_c);
  let downstream = List.map (fun sp -> sp.sp_var) (blame p "o.a") in
  Alcotest.(check (list string)) "forward fan-out from the user entry"
    [ "o.b"; "o.c" ]
    (List.sort compare downstream);
  (match critical_path p () with
  | [ s1; s2; s3 ] ->
    Alcotest.(check string) "critical path oldest first" "o.a" s1.sp_var;
    Alcotest.(check string) "middle hop" "o.b" s2.sp_var;
    Alcotest.(check string) "newest last" "o.c" s3.sp_var
  | l -> Alcotest.failf "expected a 3-span critical path, got %d" (List.length l));
  detach p

(* A rolled-back episode must leave queries agreeing with the live
   network: spans survive but are dead, and the per-variable latest
   index reverts to the committed derivation. *)
let test_provenance_rollback () =
  let net = pnet "prov-rb" in
  let a, _, c, _, _ = chain net in
  let p = Obs.Provenance.attach ~pp_value:string_of_int net in
  Alcotest.(check bool) "pin via a" true (ok (Engine.set net a 1));
  (* conflicting user entry on c: propagation cannot overwrite the user
     value on a, so the episode rolls back *)
  Alcotest.(check bool) "conflicting set fails" false (ok (Engine.set net c 2));
  let open Obs.Provenance in
  (match latest_span p "o.c" with
  | Some sp ->
    Alcotest.(check (option string)) "latest reverted to committed value"
      (Some "1") sp.sp_value;
    Alcotest.(check bool) "and it is live" false sp.sp_dead
  | None -> Alcotest.fail "committed span lost");
  Alcotest.(check bool) "no live span carries the rolled-back value" false
    (List.exists (fun sp -> sp.sp_value = Some "2") (live_spans p));
  let dead = ref [] in
  for i = 1 to 64 do
    match find_span p i with
    | Some sp when sp.sp_dead -> dead := sp :: !dead
    | _ -> ()
  done;
  Alcotest.(check bool) "rolled-back spans retained as dead" true
    (List.exists (fun sp -> sp.sp_value = Some "2") !dead);
  (match List.rev (episodes p) with
  | last :: _ ->
    Alcotest.(check bool) "episode outcome recorded" true
      (last.epi_outcome = Some Types.E_rolled_back)
  | [] -> Alcotest.fail "no episodes recorded");
  Alcotest.(check bool) "why agrees with the live network" true
    (List.exists
       (fun s -> s.ws_span.sp_just = "user" && s.ws_span.sp_var = "o.a")
       (why p "o.c"));
  detach p

let test_provenance_eviction () =
  let net = pnet "prov-evict" in
  let a, _, _, _, _ = chain net in
  let p = Obs.Provenance.attach ~capacity:16 ~pp_value:string_of_int net in
  for i = 1 to 40 do
    ignore (Engine.set net a i)
  done;
  let open Obs.Provenance in
  Alcotest.(check bool) "evictions counted" true (evicted p > 0);
  Alcotest.(check bool) "live spans bounded" true
    (List.length (live_spans p) <= 16);
  (match latest_span p "o.c" with
  | Some sp -> Alcotest.(check (option string)) "newest kept" (Some "40") sp.sp_value
  | None -> Alcotest.fail "latest evicted");
  (* chains into evicted history truncate instead of failing *)
  Alcotest.(check bool) "why still answers" true (why p "o.c" <> []);
  detach p

(* An integer sum over [inputs] into [result]: a functional constraint
   of arity [1 + List.length inputs]. *)
let isum net ~result inputs =
  fst
    (Clib.functional net ~kind:"sum" ~result inputs ~f:(fun xs ->
         Some (List.fold_left ( + ) 0 xs)))

(* The store's bookkeeping is O(1) per episode: a monitored, provenance-
   tracked net allocates as much per episode long after its episode log
   filled (1,024 episodes) as before. *)
let test_provenance_steady_allocation () =
  let net = pnet "prov-steady" in
  let x = ivar net "x" and y = ivar net "y" in
  ignore (isum net ~result:y [ x ]);
  ignore (Obs.Board.attach ~monitor:true net);
  let p = Obs.Provenance.attach ~pp_value:string_of_int net in
  let words = Array.make 2817 0. in
  for i = 1 to 2816 do
    let w0 = Gc.minor_words () in
    if not (ok (Engine.set net x i)) then Alcotest.fail "set failed";
    words.(i) <- Gc.minor_words () -. w0
  done;
  let per_episode lo hi =
    let sum = ref 0. in
    for i = lo to hi do
      sum := !sum +. words.(i)
    done;
    !sum /. float_of_int (hi - lo + 1)
  in
  let early = per_episode 257 768 and late = per_episode 2305 2816 in
  if Float.abs (late -. early) > 0.1 *. early then
    Alcotest.failf "%.0f words per episode late against %.0f early" late early;
  Obs.Provenance.detach p;
  Obs.Board.detach net

(* The episode log keeps exactly the newest 1,024 episodes, oldest
   first, each with the outcome its end event carried. *)
let test_provenance_episode_log () =
  let net = pnet "prov-log" in
  let x = ivar net "x" and y = ivar net "y" in
  ignore (isum net ~result:y [ x ]);
  ignore
    (Clib.predicate net ~kind:"cap" [ y ] ~pred:(function
      | [ Some v ] -> v < 10_000
      | _ -> true));
  let ends = ref [] in
  Engine.add_sink net
    (Types.sink ~name:"ends" (fun te ->
         match te.Types.te_event with
         | Types.T_episode_end sp -> ends := (sp.es_id, sp.es_outcome) :: !ends
         | _ -> ()));
  let p = Obs.Provenance.attach net in
  for i = 1 to 3000 do
    ignore (Engine.set net x (if i mod 7 = 0 then 20_000 + i else i))
  done;
  let expected = List.filteri (fun i _ -> i < 1024) !ends |> List.rev in
  let got =
    List.map
      (fun e -> (e.Obs.Provenance.epi_id, Option.get e.Obs.Provenance.epi_outcome))
      (Obs.Provenance.episodes p)
  in
  Alcotest.(check int) "3,000 episodes ran" 3000 (List.length !ends);
  Alcotest.(check bool) "some rolled back" true
    (List.exists (fun (_, o) -> o = Types.E_rolled_back) expected);
  Alcotest.(check (list int)) "the newest 1,024 ids, oldest first"
    (List.map fst expected) (List.map fst got);
  Alcotest.(check bool) "each with its outcome" true (expected = got);
  Obs.Provenance.detach p

(* [why] through a sum names every input's span: two antecedents ride in
   the span ring, three or more spill out of it. *)
let test_provenance_sum_antecedents () =
  let net = pnet "prov-sum" in
  let a = ivar net "a" and b = ivar net "b" and c = ivar net "c" in
  let s2 = ivar net "s2" and s3 = ivar net "s3" in
  ignore (isum net ~result:s2 [ a; b ]);
  ignore (isum net ~result:s3 [ a; b; c ]);
  let p = Obs.Provenance.attach ~pp_value:string_of_int net in
  List.iter
    (fun (v, n) -> Alcotest.(check bool) "set" true (ok (Engine.set net v n)))
    [ (a, 1); (b, 2); (c, 3) ];
  let open Obs.Provenance in
  let id path = (Option.get (latest_span p path)).sp_id in
  Alcotest.(check (list int)) "s2 antecedents, in argument order"
    [ id "o.a"; id "o.b" ]
    (Option.get (latest_span p "o.s2")).sp_antecedents;
  Alcotest.(check (list int)) "s3 antecedents, in argument order"
    [ id "o.a"; id "o.b"; id "o.c" ]
    (Option.get (latest_span p "o.s3")).sp_antecedents;
  Alcotest.(check int) "only the three-input span spills" 1 (spilled p);
  let named path =
    List.filter_map
      (fun st -> if st.ws_depth = 1 then Some st.ws_span.sp_var else None)
      (why p path)
  in
  Alcotest.(check (list string)) "why s2 names both inputs" [ "o.a"; "o.b" ]
    (named "o.s2");
  Alcotest.(check (list string)) "why s3 names all three inputs"
    [ "o.a"; "o.b"; "o.c" ] (named "o.s3");
  detach p

(* Evicting a span whose antecedents spilled drops the spilled entry
   too: the side table never outgrows the ring. *)
let test_provenance_spill_eviction () =
  let net = pnet "prov-spill" in
  let a = ivar net "a" and b = ivar net "b" and c = ivar net "c" in
  let s = ivar net "s" in
  ignore (isum net ~result:s [ a; b; c ]);
  let p = Obs.Provenance.attach ~capacity:16 ~pp_value:string_of_int net in
  ignore (Engine.set net b 0);
  ignore (Engine.set net c 0);
  let retained_spilled () =
    let n = ref 0 in
    for id = 1 to 200 do
      match Obs.Provenance.find_span p id with
      | Some sp when List.length sp.sp_antecedents >= 3 -> incr n
      | _ -> ()
    done;
    !n
  in
  for i = 1 to 40 do
    ignore (Engine.set net a i)
  done;
  Alcotest.(check bool) "spans were evicted" true (Obs.Provenance.evicted p > 0);
  Alcotest.(check bool) "the newest sum spilled" true
    (List.length (Option.get (Obs.Provenance.latest_span p "o.s")).sp_antecedents
    = 3);
  Alcotest.(check int) "one entry per retained spilled span"
    (retained_spilled ()) (Obs.Provenance.spilled p);
  Alcotest.(check bool) "bounded by the ring" true
    (Obs.Provenance.spilled p <= 8);
  Obs.Provenance.detach p

(* The acceptance property: a [why] on a variable whose value arrived
   over a dual bridge walks the derivation across both networks back to
   the original designer entry, and the episode forest nests the remote
   episode under its cross-network parent. *)
let test_provenance_why_cross_network () =
  let design = Stem.Env.create ~name:"prov-design" () in
  let floorplan = Stem.Env.create ~name:"prov-floorplan" () in
  let dnet = design.Stem.Design.env_cnet in
  let fnet = floorplan.Stem.Design.env_cnet in
  let dprov = Obs.Provenance.attach ~pp_value:Dval.to_string dnet in
  let fprov = Obs.Provenance.attach ~pp_value:Dval.to_string fnet in
  let a = Dclib.variable dnet ~owner:"alu/a" ~name:"bitWidth" () in
  let b = Dclib.variable dnet ~owner:"alu/sum" ~name:"bitWidth" () in
  ignore (Dclib.equality dnet [ a; b ]);
  let bus = Dclib.variable fnet ~owner:"chan0" ~name:"busWidth" () in
  let tracks = Dclib.variable fnet ~owner:"chan0" ~name:"tracks" () in
  ignore (Dclib.equality fnet [ bus; tracks ]);
  ignore
    (Stem.Dual.bridge design ~kind:"width-export" ~from_:b ~to_env:floorplan
       ~to_:bus ());
  Alcotest.(check bool) "designer entry commits" true
    (match Engine.set dnet a (Dval.Int 16) with Ok () -> true | Error _ -> false);
  Alcotest.(check bool) "value crossed the bridge" true
    (Var.value tracks = Some (Dval.Int 16));
  let open Obs.Provenance in
  let chain = why fprov "chan0.tracks" in
  let nets =
    List.sort_uniq compare (List.map (fun s -> s.ws_span.sp_net) chain)
  in
  Alcotest.(check (list string)) "chain spans both networks"
    [ "prov-design"; "prov-floorplan" ] nets;
  Alcotest.(check bool) "chain ends at the designer entry" true
    (List.exists
       (fun s ->
         s.ws_span.sp_just = "user" && s.ws_span.sp_var = "alu/a.bitWidth")
       chain);
  Alcotest.(check bool) "cross-network edge recorded on a span" true
    (List.exists
       (fun s -> s.ws_span.sp_net = "prov-floorplan" && s.ws_span.sp_cross <> None)
       chain);
  (* forward: blaming the designer entry reaches the other network *)
  Alcotest.(check bool) "blame crosses forward" true
    (List.exists
       (fun sp -> sp.sp_net = "prov-floorplan")
       (blame dprov "alu/a.bitWidth"));
  (* the remote episode nests under its cross-network parent *)
  let rec crosses node =
    List.exists
      (fun c -> c.tn_episode.epi_net <> node.tn_episode.epi_net)
      node.tn_children
    || List.exists crosses node.tn_children
  in
  Alcotest.(check bool) "episode forest nests across networks" true
    (List.exists crosses (episode_forest ()));
  detach dprov;
  detach fprov

(* ---------------- replay ---------------- *)

(* A from-creation trace must replay to exactly the live state —
   including a faulted rollback and a probe in the middle — and report
   divergence once the live network moves past the trace. *)
let test_replay_roundtrip () =
  let net = pnet "replay-rt" in
  let buf = Buffer.create 4096 in
  Engine.add_sink net (Obs.Jsonl.buffer_sink ~pp_value:string_of_int buf);
  let a, _, _, _, bc = chain net in
  ignore (Engine.set net a 1);
  let inj = Fault.wrap ~mode:(Fault.Throw_on [ 1 ]) bc in
  Alcotest.(check bool) "faulted episode rolls back" false
    (ok (Engine.set net a 2));
  Fault.restore inj;
  ignore (Engine.explain_set net a 3);
  ignore (Engine.set net a 2);
  let r = Obs.Replay.of_string (Buffer.contents buf) in
  Alcotest.(check (list (pair int string))) "no warnings on our own trace" []
    (Obs.Replay.warnings r);
  Alcotest.(check int) "loaded at origin" 0 (Obs.Replay.position r);
  Obs.Replay.to_end r;
  Alcotest.(check int) "at end" (Obs.Replay.length r) (Obs.Replay.position r);
  Alcotest.(check (list (pair string string))) "replayed state = live state"
    [ ("o.a", "2"); ("o.b", "2"); ("o.c", "2") ]
    (Obs.Replay.snapshot r);
  Alcotest.(check int) "no divergence on a from-creation trace" 0
    (List.length (Obs.Replay.diff_live r ~pp_value:string_of_int net));
  (* time travel *)
  Obs.Replay.seek r 0;
  Alcotest.(check (list (pair string string))) "origin is empty" []
    (Obs.Replay.snapshot r);
  Obs.Replay.to_end r;
  Obs.Replay.step r (-1);
  Alcotest.(check int) "relative step back"
    (Obs.Replay.length r - 1)
    (Obs.Replay.position r);
  Obs.Replay.seek_seq r (Obs.Replay.max_seq r);
  Alcotest.(check int) "seek to max seq reaches the end"
    (Obs.Replay.length r) (Obs.Replay.position r);
  (* live state moves on; the detector must notice *)
  ignore (Engine.set net a 9);
  let dv = Obs.Replay.diff_live r ~pp_value:string_of_int net in
  Alcotest.(check bool) "divergence detected" true
    (List.exists (fun d -> d.Obs.Replay.dv_var = "o.a") dv)

(* ---------------- lenient JSONL loading ---------------- *)

let test_jsonl_lenient_parsing () =
  let net = mknet () in
  let a, _, _, _, _ = chain net in
  let buf = Buffer.create 1024 in
  Engine.add_sink net (Obs.Jsonl.buffer_sink ~pp_value:string_of_int buf);
  ignore (Engine.set net a 1);
  let good = Buffer.contents buf in
  let n_good = List.length (Obs.Jsonl.parse_lines good) in
  (* sandwich the real trace between garbage, a truncated tail and a
     blank line; 1-based line numbers must count all of them *)
  let doctored = "garbage line\n" ^ good ^ "{\"truncated\": \n\n[1,2]\n" in
  let kept, warnings = Obs.Jsonl.parse_lines_lenient doctored in
  Alcotest.(check int) "every parseable line kept" n_good (List.length kept);
  Alcotest.(check (list int)) "warnings carry editor line numbers"
    [ 1; n_good + 2; n_good + 4 ]
    (List.map fst warnings);
  Alcotest.(check int) "first kept line is line 2" 2 (fst (List.hd kept));
  (* v2 schema fields present on assign lines *)
  Alcotest.(check bool) "assign carries v2 justification" true
    (List.exists
       (fun (_, fields) ->
         Obs.Jsonl.version fields = Obs.Jsonl.schema_version
         && Obs.Jsonl.str fields "t" = Some "assign"
         && Obs.Jsonl.str fields "just" = Some "user")
       kept);
  (* v1 lines (no "v" field) still read back *)
  (match Obs.Jsonl.parse_line {|{"seq":1,"ep":1,"t":"assign"}|} with
  | Ok fields -> Alcotest.(check int) "versionless line is v1" 1 (Obs.Jsonl.version fields)
  | Error e -> Alcotest.failf "v1 line rejected: %s" e);
  (* sequence numbers from long-running sessions exceed 32 bits *)
  let big = 1 lsl 40 in
  let line = Printf.sprintf {|{"seq":%d,"ep":2,"t":"check"}|} big in
  (match Obs.Jsonl.parse_line line with
  | Ok fields ->
    Alcotest.(check (option int)) "large seq round-trips" (Some big)
      (Obs.Jsonl.int fields "seq")
  | Error e -> Alcotest.failf "large seq rejected: %s" e)

let suite =
  ( "obs",
    [
      Alcotest.test_case "fan-out order" `Quick test_fan_out_order;
      Alcotest.test_case "add_sink replaces in place" `Quick
        test_add_sink_replaces_in_place;
      Alcotest.test_case "throwing sink isolated" `Quick
        test_throwing_sink_isolated;
      Alcotest.test_case "boxed sink helper" `Quick test_boxed_sink_helper;
      Alcotest.test_case "episode ids consistent" `Quick
        test_episode_ids_consistent;
      Alcotest.test_case "rolled-back span on fault" `Quick
        test_rolled_back_span_on_fault;
      Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
      Alcotest.test_case "ring wrap with mid-episode sink" `Quick
        test_ring_wrap_mid_episode;
      Alcotest.test_case "metrics agree with stats" `Quick
        test_metrics_agree_with_stats;
      Alcotest.test_case "metrics kinds and quantiles" `Quick
        test_metrics_kind_clash_and_quantiles;
      Alcotest.test_case "metrics quantile edge cases" `Quick
        test_metrics_quantile_edge_cases;
      Alcotest.test_case "profiler hotspots" `Quick test_profiler_hotspots;
      Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
      Alcotest.test_case "jsonl escaping" `Quick test_jsonl_escaping;
      Alcotest.test_case "board bundle" `Quick test_board_bundle;
      Alcotest.test_case "provenance queries" `Quick test_provenance_queries;
      Alcotest.test_case "provenance rollback" `Quick test_provenance_rollback;
      Alcotest.test_case "provenance eviction" `Quick test_provenance_eviction;
      Alcotest.test_case "provenance steady allocation" `Quick
        test_provenance_steady_allocation;
      Alcotest.test_case "provenance episode log" `Quick
        test_provenance_episode_log;
      Alcotest.test_case "provenance sum antecedents" `Quick
        test_provenance_sum_antecedents;
      Alcotest.test_case "provenance spill eviction" `Quick
        test_provenance_spill_eviction;
      Alcotest.test_case "provenance why across networks" `Quick
        test_provenance_why_cross_network;
      Alcotest.test_case "replay round-trip" `Quick test_replay_roundtrip;
      Alcotest.test_case "jsonl lenient loading" `Quick
        test_jsonl_lenient_parsing;
    ] )
