(* The continuous-monitoring layer: rolling windows (rotation,
   bounded history, rates and quantiles), the tail sampler (slow top-K,
   violating/head promotion, truncation, bounded store), watchdog rule
   transitions and watchdog naming on boards, and the topology
   export (structural stats, 2-core cycle detection, DOT structure). *)

open Constraint_kernel

let mknet ?(name = "mon") () = Engine.create_network ~name ()

let ivar net name =
  Var.create net ~owner:"m" ~name ~equal:Int.equal ~pp:Fmt.int ()

let chain net =
  let a = ivar net "a" and b = ivar net "b" and c = ivar net "c" in
  let ab, _ = Clib.equality net [ a; b ] in
  let bc, _ = Clib.equality net [ b; c ] in
  (a, b, c, ab, bc)

let ok = function Ok () -> true | Error _ -> false

(* A synthetic span with a chosen latency (µs) — windows and samplers
   only look at outcome, timings, steps and agenda depth. *)
let span ?(id = 0) ?(outcome = Types.E_committed) ~us ?(steps = 3) () =
  Types.
    {
      es_id = id;
      es_label = "set";
      es_outcome = outcome;
      es_timings =
        {
          ph_propagate = us /. 1e6;
          ph_drain = 0.;
          ph_check = 0.;
          ph_restore = 0.;
        };
      es_steps = steps;
      es_agenda_hwm = 1;
    }

(* ---------------- rolling windows ---------------- *)

let test_window_rotation () =
  let clock = ref 0.0 in
  let w =
    Obs.Window.create ~slots:4 ~width:(Obs.Window.Episodes 3)
      ~clock:(fun () -> !clock)
      ()
  in
  let boundaries = ref [] in
  Obs.Window.on_rotate w (fun snap -> boundaries := snap :: !boundaries);
  Obs.Window.observe_span w (span ~id:1 ~us:100.0 ());
  Obs.Window.note_violation w;
  Obs.Window.observe_span w
    (span ~id:2 ~us:200.0 ~outcome:Types.E_rolled_back ());
  Alcotest.(check int) "no boundary before the width" 0
    (List.length !boundaries);
  Alcotest.(check int) "current slot counts live" 2
    (Obs.Window.current w).Obs.Window.w_episodes;
  clock := 2.0;
  Obs.Window.observe_span w (span ~id:3 ~us:400.0 ());
  Alcotest.(check int) "boundary at the width" 1 (List.length !boundaries);
  let snap =
    match Obs.Window.last w with
    | Some s -> s
    | None -> Alcotest.fail "no completed window"
  in
  Alcotest.(check int) "episodes" 3 snap.Obs.Window.w_episodes;
  Alcotest.(check int) "committed" 2 snap.Obs.Window.w_committed;
  Alcotest.(check int) "rolled back" 1 snap.Obs.Window.w_rolled_back;
  Alcotest.(check int) "violations" 1 snap.Obs.Window.w_violations;
  Alcotest.(check (float 1e-6)) "duration from the injected clock" 2.0
    snap.Obs.Window.w_duration;
  Alcotest.(check (float 1e-6)) "episode rate = n / duration" 1.5
    (Obs.Window.episode_rate snap);
  Alcotest.(check (float 1e-6)) "violation rate is per-episode"
    (1.0 /. 3.0)
    (Obs.Window.violation_rate snap);
  let p50 = Obs.Window.p50 snap and p99 = Obs.Window.p99 snap in
  Alcotest.(check bool) "p50 within the observed latencies" true
    (p50 >= 100.0 && p50 <= 400.0);
  Alcotest.(check bool) "p99 at least p50, clamped to max" true
    (p99 >= p50 && p99 <= 400.0);
  Alcotest.(check int) "fresh current slot" 0
    (Obs.Window.current w).Obs.Window.w_episodes;
  (* a frozen snapshot must not move with later traffic *)
  Obs.Window.observe_span w (span ~id:4 ~us:50.0 ());
  Alcotest.(check int) "frozen snapshot unchanged" 3
    snap.Obs.Window.w_episodes

let test_window_history_bounded () =
  let w =
    Obs.Window.create ~slots:2 ~width:(Obs.Window.Episodes 1)
      ~clock:(fun () -> 0.0)
      ()
  in
  for i = 1 to 5 do
    Obs.Window.observe_span w (span ~id:i ~us:10.0 ())
  done;
  Alcotest.(check int) "all boundaries counted" 5
    (Obs.Window.completed_count w);
  let kept = Obs.Window.completed w in
  Alcotest.(check int) "history ring bounded" 2 (List.length kept);
  Alcotest.(check (list int)) "newest snapshots kept, oldest first" [ 3; 4 ]
    (List.map (fun s -> s.Obs.Window.w_index) kept)

let test_window_seconds_width () =
  let clock = ref 0.0 in
  let w =
    Obs.Window.create ~width:(Obs.Window.Seconds 1.0)
      ~clock:(fun () -> !clock)
      ()
  in
  Obs.Window.observe_span w (span ~us:10.0 ());
  clock := 0.5;
  Obs.Window.observe_span w (span ~us:10.0 ());
  Alcotest.(check int) "still inside the second" 0
    (Obs.Window.completed_count w);
  clock := 1.25;
  Obs.Window.observe_span w (span ~us:10.0 ());
  Alcotest.(check int) "rotated once the slot covers a second" 1
    (Obs.Window.completed_count w);
  match Obs.Window.last w with
  | Some s -> Alcotest.(check int) "all three episodes in the closed slot" 3
      s.Obs.Window.w_episodes
  | None -> Alcotest.fail "no completed window"

let test_window_fed_by_the_board () =
  let net = mknet () in
  let a, _, _, _, _ = chain net in
  let w = Obs.Board.window (Obs.Board.attach net) in
  ignore (Engine.set net a 1);
  ignore (Engine.set net a 2);
  let cur = Obs.Window.current w in
  Alcotest.(check int) "episodes observed via the board's log" 2
    cur.Obs.Window.w_episodes;
  Alcotest.(check int) "both committed" 2 cur.Obs.Window.w_committed;
  Alcotest.(check bool) "latency histogram fed" true
    (Obs.Metrics.samples cur.Obs.Window.w_latency = 2)

(* ---------------- tail sampler ---------------- *)

(* Feed the sampler a synthetic episode the way the board does: events
   through the shared ring, the episode's end through [finished]. *)
let simulate ring sam ~id ~us ?(viol = false) ?(events = 2)
    ?(outcome = Types.E_committed) filler =
  let start = Obs.Ring.seen ring in
  Obs.Ring.push ring id 0 (Types.T_episode_start (id, "set", None));
  for s = 1 to events do
    Obs.Ring.push ring id s (filler ())
  done;
  if viol then begin
    Obs.Ring.push ring id (events + 1)
      (Types.T_violation
         {
           Types.viol_message = "synthetic";
           viol_cstr_id = None;
           viol_cstr_kind = None;
           viol_var_path = None;
           viol_exn = None;
         })
  end;
  let sp = span ~id ~us ~outcome () in
  Obs.Ring.push ring id (events + 2) (Types.T_episode_end sp);
  Obs.Sampler.finished sam ~start ~violated:viol ~quarantined:false sp

let filler_for net =
  let v = ivar net "filler" in
  fun () -> Types.T_assign (v, 1, "test")

let test_sampler_slow_topk () =
  let net = mknet () in
  let filler = filler_for net in
  let ring = Obs.Ring.create ~capacity:256 () in
  let sam = Obs.Sampler.create ~slow_k:2 ~ring () in
  (* the two slowest first (they fill the top-K), then four faster
     episodes that must not qualify: exactly 2 Slow promotions *)
  List.iteri
    (fun i us -> simulate ring sam ~id:(i + 1) ~us filler)
    [ 60.0; 50.0; 10.0; 20.0; 30.0; 40.0 ];
  let slow =
    List.filter
      (fun ex -> List.mem Obs.Sampler.Slow ex.Obs.Sampler.ex_reasons)
      (Obs.Sampler.exemplars sam)
  in
  Alcotest.(check int) "six episodes seen" 6 (Obs.Sampler.seen sam);
  Alcotest.(check (list int)) "exactly the top-K promoted" [ 1; 2 ]
    (List.map (fun ex -> ex.Obs.Sampler.ex_episode) slow);
  (* the slowest episode is always promoted, and [slowest] finds it *)
  (match Obs.Sampler.slowest sam with
  | Some ex -> Alcotest.(check int) "slowest is episode 1" 1
      ex.Obs.Sampler.ex_episode
  | None -> Alcotest.fail "no slowest exemplar");
  (* a fast episode after warm-up does not displace the top-K *)
  simulate ring sam ~id:7 ~us:1.0 filler;
  Alcotest.(check bool) "fast episode not promoted" true
    (List.for_all (fun ex -> ex.Obs.Sampler.ex_episode <> 7)
       (Obs.Sampler.exemplars sam));
  (* window boundary resets the threshold: the next episode is top-K
     of its own window again *)
  Obs.Sampler.rotate sam;
  simulate ring sam ~id:8 ~us:2.0 filler;
  match Obs.Sampler.latest sam with
  | Some ex ->
    Alcotest.(check int) "fresh window promotes again" 8
      ex.Obs.Sampler.ex_episode;
    Alcotest.(check bool) "for the Slow reason" true
      (List.mem Obs.Sampler.Slow ex.Obs.Sampler.ex_reasons)
  | None -> Alcotest.fail "no exemplar after rotate"

let test_sampler_events_and_reasons () =
  let net = mknet () in
  let filler = filler_for net in
  let ring = Obs.Ring.create ~capacity:256 () in
  let sam = Obs.Sampler.create ~slow_k:1 ~ring () in
  simulate ring sam ~id:1 ~us:10.0 ~events:3 filler;
  simulate ring sam ~id:2 ~us:1.0 ~viol:true
    ~outcome:Types.E_rolled_back ~events:2 filler;
  let ex1, ex2 =
    match Obs.Sampler.exemplars sam with
    | [ a; b ] -> (a, b)
    | l ->
      Alcotest.failf "expected 2 exemplars, got %d" (List.length l)
  in
  Alcotest.(check bool) "slow reason on the first" true
    (List.mem Obs.Sampler.Slow ex1.Obs.Sampler.ex_reasons);
  Alcotest.(check bool) "violating reason on the second" true
    (List.mem Obs.Sampler.Violating ex2.Obs.Sampler.ex_reasons);
  (* full trace captured, oldest first, bracketed by start/end *)
  (* start + 3 fillers + end *)
  Alcotest.(check int) "all events captured" 5
    (List.length (Obs.Sampler.events ex1));
  (match Obs.Sampler.events ex1 with
  | first :: rest ->
    Alcotest.(check bool) "starts with T_episode_start" true
      (match first.Types.te_event with
      | Types.T_episode_start (1, _, _) -> true
      | _ -> false);
    Alcotest.(check bool) "ends with T_episode_end" true
      (match (List.nth rest (List.length rest - 1)).Types.te_event with
      | Types.T_episode_end _ -> true
      | _ -> false)
  | [] -> Alcotest.fail "empty exemplar trace");
  Alcotest.(check bool) "violation event inside the violating trace" true
    (List.exists
       (fun te ->
         match te.Types.te_event with
         | Types.T_violation _ -> true
         | _ -> false)
       (Obs.Sampler.events ex2));
  Alcotest.(check bool) "nothing truncated with a roomy ring" true
    (List.for_all
       (fun ex -> not ex.Obs.Sampler.ex_truncated)
       [ ex1; ex2 ])

let test_sampler_truncation_and_eviction () =
  let net = mknet () in
  let filler = filler_for net in
  (* a 4-slot ring cannot hold a 6-event episode: the exemplar must be
     flagged truncated, keeping only the surviving tail *)
  let ring = Obs.Ring.create ~capacity:4 () in
  let sam = Obs.Sampler.create ~slow_k:1 ~ring () in
  simulate ring sam ~id:1 ~us:10.0 ~events:4 filler;
  (match Obs.Sampler.latest sam with
  | Some ex ->
    Alcotest.(check bool) "truncated flag set" true
      ex.Obs.Sampler.ex_truncated;
    Alcotest.(check int) "only the ring's worth of events" 4
      (List.length (Obs.Sampler.events ex))
  | None -> Alcotest.fail "no exemplar");
  (* bounded store: capacity 2, violating episodes always promote *)
  let ring2 = Obs.Ring.create ~capacity:64 () in
  let sam2 = Obs.Sampler.create ~capacity:2 ~slow_k:0 ~ring:ring2 () in
  for i = 1 to 4 do
    simulate ring2 sam2 ~id:i ~us:1.0 ~viol:true
      ~outcome:Types.E_rolled_back filler
  done;
  Alcotest.(check int) "store bounded" 2 (Obs.Sampler.stored sam2);
  Alcotest.(check int) "promotions counted past eviction" 4
    (Obs.Sampler.promoted sam2);
  Alcotest.(check (list int)) "newest exemplars kept" [ 3; 4 ]
    (List.map
       (fun ex -> ex.Obs.Sampler.ex_episode)
       (Obs.Sampler.exemplars sam2))

let test_sampler_head_sampling () =
  let net = mknet () in
  let filler = filler_for net in
  let ring = Obs.Ring.create ~capacity:256 () in
  let sam = Obs.Sampler.create ~slow_k:0 ~head_every:3 ~ring () in
  for i = 1 to 9 do
    simulate ring sam ~id:i ~us:1.0 filler
  done;
  let heads =
    List.filter
      (fun ex -> List.mem Obs.Sampler.Head ex.Obs.Sampler.ex_reasons)
      (Obs.Sampler.exemplars sam)
  in
  Alcotest.(check int) "1-in-3 head samples" 3 (List.length heads)

(* ---------------- exemplars against a recording sink ---------------- *)

(* A test-local sink that keeps every event, newest first: the oracle
   the board's ring and exemplars are checked against. *)
let recorder net =
  let all = ref [] in
  Engine.add_sink net (Types.sink ~name:"record" (fun te -> all := te :: !all));
  fun () -> List.rev !all

let check_events = Event_eq.check_events

let rec drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t

let last_n n l = drop (List.length l - n) l

(* The exemplar's events are the last min(n, 256) events recorded for
   its episode, truncated iff n > 256. *)
let check_exemplar recorded (ex : int Obs.Sampler.exemplar) =
  let mine =
    List.filter
      (fun te -> te.Types.te_episode = ex.Obs.Sampler.ex_episode)
      recorded
  in
  let n = List.length mine in
  let msg = Printf.sprintf "episode %d (%d events)" ex.ex_episode n in
  Alcotest.(check bool) (msg ^ ": truncated iff n > 256") (n > 256)
    ex.ex_truncated;
  Alcotest.(check int) (msg ^ ": length field") (min n 256) ex.ex_length;
  check_events msg (last_n (min n 256) mine) (Obs.Sampler.events ex)

(* A chain of [links] equalities headed by [a], plus a cap on the
   head: one set of [a] visits the whole chain, one above the cap
   violates and rolls back. *)
let long_chain net links =
  let vs =
    Array.init (links + 1) (fun i -> ivar net (Printf.sprintf "v%d" i))
  in
  for i = 0 to links - 1 do
    ignore (Clib.equality net [ vs.(i); vs.(i + 1) ])
  done;
  let pred = function [ Some x ] -> x <= 1000 | _ -> true in
  ignore (Clib.predicate ~kind:"cap" ~pred net [ vs.(links) ]);
  vs.(0)

let test_exemplar_parity () =
  let net = mknet ~name:"parity" () in
  let head = long_chain net 100 in
  let small = ivar net "small" in
  let b = Obs.Board.attach net in
  let recorded = recorder net in
  (* first of its window, so promoted as slow: a truncated episode *)
  ignore (Engine.set net head 1);
  (* short episodes, some promoted as the window's slowest *)
  for i = 1 to 6 do ignore (Engine.set net small i) done;
  (* a violating episode, always promoted *)
  Alcotest.(check bool) "the cap violates" false
    (ok (Engine.set net head 5000));
  let all = recorded () in
  let long_ep = (List.hd all).Types.te_episode in
  let exs = Obs.Sampler.exemplars (Obs.Board.sampler b) in
  Alcotest.(check bool) "the long episode is a truncated exemplar" true
    (List.exists
       (fun ex -> ex.Obs.Sampler.ex_episode = long_ep && ex.ex_truncated)
       exs);
  Alcotest.(check bool) "a short one too" true
    (List.exists (fun ex -> ex.Obs.Sampler.ex_length < 10) exs);
  Alcotest.(check bool) "and the violating one" true
    (List.exists
       (fun ex -> List.mem Obs.Sampler.Violating ex.Obs.Sampler.ex_reasons)
       exs);
  List.iter (check_exemplar all) exs;
  (* the events a set of the long chain writes, for sizing the wrap *)
  let long_n =
    List.length (List.filter (fun te -> te.Types.te_episode = long_ep) all)
  in
  Alcotest.(check bool) "the long episode outgrows the read capacity" true
    (long_n > 256);
  (* (b) wrap the ring's backing arrays (8 x 256 rows) past every
     stored range, promoting fewer episodes than the store holds: the
     exemplars read before and after read back unchanged *)
  let before = List.map (fun ex -> (ex, Obs.Sampler.events ex)) exs in
  for i = 2 to 2 + ((2 * 8 * 256) / long_n) do
    ignore (Engine.set net head i)
  done;
  let all' = recorded () in
  Alcotest.(check bool) "the ring wrapped twice over" true
    (List.length all' - List.length all > 2 * 8 * 256);
  let exs' = Obs.Sampler.exemplars (Obs.Board.sampler b) in
  Alcotest.(check bool) "every earlier exemplar still stored" true
    (List.for_all
       (fun ex ->
         List.exists
           (fun ex' -> ex'.Obs.Sampler.ex_episode = ex.Obs.Sampler.ex_episode)
           exs')
       exs);
  List.iter
    (fun (ex, events) ->
      check_events "read before the wrap" events (Obs.Sampler.events ex))
    before;
  List.iter (check_exemplar all') exs';
  (* (c) the board's spans are the episode ends among the last 256
     recorded events *)
  Alcotest.(check bool) "spans = recorded episode ends" true
    (List.filter_map
       (fun te ->
         match te.Types.te_event with
         | Types.T_episode_end sp -> Some sp
         | _ -> None)
       (last_n 256 all')
    = Obs.Board.spans b)

(* The same with a 4-event ring (32 backing rows): ranges are copied
   out when the ring overwrites them, and only then.  Sixteen labels
   first fill the ring's string table, so the episodes' own labels are
   kept per row and copied with it. *)
let test_exemplar_copy_on_overwrite () =
  let net = mknet () in
  let filler = filler_for net in
  let ring = Obs.Ring.create ~capacity:4 () in
  let sam = Obs.Sampler.create ~slow_k:0 ~ring () in
  let z = ivar net "z" in
  for k = 1 to 16 do
    Obs.Ring.push ring 0 k (Types.T_reset (z, Printf.sprintf "label %d" k))
  done;
  let events_of () =
    List.map
      (fun ex -> (ex.Obs.Sampler.ex_episode, Obs.Sampler.events ex))
      (Obs.Sampler.exemplars sam)
  in
  for i = 1 to 3 do
    simulate ring sam ~id:i ~us:1.0 ~viol:true ~outcome:Types.E_rolled_back
      filler
  done;
  let before = events_of () in
  Alcotest.(check (list int)) "three exemplars" [ 1; 2; 3 ]
    (List.map fst before);
  (* 40 more rows wrap the 32 backing rows *)
  for s = 1 to 40 do Obs.Ring.push ring 99 s (filler ()) done;
  List.iter2
    (fun (id, evs) (id', evs') ->
      Alcotest.(check int) "same exemplar" id id';
      check_events (Printf.sprintf "episode %d after the wrap" id) evs evs')
    before (events_of ())

(* Episode ids past what a row's packed word holds (2^30): an episode
   end is kept as a row whatever its id, so the board's spans, its
   exemplars and its health read as for any other id. *)
let test_large_episode_ids () =
  let net = mknet ~name:"late" () in
  let head = long_chain net 10 in
  net.Types.net_next_episode <- (1 lsl 30) - 3;
  let b = Obs.Board.attach net in
  let recorded = recorder net in
  for i = 1 to 4 do ignore (Engine.set net head i) done;
  Alcotest.(check bool) "the cap violates" false
    (ok (Engine.set net head 5000));
  for i = 5 to 8 do ignore (Engine.set net head i) done;
  let all = recorded () in
  let ends =
    List.filter_map
      (fun te ->
        match te.Types.te_event with
        | Types.T_episode_end sp -> Some sp
        | _ -> None)
      (last_n 256 all)
  in
  Alcotest.(check bool) "ids cross 2^30" true
    (List.exists (fun sp -> sp.Types.es_id > 1 lsl 30) ends);
  Alcotest.(check bool) "spans = recorded episode ends" true
    (ends = Obs.Board.spans b);
  let exs = Obs.Sampler.exemplars (Obs.Board.sampler b) in
  Alcotest.(check bool) "the violating episode is an exemplar" true
    (List.exists
       (fun ex ->
         List.mem Obs.Sampler.Violating ex.Obs.Sampler.ex_reasons
         && ex.ex_episode > 1 lsl 30)
       exs);
  List.iter (check_exemplar all) exs;
  match Obs.Answer.health "late" b with
  | Obs.Jsonl.J_obj fields ->
    Alcotest.(check bool) "health names the slowest exemplar" true
      (List.assoc "slowest" fields <> Obs.Jsonl.J_null)
  | _ -> Alcotest.fail "health is not an object"

(* ---------------- what a board costs ---------------- *)

(* The 4-bit ripple-carry adder delay net (28 variables, as served in
   the edit_small benchmark): operand arrivals and slice delays are
   entered; m_i = max (a_i, b_i, c_(i-1)), c_i = m_i + dc_i and
   s_i = m_i + ds_i are derived. *)
let ripple_spec =
  let b = Buffer.create 1024 in
  for i = 0 to 3 do
    List.iter
      (fun v -> Printf.bprintf b "var rc.%s%d = %d\n" v i (i + 1))
      [ "a"; "b"; "dc"; "ds" ];
    Printf.bprintf b "var rc.m%d\nvar rc.c%d\nvar rc.s%d\n" i i i
  done;
  for i = 0 to 3 do
    Printf.bprintf b "max rc.m%d rc.a%d rc.b%d%s\n" i i i
      (if i = 0 then "" else Printf.sprintf " rc.c%d" (i - 1));
    Printf.bprintf b "sum rc.c%d rc.m%d rc.dc%d\n" i i i;
    Printf.bprintf b "sum rc.s%d rc.m%d rc.ds%d\n" i i i
  done;
  Buffer.add_string b "cap rc.c3 1000\n";
  Buffer.contents b

(* Minor and promoted words per set: seeded sets of random inputs to
   random values, 4,000 of them after 3,000 of warm-up (which fills the
   board's ring, exemplar store and provenance rings). *)
let words_per_set ~board =
  let net, inits = Serve.Wstore.build_spec ~id:"rc" ripple_spec in
  let var p = Option.get (Editor.find_var net p) in
  List.iter (fun (p, v) -> ignore (Engine.set net (var p) v)) inits;
  if board then ignore (Obs.Board.attach net);
  let inputs = Array.of_list (List.map (fun (p, _) -> var p) inits) in
  let rng = Random.State.make [| 23 |] in
  let set () =
    let v = inputs.(Random.State.int rng (Array.length inputs)) in
    ignore (Engine.set net v (Dval.Int (1 + Random.State.int rng 40)))
  in
  for _ = 1 to 3000 do set () done;
  let n = 4000 in
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  for _ = 1 to n do set () done;
  (* survivors still in the minor heap count as promoted *)
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  let per x0 x1 = (x1 -. x0) /. float_of_int n in
  ( per s0.Gc.minor_words s1.Gc.minor_words,
    per s0.Gc.promoted_words s1.Gc.promoted_words )

(* The engine writes a board's rows itself, builds no event for it, and
   the board works once per episode, so an observed set allocates little
   more than the episode's span record and promotes little more than
   the values provenance keeps.  Measured with OCaml 5.1.1: bare 280
   minor words and 0.3 promoted per set; with a board 292 and 8.  A
   board fed through a sink cost 377 and 16; one whose ring held boxed
   events, whose exemplars were copied out as event lists and whose
   per-episode floats and records were boxed cost 591 and 55 (bare
   292). *)
let test_board_cost () =
  let bare_minor, _ = words_per_set ~board:false in
  let minor, promoted = words_per_set ~board:true in
  if promoted > 20. then
    Alcotest.failf "an observed set promotes %.1f words (max 20)" promoted;
  if minor > bare_minor +. 20. then
    Alcotest.failf "an observed set allocates %.1f minor words (max %.1f + 20)"
      minor bare_minor

(* ---------------- watchdog ---------------- *)

let snap_of ?(violations = 0) ?(quarantines = 0) ?(sink_errors = 0) ~us n =
  let w =
    Obs.Window.create ~width:(Obs.Window.Episodes n)
      ~clock:(fun () -> 0.0)
      ()
  in
  for _ = 1 to violations do Obs.Window.note_violation w done;
  for _ = 1 to quarantines do Obs.Window.note_quarantine w done;
  Obs.Window.note_sink_errors w sink_errors;
  for i = 1 to n do Obs.Window.observe_span w (span ~id:i ~us ()) done;
  match Obs.Window.last w with
  | Some s -> s
  | None -> Alcotest.fail "helper window never rotated"

let test_watchdog_transitions () =
  let wd =
    Obs.Watchdog.create
      [
        Obs.Watchdog.latency_p99_above 100.0;
        Obs.Watchdog.violation_rate_above 0.5;
      ]
  in
  Alcotest.(check int) "two rules" 2 (List.length (Obs.Watchdog.rules wd));
  (* healthy window: no transitions *)
  let t1 = Obs.Watchdog.evaluate wd (snap_of ~us:10.0 4) in
  Alcotest.(check int) "healthy: no transitions" 0 (List.length t1);
  Alcotest.(check bool) "ok" true (Obs.Watchdog.ok wd);
  (* slow window: latency rule fires *)
  let t2 = Obs.Watchdog.evaluate wd (snap_of ~us:5000.0 4) in
  Alcotest.(check int) "one firing transition" 1 (List.length t2);
  (match t2 with
  | [ al ] ->
    Alcotest.(check bool) "state is Firing" true
      (al.Obs.Watchdog.al_state = `Firing)
  | _ -> Alcotest.fail "expected one alert");
  Alcotest.(check bool) "not ok while firing" false (Obs.Watchdog.ok wd);
  (* still slow: no repeated transition *)
  let t3 = Obs.Watchdog.evaluate wd (snap_of ~us:6000.0 4) in
  Alcotest.(check int) "steady state logs nothing" 0 (List.length t3);
  Alcotest.(check int) "one rule firing" 1
    (List.length (Obs.Watchdog.firing wd));
  (* recovery: a cleared transition *)
  let t4 = Obs.Watchdog.evaluate wd (snap_of ~us:10.0 4) in
  (match t4 with
  | [ al ] ->
    Alcotest.(check bool) "state is Cleared" true
      (al.Obs.Watchdog.al_state = `Cleared)
  | _ -> Alcotest.fail "expected one cleared transition");
  Alcotest.(check bool) "ok again" true (Obs.Watchdog.ok wd);
  Alcotest.(check int) "alert log holds both transitions" 2
    (List.length (Obs.Watchdog.alerts wd));
  Alcotest.(check int) "four windows evaluated" 4
    (Obs.Watchdog.evaluations wd);
  (* the violation-rate rule fires independently *)
  let t5 = Obs.Watchdog.evaluate wd (snap_of ~violations:3 ~us:10.0 4) in
  Alcotest.(check int) "violation rule fires" 1 (List.length t5)

let test_watchdog_stock_rules () =
  let wd = Obs.Watchdog.create (Obs.Watchdog.default_rules ()) in
  ignore (Obs.Watchdog.evaluate wd (snap_of ~us:10.0 2));
  Alcotest.(check bool) "defaults quiet on a clean window" true
    (Obs.Watchdog.ok wd);
  ignore (Obs.Watchdog.evaluate wd (snap_of ~quarantines:1 ~us:10.0 2));
  Alcotest.(check bool) "quarantine_any fires" false (Obs.Watchdog.ok wd);
  ignore (Obs.Watchdog.evaluate wd (snap_of ~us:10.0 2));
  ignore (Obs.Watchdog.evaluate wd (snap_of ~sink_errors:2 ~us:10.0 2));
  Alcotest.(check (list (pair string string))) "sink_errors_any detail"
    [ ("sink_errors>0", "2 sink error(s)") ]
    (Obs.Watchdog.firing wd)

(* ---------------- the board's monitor, end to end ---------------- *)

let test_board_monitor_end_to_end () =
  let net = mknet ~name:"mon-e2e" () in
  let a, _, _, _, _ = chain net in
  let guard = ivar net "g" in
  let _ = Clib.equality net [ a; guard ] in
  let pred = function [ Some x ] -> x <= 100 | _ -> true in
  let _ = Clib.predicate ~kind:"limit" ~pred net [ guard ] in
  let b =
    Obs.Board.attach ~window_width:(Obs.Window.Episodes 2) net
  in
  let wd = Obs.Board.watchdog b in
  Alcotest.(check string) "watchdog named after the net" "mon-e2e"
    (Obs.Watchdog.name wd);
  ignore (Engine.set net a 1);
  ignore (Engine.set net a 2);
  ignore (Engine.set net a 300) (* violates the predicate, rolls back *);
  ignore (Engine.set net a 3);
  let w = Obs.Board.window b in
  Alcotest.(check int) "two windows closed (width 2, 4 episodes)" 2
    (Obs.Window.completed_count w);
  let closed = Obs.Window.completed w in
  Alcotest.(check int) "4 episodes across closed windows" 4
    (List.fold_left
       (fun acc s -> acc + s.Obs.Window.w_episodes)
       0 closed);
  Alcotest.(check int) "one rolled back" 1
    (List.fold_left
       (fun acc s -> acc + s.Obs.Window.w_rolled_back)
       0 closed);
  Alcotest.(check int) "one violation counted" 1
    (List.fold_left
       (fun acc s -> acc + s.Obs.Window.w_violations)
       0 closed);
  (* the violating episode was promoted with its full trace *)
  let sam = Obs.Board.sampler b in
  let violating =
    List.filter
      (fun ex -> List.mem Obs.Sampler.Violating ex.Obs.Sampler.ex_reasons)
      (Obs.Sampler.exemplars sam)
  in
  Alcotest.(check int) "exactly one violating exemplar" 1
    (List.length violating);
  (match violating with
  | [ ex ] ->
    Alcotest.(check bool) "trace holds the violation event" true
      (List.exists
         (fun te ->
           match te.Types.te_event with
           | Types.T_violation _ -> true
           | _ -> false)
         (Obs.Sampler.events ex));
    Alcotest.(check bool) "trace holds restore events" true
      (List.exists
         (fun te ->
           match te.Types.te_event with
           | Types.T_restore _ -> true
           | _ -> false)
         (Obs.Sampler.events ex))
  | _ -> ());
  (* checkpoint closes the half-full current window *)
  ignore (Engine.set net a 4);
  Obs.Board.checkpoint b;
  Alcotest.(check int) "checkpoint forced a boundary" 3
    (Obs.Window.completed_count w);
  Obs.Board.checkpoint b;
  Alcotest.(check int) "empty checkpoint is a no-op" 3
    (Obs.Window.completed_count w);
  (* the health answer's text mentions the essentials *)
  let health = Fmt.str "%a" Obs.Answer.text (Obs.Answer.health "net" b) in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "health text mentions %S" needle)
        true
        (Astring_contains.contains health needle))
    [ "episodes"; "p50"; "p99"; "firing:"; "exemplars:" ];
  Obs.Board.detach net;
  Alcotest.(check int) "detach removes the sink" 0
    (List.length (Engine.sinks net))

(* ---------------- topology ---------------- *)

let test_topo_stats () =
  let net = mknet () in
  let a, _, _, _, _ = chain net in
  ignore (Engine.set net a 7);
  let s = Obs.Topo.stats net in
  Alcotest.(check int) "vars" 3 s.Obs.Topo.tp_vars;
  Alcotest.(check int) "constraints" 2 s.Obs.Topo.tp_cstrs;
  Alcotest.(check int) "edges = sum of arities" 4 s.Obs.Topo.tp_edges;
  Alcotest.(check int) "middle var touches both equalities" 2
    s.Obs.Topo.tp_var_fan_max;
  Alcotest.(check int) "binary constraints" 2 s.Obs.Topo.tp_cstr_arity_max;
  Alcotest.(check int) "a -> b -> c derivation depth" 2 s.Obs.Topo.tp_depth;
  Alcotest.(check int) "a chain has no cycles (vars)" 0
    s.Obs.Topo.tp_cyclic_vars;
  Alcotest.(check int) "a chain has no cycles (cstrs)" 0
    s.Obs.Topo.tp_cyclic_cstrs;
  Alcotest.(check int) "nothing quarantined" 0 s.Obs.Topo.tp_quarantined

let test_topo_two_core () =
  let net = mknet () in
  let a = ivar net "a" and b = ivar net "b" and c = ivar net "c" in
  let d = ivar net "d" in
  let _ = Clib.equality net [ a; b ] in
  let _ = Clib.equality net [ b; c ] in
  let _ = Clib.equality net [ c; a ] in
  (* d hangs off the cycle by one more equality: a leaf, peeled away *)
  let _ = Clib.equality net [ c; d ] in
  let s = Obs.Topo.stats net in
  Alcotest.(check int) "three variables on the cycle" 3
    s.Obs.Topo.tp_cyclic_vars;
  Alcotest.(check int) "three constraints on the cycle" 3
    s.Obs.Topo.tp_cyclic_cstrs;
  Alcotest.(check int) "the pendant var is off-cycle" 4 s.Obs.Topo.tp_vars

(* No graphviz in CI, so validate the DOT document structurally: one
   top-level graph block, balanced braces, a node statement per
   variable and constraint, an edge statement per constraint argument,
   quoted identifiers throughout. *)
let test_topo_dot_structure () =
  let net = mknet ~name:"dot-net" () in
  let a, _, _, ab, _ = chain net in
  let board = Obs.Board.attach net in
  ignore (Engine.set net a 5);
  ab.Types.c_quarantined <- Some "manual test quarantine";
  ab.Types.c_enabled <- false;
  let dot =
    Obs.Topo.to_dot
      ~profiler:(Obs.Board.profiler board)
      ~metrics:(Obs.Board.metrics board)
      net
  in
  let contains needle = Astring_contains.contains dot needle in
  Alcotest.(check bool) "opens a graph block" true
    (String.length dot > 12 && String.sub dot 0 11 = "graph stem ");
  let opens = ref 0 and closes = ref 0 in
  String.iter
    (fun ch ->
      if ch = '{' then incr opens else if ch = '}' then incr closes)
    dot;
  Alcotest.(check int) "balanced braces" !opens !closes;
  Alcotest.(check bool) "ends closing the graph" true
    (let t = String.trim dot in
     String.length t > 0 && t.[String.length t - 1] = '}');
  let count needle =
    let n = String.length needle and ln = String.length dot in
    let hits = ref 0 in
    for i = 0 to ln - n do
      if String.sub dot i n = needle then incr hits
    done;
    !hits
  in
  Alcotest.(check int) "a node per variable" 3 (count "shape=ellipse");
  Alcotest.(check int) "a node per constraint" 2 (count "shape=box");
  Alcotest.(check int) "an edge per constraint argument" 4 (count " -- ");
  Alcotest.(check bool) "variable values rendered" true (contains "= 5");
  Alcotest.(check bool) "quarantine annotated" true
    (contains "QUARANTINED: manual test quarantine");
  Alcotest.(check bool) "quarantined node dashed" true
    (contains "style=dashed");
  Alcotest.(check bool) "heat fill from the profiler" true
    (contains "/reds9/");
  Alcotest.(check bool) "latency quantiles on the label" true
    (contains "p99=");
  Alcotest.(check bool) "graph label names the net" true
    (contains "net 'dot-net'");
  (* elision is explicit, never silent *)
  let tiny = Obs.Topo.to_dot ~max_nodes:2 net in
  Alcotest.(check bool) "elided nodes counted in a placeholder" true
    (Astring_contains.contains tiny "elided");
  Obs.Board.detach net

let suite =
  ( "monitor",
    [
      Alcotest.test_case "window rotation and rates" `Quick
        test_window_rotation;
      Alcotest.test_case "window history bounded" `Quick
        test_window_history_bounded;
      Alcotest.test_case "window seconds width" `Quick
        test_window_seconds_width;
      Alcotest.test_case "window fed by the board" `Quick
        test_window_fed_by_the_board;
      Alcotest.test_case "sampler slow top-k" `Quick test_sampler_slow_topk;
      Alcotest.test_case "sampler events and reasons" `Quick
        test_sampler_events_and_reasons;
      Alcotest.test_case "sampler truncation and eviction" `Quick
        test_sampler_truncation_and_eviction;
      Alcotest.test_case "sampler head sampling" `Quick
        test_sampler_head_sampling;
      Alcotest.test_case "exemplars match a recording sink" `Quick
        test_exemplar_parity;
      Alcotest.test_case "exemplars copied on overwrite" `Quick
        test_exemplar_copy_on_overwrite;
      Alcotest.test_case "episode ids past the packed range" `Quick
        test_large_episode_ids;
      Alcotest.test_case "what a board costs per set" `Quick test_board_cost;
      Alcotest.test_case "watchdog transitions" `Quick
        test_watchdog_transitions;
      Alcotest.test_case "watchdog stock rules" `Quick
        test_watchdog_stock_rules;
      Alcotest.test_case "board monitor end to end" `Quick
        test_board_monitor_end_to_end;
      Alcotest.test_case "topo stats" `Quick test_topo_stats;
      Alcotest.test_case "topo two-core cycles" `Quick test_topo_two_core;
      Alcotest.test_case "topo dot structure" `Quick test_topo_dot_structure;
    ] )
