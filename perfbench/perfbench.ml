(* perfbench: one seeded workload per process.

     perfbench.exe --workload edit_small|edit_deep|build_check
                   --seed N --seconds S --trace 0|1

   Prints a human report on stderr and, as the last line of stdout, one
   JSON object: the end-to-end metrics with --trace 0, the per-layer
   metrics with --trace 1.  See perfbench/NOTES.md for the method. *)

let run_dir = ".perfbench_run"

(* Operations per requested second, fixed so that every run of a
   workload does the same work whatever the machine's speed.  Both edit
   workloads are paced evenly over the run, so their samples span all of
   it: the host's speed changes within seconds, and edit_deep's latency
   also spans a 20x range by cone size (NOTES.md). *)
let edit_small_per_s = 600

let edit_deep_per_s = 450

(* Fewer designs than the machine could build back to back: the leak
   (NOTES.md) caps how many a run can afford, so they are paced evenly
   over the run instead, which also samples the machine's speed over the
   whole run. *)
let designs_per_s = 11

(* Warm-up requests: past the point where minor words per request level
   off (NOTES.md shows the per-chunk check). *)
let edit_small_warm = 3072

let edit_deep_warm = 960

let warm_chunks = 12

let designs_warm = 24

let setup_rounds = 3

(* Requests per block when the traced run alternates the server pass
   with the direct-call pass. *)
let trace_block = 200

let end_to_end =
  [
    ("op_p50_us", "us");
    ("ops_per_s", "1/s");
    ("setup_s", "s");
    ("rss_peak_mb", "MB");
  ]

(* [op_p99_us] varies too much between runs on a shared 2-vCPU VM to
   gate on (NOTES.md), so it is reported with the layers, from the
   untraced pass of the traced run. *)
let per_layer =
  [
    ("op_p99_us", "us");
    ("serve.http.parse_us", "us");
    ("serve.admission.admit_us", "us");
    ("serve.journal.append_us", "us");
    ("serve.alloc_words_per_req", "words");
    ("serve.wstore.snapshots", "count");
    ("serve.wstore.snapshot_us", "us");
    ("serve.wstore.lookup_us", "us");
    ("serve.wstore.apply_us", "us");
    ("serve.request_us", "us");
    ("serve.unexplained_us", "us");
    ("obs.provenance.why_us", "us");
    ("core.episode.propagate_us", "us");
    ("core.episode.drain_us", "us");
    ("core.episode.check_us", "us");
    ("core.episode.restore_us", "us");
    ("core.steps_per_episode", "count");
    ("core.wakeups_per_episode", "count");
    ("core.alloc_words_per_step", "words");
    ("core.rollback_frac", "frac");
    ("core.request_share", "frac");
    ("cell_library.build_ms", "ms");
    ("delay.delay_ms", "ms");
    ("checking.check_ms", "ms");
    ("checking.examined", "count");
    ("selection.select_ms", "ms");
    ("selection.candidates_tested", "count");
    ("selection.subtrees_pruned", "count");
    ("stem.cstrs_per_design", "count");
    ("stem.heap_growth_kw_per_design", "kw");
    ("trace.overhead_us", "us");
  ]

(* Print the report lines and the JSON result for [names]; layers a
   workload does not call read 0. *)
let finish (o : Report.outcome) names values =
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name values with
      | Some (v, n) -> Report.line ~name ~unit ?n v
      | None -> ())
    names;
  Report.note "  checks: %d attempted, %d failed" o.attempted o.failed;
  Report.print_result ~correct:(o.failed = 0) ~attempted:o.attempted
    ~failed:o.failed
    (List.map
       (fun (name, unit) ->
         Report.metric name unit
           (match List.assoc_opt name values with Some (v, _) -> v | None -> 0.0))
       names)

let us x = x *. 1e6

(* Allocation has levelled off when the last quarter of the warm-up
   chunks allocates within 10% of the quarter before it. *)
let levelled chunks =
  let q = List.length chunks / 4 in
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  let tail = drop (List.length chunks - (2 * q)) chunks in
  q > 0
  &&
  let prev = mean (List.filteri (fun i _ -> i < q) tail)
  and last = mean (List.filteri (fun i _ -> i >= q) tail) in
  Float.abs (last -. prev) <= 0.1 *. prev

(* ---------------- edit workloads ---------------- *)

let edit ~name ~seed ~seconds ~trace =
  let gen, per_s, warm =
    match name with
    | "edit_small" -> (Gen.edit_small, edit_small_per_s, edit_small_warm)
    | _ -> (Gen.edit_deep, edit_deep_per_s, edit_deep_warm)
  in
  let timed_n = per_s * seconds in
  let w = gen ~seed ~requests:(warm + timed_n) in
  let o = Report.outcome () in
  let dir pass = Filename.concat run_dir (Printf.sprintf "%s-%d-%s" name (Unix.getpid ()) pass) in
  let chunk = warm / warm_chunks in
  let show_chunks chunks =
    Report.note "  warm-up minor words/request by chunk of %d: %s (levelled: %b)"
      chunk
      (String.concat " " (List.map (Printf.sprintf "%.0f") chunks))
      (levelled chunks)
  in
  if not trace then begin
    (* set up [setup_rounds] times, keep the last *)
    let times = ref [] and last = ref None in
    for i = 1 to setup_rounds do
      let t0 = Report.now () in
      let r, chunks = Edit.setup o ~dir:(dir "serve") ~warm ~chunk w in
      times := (Report.now () -. t0) :: !times;
      if i < setup_rounds then Edit.teardown o r w
      else begin
        show_chunks chunks;
        last := Some r
      end
    done;
    let r = Option.get !last in
    let t = Edit.run_timed ~seconds o r w ~from:warm in
    (* the serving peak: the checks below are not part of the workload *)
    let rss = Report.rss_peak_mb () in
    Array.iteri (fun net _ -> Edit.check_state o ~port:r.port w r.model net) w.nets;
    Edit.durability o r w;
    Report.note "== %s seed=%d: %d timed requests after %d warm-up" name seed
      timed_n warm;
    Report.setups (List.rev !times);
    (* the per-path names of the figures behind op_p50_us and op_p99_us *)
    let show name s v = Report.line ~name ~unit:"us" ~n:(Report.count s) (us v) in
    show "write_p50_us" t.writes (Report.median t.writes);
    show "write_p99_us" t.writes (Report.percentile t.writes 99.0);
    if Report.count t.reads > 0 then
      show "read_p50_us" t.reads (Report.median t.reads);
    finish o end_to_end
      [
        ("op_p50_us", (us (Report.median t.writes), Some (Report.count t.writes)));
        ( "ops_per_s",
          ( float_of_int t.ops /. (Report.total t.writes +. Report.total t.reads),
            Some t.ops ) );
        ("setup_s", (Report.median_of !times, Some setup_rounds));
        ("rss_peak_mb", (rss, None));
      ]
  end
  else begin
    (* pass A: untraced, as the end-to-end run *)
    let r, _ = Edit.setup o ~dir:(dir "a") ~warm ~chunk w in
    let ta = Edit.run_timed ~seconds o r w ~from:warm in
    Edit.teardown o r w;
    (* pass B: the same stream with the benchmark's kernel sink on every
       hosted net, in blocks alternating (in alternating order) with
       pass C, the same requests as direct calls on a second copy of the
       nets, so both halves of the decomposition see the same machine *)
    let eps = Episodes.create () in
    let attach id =
      match Serve.Wstore.find ~id with
      | Some e -> Constraint_kernel.Engine.add_sink (Serve.Wstore.net e) (Episodes.sink eps)
      | None -> ()
    in
    let r, chunks = Edit.setup o ~dir:(dir "b") ~warm ~chunk ~on_create:attach w in
    show_chunks chunks;
    let d = Edit.direct_open ~dir:(dir "c") w in
    for k = 0 to warm - 1 do
      Edit.direct_request o d w k ~timed:false
    done;
    Episodes.reset eps;
    let wk0 = Edit.wakeups w in
    let tb = Edit.timed w in
    Gc.compact ();
    let len = Array.length w.stream in
    let rec blocks lo b =
      if lo < len then begin
        let hi = min len (lo + trace_block) in
        (* paced at the workload's rate, like pass A, so that the two
           passes' latencies compare *)
        let server () =
          let t0 = Report.now () in
          for k = lo to hi - 1 do
            Report.pace ~t0 ~seconds ~n:timed_n (k - lo);
            Edit.send_timed o r w tb k
          done
        and direct () = for k = lo to hi - 1 do Edit.direct_request o d w k ~timed:true done in
        if b mod 2 = 0 then (server (); direct ()) else (direct (); server ());
        blocks hi (b + 1)
      end
    in
    blocks warm 0;
    let wakeups = Edit.wakeups w - wk0 in
    let p = d.Edit.parts in
    Edit.direct_close d;
    Edit.teardown o r w;
    (* pass D: the bare kernel *)
    let alloc_per_step = Edit.kernel_alloc w ~from:warm in
    (* per set request: stream indices of the timed set requests *)
    let sets =
      List.filter
        (fun k -> match w.stream.(k) with Gen.Set _ -> true | Gen.Why _ -> false)
        (List.init timed_n (fun i -> warm + i))
    in
    let items =
      List.fold_left
        (fun acc k ->
          match w.stream.(k) with
          | Gen.Set { items; _ } -> acc + List.length items
          | Gen.Why _ -> acc)
        0 sets
    in
    let sum f = List.fold_left (fun acc k -> acc +. f k) 0.0 sets in
    let nsets = float_of_int (List.length sets) in
    let per_item f = us (sum f /. float_of_int items) in
    let per_set f = us (sum f /. nsets) in
    let request = sum (fun k -> tb.per_req.(k)) in
    let parse_all = Array.fold_left ( +. ) 0.0 (Array.sub p.parse warm timed_n) in
    let values =
      [
        ("op_p99_us", (us (Report.percentile ta.writes 99.0), Some (Report.count ta.writes)));
        ("serve.http.parse_us", (us (parse_all /. float_of_int timed_n), Some timed_n));
        ("serve.admission.admit_us", (per_set (fun k -> p.admit.(k)), Some (List.length sets)));
        ("serve.journal.append_us", (us (Report.mean p.journal), Some (Report.count p.journal)));
        ("serve.alloc_words_per_req", (Report.mean p.alloc, Some (Report.count p.alloc)));
        ("serve.wstore.snapshots", (float_of_int (Report.count p.snapshot), None));
        ("serve.wstore.snapshot_us", (us (Report.mean p.snapshot), Some (Report.count p.snapshot)));
        ("serve.wstore.lookup_us", (per_item (fun k -> p.lookup.(k)), Some items));
        ("serve.wstore.apply_us", (per_item (fun k -> p.apply.(k)), Some items));
        ("serve.request_us", (us (request /. nsets), Some (List.length sets)));
        ( "serve.unexplained_us",
          ( per_set (fun k -> tb.per_req.(k) -. p.parse.(k) -. p.admit.(k) -. p.apply.(k)),
            Some (List.length sets) ) );
        ("obs.provenance.why_us", (us (Report.mean p.why), Some (Report.count p.why)));
        ("core.episode.propagate_us", (Episodes.phase_us eps 0, Some eps.n));
        ("core.episode.drain_us", (Episodes.phase_us eps 1, Some eps.n));
        ("core.episode.check_us", (Episodes.phase_us eps 2, Some eps.n));
        ("core.episode.restore_us", (Episodes.phase_us eps 3, Some eps.rolled_back));
        ("core.steps_per_episode", (Episodes.steps_per_episode eps, Some eps.n));
        ( "core.wakeups_per_episode",
          (Episodes.per_episode eps (float_of_int wakeups), Some eps.n) );
        ("core.alloc_words_per_step", (alloc_per_step, None));
        ("core.rollback_frac", (Episodes.rollback_frac eps, Some eps.n));
        ( "core.request_share",
          (sum (fun k -> p.episode.(k) +. p.lookup.(k)) /. request, Some (List.length sets)) );
        ( "trace.overhead_us",
          (us (Report.median tb.writes -. Report.median ta.writes), Some (Report.count tb.writes)) );
      ]
    in
    Report.write_spans p.spans
      (Filename.concat run_dir (Printf.sprintf "spans-%s-%d.tsv" name seed));
    Report.note "== %s seed=%d traced: %d timed requests after %d warm-up" name
      seed timed_n warm;
    finish o per_layer values
  end

(* ---------------- build_check ---------------- *)

let build_check ~seed ~seconds ~trace =
  let n = designs_per_s * seconds in
  let designs = Build.stream ~seed (designs_warm + n) in
  let o = Report.outcome () in
  let l = Build.layers () in
  let eps = Episodes.create () in
  let attach env =
    Constraint_kernel.Engine.add_sink (Stem.Env.cnet env) (Episodes.sink eps)
  in
  let run ?on_env i =
    let cfg = designs.(i) in
    o.attempted <- o.attempted + 1;
    let t0 = Report.now () in
    let r = Build.design ?on_env cfg l in
    let dt = Report.now () -. t0 in
    (match r with
    | Ok () -> ()
    | Error msg ->
      Report.fail o "design %d (rc%d cs%d acc%g): %s" i cfg.rbits cfg.csbits
        cfg.acc_spec msg);
    dt
  in
  let setup () =
    let t0 = Report.now () in
    for i = 0 to designs_warm - 1 do
      ignore (run i)
    done;
    Report.now () -. t0
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  if not trace then begin
    let times = List.init setup_rounds (fun _ -> setup ()) in
    Gc.compact ();
    let s = Report.sample () in
    let t0 = Report.now () in
    for j = 0 to n - 1 do
      Report.pace ~t0 ~seconds ~n j;
      Report.add s (run (designs_warm + j))
    done;
    let values =
      [
        ("op_p50_us", (us (Report.median s), Some (Report.count s)));
        (* designs per second of build-and-check time, pacing excluded *)
        ("ops_per_s", (float_of_int n /. Report.total s, Some n));
        ("setup_s", (Report.median_of times, Some setup_rounds));
        ("rss_peak_mb", (Report.rss_peak_mb (), None));
      ]
    in
    Report.note "== build_check seed=%d: %d timed designs after %d x %d warm-up"
      seed n setup_rounds designs_warm;
    Report.setups times;
    Report.line ~name:"design_p50_ms" ~unit:"ms" ~n:(Report.count s)
      (Report.median s *. 1e3);
    finish o end_to_end values
  end
  else begin
    (* Odd designs run with the kernel sink and count toward the layers,
       even ones without: both halves see the same heap growth, so the
       difference of their medians is the tracing overhead. *)
    ignore (setup ());
    Gc.compact ();
    let plain = Report.sample () and traced = Report.sample () in
    let acc = Array.make 7 0.0 in
    let live0 = live () in
    let t0 = Report.now () in
    for j = 0 to n - 1 do
      Report.pace ~t0 ~seconds ~n j;
      let i = designs_warm + j in
      if i mod 2 = 0 then Report.add plain (run i)
      else begin
        Report.add traced (run ~on_env:attach i);
        acc.(0) <- acc.(0) +. l.build;
        acc.(1) <- acc.(1) +. l.delay;
        acc.(2) <- acc.(2) +. l.check;
        acc.(3) <- acc.(3) +. l.select;
        acc.(4) <- acc.(4) +. float_of_int l.examined;
        acc.(5) <- acc.(5) +. float_of_int l.cstrs;
        acc.(6) <- acc.(6) +. float_of_int l.wakeups
      end
    done;
    let live1 = live () in
    let nt = Report.count traced in
    let per x = x /. float_of_int nt in
    let c = Some nt in
    let values =
      [
        ("op_p99_us", (us (Report.percentile plain 99.0), Some (Report.count plain)));
        ("cell_library.build_ms", (per acc.(0) *. 1e3, c));
        ("delay.delay_ms", (per acc.(1) *. 1e3, c));
        ("checking.check_ms", (per acc.(2) *. 1e3, c));
        ("checking.examined", (per acc.(4), c));
        ("selection.select_ms", (per acc.(3) *. 1e3, c));
        (* the selection stats accumulate over every design run *)
        ( "selection.candidates_tested",
          (float_of_int l.sel.candidates_tested /. float_of_int o.attempted, c) );
        ( "selection.subtrees_pruned",
          (float_of_int l.sel.subtrees_pruned /. float_of_int o.attempted, c) );
        ("stem.cstrs_per_design", (per acc.(5), c));
        ( "stem.heap_growth_kw_per_design",
          (float_of_int (live1 - live0) /. float_of_int n /. 1e3, Some n) );
        ("core.episode.propagate_us", (Episodes.phase_us eps 0, Some eps.n));
        ("core.episode.drain_us", (Episodes.phase_us eps 1, Some eps.n));
        ("core.episode.check_us", (Episodes.phase_us eps 2, Some eps.n));
        ("core.episode.restore_us", (Episodes.phase_us eps 3, Some eps.rolled_back));
        ("core.steps_per_episode", (Episodes.steps_per_episode eps, Some eps.n));
        ("core.wakeups_per_episode", (Episodes.per_episode eps acc.(6), Some eps.n));
        ("core.alloc_words_per_step", (Episodes.words_per_step eps, Some eps.steps));
        ("core.rollback_frac", (Episodes.rollback_frac eps, Some eps.n));
        ( "trace.overhead_us",
          (us (Report.median traced -. Report.median plain), c) );
      ]
    in
    Report.note "== build_check seed=%d traced: %d designs, %d with the sink" seed
      n nt;
    finish o per_layer values
  end

(* ---------------- command line ---------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "edit_small|edit_deep|build_check");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S run length (scales operation counts)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let trace = !trace = 1 in
  (* The traced run replays the first half of the seed's stream: its
     passes run the stream several times over, and its figures are per
     operation, so half the length keeps it near the untraced run's wall
     time. *)
  let seconds = if trace then max 1 (!seconds / 2) else !seconds in
  match !workload with
  | ("edit_small" | "edit_deep") as name ->
    edit ~name ~seed:!seed ~seconds ~trace
  | "build_check" -> build_check ~seed:!seed ~seconds ~trace
  | w ->
    Printf.eprintf "perfbench: unknown workload %S\n" w;
    exit 2
