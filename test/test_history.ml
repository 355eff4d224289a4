(* The long-horizon telemetry store: Gorilla block codec round-trips
   (bit-exact values, millisecond timestamps), segment rotation and
   size-based retention, torn-tail crash recovery, query/downsampling,
   SLO burn-rate evaluation over stored series, and the board's
   window-tick sampling into a store. *)

let tmpdir () =
  let d = Filename.temp_file "stem-tsdb" ".d" in
  Sys.remove d;
  Sys.mkdir d 0o700;
  d

let rm_rf d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Sys.rmdir d
  end

let with_dir f =
  let d = tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

(* timestamps quantize to milliseconds: build them the way the decoder
   rebuilds them so equality is exact *)
let t_of_ms ms = Int64.to_float (Int64.of_int ms) /. 1000.

let check_points msg expected got =
  Alcotest.(check int) (msg ^ ": count") (Array.length expected) (Array.length got);
  Array.iteri
    (fun i (et, ev) ->
      let gt, gv = got.(i) in
      Alcotest.(check (float 0.)) (Printf.sprintf "%s: t[%d]" msg i) et gt;
      Alcotest.(check int64)
        (Printf.sprintf "%s: v[%d] bits" msg i)
        (Int64.bits_of_float ev) (Int64.bits_of_float gv))
    expected

(* ---------------- block codec ---------------- *)

let test_codec_basic () =
  let pts =
    [|
      (t_of_ms 1000, 1.5);
      (t_of_ms 2000, 1.5);
      (t_of_ms 3000, 2.25);
      (t_of_ms 4013, -7.125);
      (t_of_ms 4013, nan);
      (t_of_ms 9_000_000, infinity);
      (t_of_ms 9_000_001, neg_infinity);
      (t_of_ms 9_000_500, 0.);
      (t_of_ms 9_001_000, -0.);
      (t_of_ms 9_001_001, max_float);
      (t_of_ms 9_001_002, min_float);
      (t_of_ms 9_001_003, epsilon_float);
    |]
  in
  let payload = Obs.Tsdb.encode_block ~series:"s" pts in
  let series, got = Obs.Tsdb.decode_block payload in
  Alcotest.(check string) "series name" "s" series;
  check_points "specials" pts got

let test_codec_single_and_empty () =
  let pts = [| (t_of_ms 123456, 42.0) |] in
  let _, got = Obs.Tsdb.decode_block (Obs.Tsdb.encode_block ~series:"one" pts) in
  check_points "single point" pts got;
  Alcotest.check_raises "empty block refused"
    (Invalid_argument "Tsdb.encode_block: empty block") (fun () ->
      ignore (Obs.Tsdb.encode_block ~series:"x" [||]))

let test_codec_compresses_regular_series () =
  (* the workload history sampling actually produces: regular cadence,
     slowly moving counter — must beat 8x vs 16 bytes/point *)
  let n = 240 in
  let pts =
    Array.init n (fun i -> (t_of_ms (1000 * i), float_of_int (100 + i)))
  in
  let payload = Obs.Tsdb.encode_block ~series:"c" pts in
  let raw = 16 * n in
  let ratio = float_of_int raw /. float_of_int (String.length payload) in
  if ratio < 8.0 then
    Alcotest.failf "compression ratio %.1fx < 8x (%d bytes for %d points)"
      ratio (String.length payload) raw

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"tsdb block codec round-trips bit-exactly" ~count:300
    QCheck.(
      pair
        (pair (int_range 0 1_000_000_000) small_string)
        (list_of_size Gen.(int_range 1 300) (pair (int_range (-2_000_000) 2_000_000) float)))
    (fun ((start_ms, name), deltas) ->
      let series = "s." ^ name in
      let t = ref start_ms in
      let pts =
        Array.of_list
          (List.map
             (fun (dms, v) ->
               t := max 0 (!t + dms);
               (t_of_ms !t, v))
             deltas)
      in
      let payload = Obs.Tsdb.encode_block ~series pts in
      let got_series, got = Obs.Tsdb.decode_block payload in
      got_series = series
      && Array.length got = Array.length pts
      && Array.for_all2
           (fun (et, ev) (gt, gv) ->
             et = gt && Int64.bits_of_float ev = Int64.bits_of_float gv)
           pts got)

(* ---------------- store: append, seal, query ---------------- *)

let test_store_query_and_downsample () =
  with_dir (fun d ->
      let ts = Obs.Tsdb.open_ ~points_per_block:16 d in
      for i = 0 to 99 do
        Obs.Tsdb.append ts ~series:"m" ~t:(t_of_ms (1000 * i))
          ~v:(float_of_int i)
      done;
      (* 100 points: 6 sealed blocks of 16, 4 still open — both sides
         of the seal must answer *)
      let pts = Obs.Tsdb.query ts ~series:"m" ~from_:0. ~to_:1e9 in
      Alcotest.(check int) "all points" 100 (List.length pts);
      let pts = Obs.Tsdb.query ts ~series:"m" ~from_:10. ~to_:19.5 in
      Alcotest.(check int) "range filters" 10 (List.length pts);
      Alcotest.(check (float 0.)) "first in range" 10. (fst (List.hd pts));
      let buckets =
        Obs.Tsdb.query_range ts ~series:"m" ~from_:0. ~to_:99. ~step:10.
      in
      Alcotest.(check int) "10s buckets" 10 (List.length buckets);
      let b0 = List.hd buckets in
      Alcotest.(check (float 0.)) "bucket min" 0. b0.Obs.Tsdb.bk_min;
      Alcotest.(check (float 0.)) "bucket max" 9. b0.Obs.Tsdb.bk_max;
      Alcotest.(check (float 1e-9)) "bucket avg" 4.5 b0.Obs.Tsdb.bk_avg;
      Alcotest.(check int) "bucket count" 10 b0.Obs.Tsdb.bk_count;
      (match Obs.Tsdb.series ts with
      | [ (name, n, first, last) ] ->
        Alcotest.(check string) "series name" "m" name;
        Alcotest.(check int) "series points" 100 n;
        Alcotest.(check (float 0.)) "series first" 0. first;
        Alcotest.(check (float 0.)) "series last" 99. last
      | l -> Alcotest.failf "expected one series, got %d" (List.length l));
      Obs.Tsdb.close ts)

let test_store_reopen_after_close () =
  with_dir (fun d ->
      let ts = Obs.Tsdb.open_ ~points_per_block:8 d in
      for i = 0 to 19 do
        Obs.Tsdb.append ts ~series:"a" ~t:(float_of_int i) ~v:(float_of_int i)
      done;
      (* close seals the open 4-point block too *)
      Obs.Tsdb.close ts;
      let ts = Obs.Tsdb.open_ d in
      Alcotest.(check (list string)) "clean reopen has no warnings" []
        (Obs.Tsdb.recovery_warnings ts);
      let pts = Obs.Tsdb.query ts ~series:"a" ~from_:0. ~to_:100. in
      Alcotest.(check int) "all points survive close/reopen" 20
        (List.length pts);
      (* appends resume in the same segment *)
      Obs.Tsdb.append ts ~series:"a" ~t:20. ~v:20.;
      Obs.Tsdb.flush ts;
      Alcotest.(check int) "one segment still" 1
        (List.length (Obs.Tsdb.segments ts));
      Obs.Tsdb.close ts)

let test_store_rotation_and_retention () =
  with_dir (fun d ->
      (* tiny bounds: 4 KiB segments, 8 KiB total.  Random-ish values
         compress poorly, so blocks are fat and rotation is quick. *)
      let ts =
        Obs.Tsdb.open_ ~seg_bytes:4096 ~retain_bytes:8192 ~points_per_block:64
          d
      in
      for i = 0 to 4999 do
        Obs.Tsdb.append ts ~series:"r" ~t:(float_of_int i)
          ~v:(sin (float_of_int i) *. 1e6)
      done;
      Obs.Tsdb.flush ts;
      let segs = Obs.Tsdb.segments ts in
      let st = Obs.Tsdb.stats ts in
      if List.length segs < 1 || st.Obs.Tsdb.st_disk_bytes > 8192 + 4096 then
        Alcotest.failf "retention did not bound the store: %d segs, %d bytes"
          (List.length segs) st.Obs.Tsdb.st_disk_bytes;
      (* deleted segments are really gone from disk *)
      let on_disk =
        Sys.readdir d |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".tsdb")
      in
      Alcotest.(check int) "disk files = live segments" (List.length segs)
        (List.length on_disk);
      (* old points evicted, recent points retained *)
      let recent = Obs.Tsdb.query ts ~series:"r" ~from_:4900. ~to_:5000. in
      Alcotest.(check int) "recent points survive" 100 (List.length recent);
      let oldest = Obs.Tsdb.query ts ~series:"r" ~from_:0. ~to_:100. in
      Alcotest.(check int) "oldest points evicted" 0 (List.length oldest);
      Obs.Tsdb.close ts)

let test_store_compression_ratio () =
  with_dir (fun d ->
      let ts = Obs.Tsdb.open_ ~points_per_block:240 d in
      (* the smoke workload shape: a handful of counters/gauges sampled
         on a regular tick *)
      for i = 0 to 999 do
        let t = t_of_ms (250 * i) in
        Obs.Tsdb.append ts ~series:"requests" ~t ~v:(float_of_int (17 * i));
        Obs.Tsdb.append ts ~series:"heap" ~t ~v:(float_of_int (100000 + (i mod 7)));
        Obs.Tsdb.append ts ~series:"p99" ~t ~v:125.;
        Obs.Tsdb.append ts ~series:"episode_rate" ~t ~v:50.
      done;
      Obs.Tsdb.flush ts;
      let st = Obs.Tsdb.stats ts in
      if st.Obs.Tsdb.st_ratio < 8.0 then
        Alcotest.failf "store compression %.1fx < 8x (%d points, %d bytes)"
          st.Obs.Tsdb.st_ratio st.Obs.Tsdb.st_sealed_points
          st.Obs.Tsdb.st_sealed_bytes;
      Obs.Tsdb.close ts)

(* ---------------- crash recovery ---------------- *)

let truncate_file path bytes =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  Unix.ftruncate fd (max 0 (size - bytes));
  Unix.close fd

let test_torn_tail_recovery () =
  with_dir (fun d ->
      let ts = Obs.Tsdb.open_ ~points_per_block:10 d in
      for i = 0 to 49 do
        Obs.Tsdb.append ts ~series:"x" ~t:(float_of_int i) ~v:(float_of_int i)
      done;
      Obs.Tsdb.close ts;
      let seg =
        match Obs.Tsdb.segments ts with [ s ] -> s | _ -> Alcotest.fail "one segment expected"
      in
      (* kill -9 mid-append: the last block's frame is half-written *)
      truncate_file seg 7;
      let ts = Obs.Tsdb.open_ ~points_per_block:10 d in
      (match Obs.Tsdb.recovery_warnings ts with
      | [] -> Alcotest.fail "expected a torn-record warning"
      | w :: _ ->
        if not (String.length w > 0) then Alcotest.fail "empty warning");
      let pts = Obs.Tsdb.query ts ~series:"x" ~from_:0. ~to_:100. in
      Alcotest.(check int) "fully-framed blocks survive the tear" 40
        (List.length pts);
      (* appends after recovery land after the truncated tail and are
         readable on the next open *)
      for i = 50 to 59 do
        Obs.Tsdb.append ts ~series:"x" ~t:(float_of_int i) ~v:(float_of_int i)
      done;
      Obs.Tsdb.close ts;
      let ts = Obs.Tsdb.open_ d in
      Alcotest.(check (list string)) "second reopen is clean" []
        (Obs.Tsdb.recovery_warnings ts);
      let pts = Obs.Tsdb.query ts ~series:"x" ~from_:0. ~to_:100. in
      Alcotest.(check int) "old + post-recovery points" 50 (List.length pts);
      Obs.Tsdb.close ts)

(* A failed segment fsync is raised, never swallowed.  On Linux fsync
   on a character device fails with EINVAL; here the active segment is
   a symlink to /dev/null.  A failed close still releases the segment
   and closes the store. *)
let test_sync_failure_raises () =
  with_dir (fun d ->
      Unix.symlink "/dev/null" (Filename.concat d "seg-00000000.tsdb");
      let fds () = Array.length (Sys.readdir "/proc/self/fd") in
      let before = fds () in
      let ts = Obs.Tsdb.open_ d in
      Obs.Tsdb.append ts ~series:"s" ~t:1. ~v:1.;
      let raises what f =
        match f () with
        | () -> Alcotest.failf "%s: the failed fsync was swallowed" what
        | exception Unix.Unix_error (Unix.EINVAL, "fsync", _) -> ()
      in
      raises "flush" (fun () -> Obs.Tsdb.flush ts);
      Alcotest.(check int) "segment open after the flush" (before + 1) (fds ());
      raises "close" (fun () -> Obs.Tsdb.close ts);
      Alcotest.(check int) "segment released" before (fds ());
      Obs.Tsdb.close ts;
      Alcotest.check_raises "store closed"
        (Invalid_argument "Tsdb.append: closed store") (fun () ->
          Obs.Tsdb.append ts ~series:"s" ~t:2. ~v:2.))

let test_corrupt_block_skipped () =
  with_dir (fun d ->
      let ts = Obs.Tsdb.open_ ~points_per_block:10 d in
      for i = 0 to 29 do
        Obs.Tsdb.append ts ~series:"y" ~t:(float_of_int i) ~v:1.0
      done;
      Obs.Tsdb.close ts;
      let seg =
        match Obs.Tsdb.segments ts with [ s ] -> s | _ -> Alcotest.fail "one segment expected"
      in
      (* flip one payload byte in the middle of the file: that block's
         CRC fails, the other blocks still read *)
      let fd = Unix.openfile seg [ Unix.O_RDWR ] 0o644 in
      let size = (Unix.fstat fd).Unix.st_size in
      ignore (Unix.lseek fd (size / 2) Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.make 1 '\xff') 0 1);
      Unix.close fd;
      let ts = Obs.Tsdb.open_ d in
      if Obs.Tsdb.recovery_warnings ts = [] then
        Alcotest.fail "expected a CRC warning";
      let pts = Obs.Tsdb.query ts ~series:"y" ~from_:0. ~to_:100. in
      Alcotest.(check int) "two of three blocks survive a bit flip" 20
        (List.length pts);
      Obs.Tsdb.close ts)

(* ---------------- SLOs ---------------- *)

let test_slo_burn_rate_fires_and_clears () =
  with_dir (fun d ->
      let ts = Obs.Tsdb.open_ d in
      (* 10 req/s, zero errors for 5 min; then 50% errors for the last
         minute: fast window burns hard, slow window above 1x *)
      for i = 0 to 299 do
        let t = float_of_int i in
        Obs.Tsdb.append ts ~series:"tenant.acme.requests" ~t
          ~v:(10. *. float_of_int i);
        Obs.Tsdb.append ts ~series:"tenant.acme.rejected" ~t
          ~v:(if i < 240 then 0. else 5. *. float_of_int (i - 240))
      done;
      let ob =
        Obs.Slo.availability ~target:0.99
          ~windows:[ (60., 2.0); (300., 1.0) ]
          ~name:"acme" ~total:"tenant.acme.requests"
          ~errors:"tenant.acme.rejected" ()
      in
      let slo = Obs.Slo.create ts ob in
      Fun.protect
        ~finally:(fun () -> Obs.Tsdb.close ts)
        (fun () ->
          let now = 299. in
          (match Obs.Slo.burn_rates slo ~now with
          | [ (60., 2.0, Some fast); (300., 1.0, Some slow) ] ->
            if fast < 2.0 then Alcotest.failf "fast burn %.1f < 2" fast;
            if slow < 1.0 then Alcotest.failf "slow burn %.2f < 1" slow
          | _ -> Alcotest.fail "unexpected burn_rates shape");
          Obs.Slo.evaluate slo ~now;
          Alcotest.(check bool) "objective firing" true (Obs.Slo.firing slo);
          let wd = Obs.Slo.watchdog slo in
          Alcotest.(check bool) "its watchdog fires" false (Obs.Watchdog.ok wd);
          Alcotest.(check string) "named slo:acme" "slo:acme"
            (Obs.Watchdog.name wd);
          (* errors stop; both windows drain once `now` moves past them *)
          for i = 300 to 999 do
            let t = float_of_int i in
            Obs.Tsdb.append ts ~series:"tenant.acme.requests" ~t
              ~v:(10. *. float_of_int i);
            Obs.Tsdb.append ts ~series:"tenant.acme.rejected" ~t ~v:300.
          done;
          Obs.Slo.evaluate slo ~now:999.;
          Alcotest.(check bool) "objective cleared" false (Obs.Slo.firing slo);
          (* firing + cleared = two logged transitions, JSON-renderable *)
          Alcotest.(check int) "two transitions logged" 2
            (List.length (Obs.Watchdog.alerts wd))))

let test_slo_latency_kind () =
  with_dir (fun d ->
      let ts = Obs.Tsdb.open_ d in
      for i = 0 to 99 do
        Obs.Tsdb.append ts ~series:"net.window.p99_us" ~t:(float_of_int i)
          ~v:(if i >= 80 then 5000. else 100.)
      done;
      let ob =
        Obs.Slo.latency ~target:0.9 ~windows:[ (50., 1.0) ] ~name:"lat"
          ~series:"net.window.p99_us" ~limit:1000. ()
      in
      let slo = Obs.Slo.create ts ob in
      Fun.protect
        ~finally:(fun () -> Obs.Tsdb.close ts)
        (fun () ->
          (* 20 of the last 50 samples above the limit: bad fraction
             0.4, budget 0.1 -> burn 4x *)
          match Obs.Slo.burn_rates slo ~now:99. with
          | [ (_, _, Some burn) ] ->
            if burn < 3.9 || burn > 4.1 then
              Alcotest.failf "latency burn %.2f, expected ~4" burn
          | _ -> Alcotest.fail "one window expected"))

(* Ticks at sub-millisecond offsets: each sample is stored at the
   rounded millisecond, after the unrounded tick time.  The window must
   still end at the sample appended on the same tick, so the objective
   fires on the first burning tick, not the next. *)
let test_slo_fires_on_first_burning_tick () =
  with_dir (fun d ->
      let ts = Obs.Tsdb.open_ d in
      let ob =
        Obs.Slo.availability ~target:0.99 ~windows:[ (10., 1.0) ] ~name:"tick"
          ~total:"t.requests" ~errors:"t.rejected" ()
      in
      let slo = Obs.Slo.create ts ob in
      Fun.protect
        ~finally:(fun () -> Obs.Tsdb.close ts)
        (fun () ->
          let last = 20 in
          for i = 0 to last do
            let now = 1000. +. float_of_int i +. 0.0006 in
            Obs.Tsdb.append ts ~series:"t.requests" ~t:now
              ~v:(10. *. float_of_int i);
            Obs.Tsdb.append ts ~series:"t.rejected" ~t:now
              ~v:(if i < last then 0. else 5.);
            Obs.Slo.evaluate slo ~now;
            Alcotest.(check bool)
              (Printf.sprintf "tick %d firing" i)
              (i = last) (Obs.Slo.firing slo)
          done))

(* No data is not the same as no errors: the first reads "burn": null,
   the second "burn": 0, and neither fires. *)
let test_slo_no_data_is_null () =
  with_dir (fun d ->
      let ts = Obs.Tsdb.open_ d in
      let ob =
        Obs.Slo.availability ~target:0.99 ~windows:[ (10., 1.0) ] ~name:"quiet"
          ~total:"q.requests" ~errors:"q.rejected" ()
      in
      let slo = Obs.Slo.create ts ob in
      Fun.protect
        ~finally:(fun () -> Obs.Tsdb.close ts)
        (fun () ->
          let burn_json now =
            Obs.Jsonl.to_string (Obs.Answer.slos [ slo ] ~now)
          in
          Alcotest.(check bool) "no samples: no burn" true
            (Obs.Slo.burn_rates slo ~now:5. = [ (10., 1.0, None) ]);
          Alcotest.(check bool) "rendered as null" true
            (Astring_contains.contains (burn_json 5.) "\"burn\":null");
          for i = 0 to 5 do
            Obs.Tsdb.append ts ~series:"q.requests" ~t:(float_of_int i)
              ~v:(10. *. float_of_int i)
          done;
          Alcotest.(check bool) "traffic, no errors: burn 0" true
            (Obs.Slo.burn_rates slo ~now:5. = [ (10., 1.0, Some 0.) ]);
          Alcotest.(check bool) "rendered as 0" true
            (Astring_contains.contains (burn_json 5.) "\"burn\":0");
          Obs.Slo.evaluate slo ~now:5.;
          Alcotest.(check bool) "not firing" false (Obs.Slo.firing slo)))

(* ---------------- board sampling ---------------- *)

let span ?(id = 0) ~us () =
  Constraint_kernel.Types.
    {
      es_id = id;
      es_label = "set";
      es_outcome = E_committed;
      es_timings =
        { ph_propagate = us /. 1e6; ph_drain = 0.; ph_check = 0.; ph_restore = 0. };
      es_steps = 3;
      es_agenda_hwm = 1;
    }

let test_board_samples_on_window_tick () =
  with_dir (fun d ->
      let ts = Obs.Tsdb.open_ d in
      let board =
        Obs.Board.attach ~window_width:(Obs.Window.Episodes 2)
          (Constraint_kernel.Engine.create_network ~name:"net1" ())
      in
      Obs.Board.set_history ~prefix:"net1" board (Some ts);
      Alcotest.(check bool) "history wired" true
        (Obs.Board.history board <> None);
      let w = Obs.Board.window board in
      for i = 1 to 6 do
        Obs.Window.observe_span w (span ~id:i ~us:100. ())
      done;
      (* 3 rotations: every instrument sampled 3 times, prefixed *)
      let rows = Obs.Tsdb.series ts in
      let find name =
        List.find_opt (fun (n, _, _, _) -> n = name) rows
      in
      (match find "net1.window.episodes" with
      | Some (_, n, _, _) -> Alcotest.(check int) "3 window ticks" 3 n
      | None -> Alcotest.fail "net1.window.episodes not sampled");
      (match find "net1.runtime.gc.heap_words" with
      | Some _ -> ()
      | None -> Alcotest.fail "gc gauges not sampled");
      (match find "net1.runtime.uptime_seconds" with
      | Some _ -> ()
      | None -> Alcotest.fail "uptime gauge not sampled");
      (* detach: ticks stop feeding the store *)
      Obs.Board.set_history board None;
      for i = 7 to 10 do
        Obs.Window.observe_span w (span ~id:i ~us:100. ())
      done;
      (match List.find_opt (fun (n, _, _, _) -> n = "net1.window.episodes") (Obs.Tsdb.series ts) with
      | Some (_, n, _, _) -> Alcotest.(check int) "no samples after unset" 3 n
      | None -> Alcotest.fail "series vanished");
      Obs.Tsdb.close ts)

(* ---------------- the server: /series, /query, /slo, HEAD ---------------- *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let get_ok port path =
  match Serve.Client.get ~port path with
  | Ok r -> r
  | Error e -> Alcotest.failf "GET %s: %s" path e

let test_serve_history_endpoints () =
  with_dir (fun d ->
      let open Constraint_kernel in
      let net = Engine.create_network ~name:"hist-live" () in
      let v =
        Var.create net ~owner:"s" ~name:"a" ~equal:Int.equal ~pp:Fmt.int ()
      in
      let board = Obs.Board.attach ~window_width:(Obs.Window.Episodes 2) net in
      Serve.expose ~board net;
      let ts = Obs.Tsdb.open_ d in
      let ad = Serve.Admission.create () in
      let sv = Serve.start ~port:0 ~admission:ad ~history:ts () in
      Fun.protect
        ~finally:(fun () ->
          Serve.stop sv;
          Obs.Tsdb.close ts;
          ignore (Serve.unexpose "hist-live");
          Obs.Board.detach net)
        (fun () ->
          let port = Serve.port sv in
          (* window rotations sample the board's instruments *)
          for i = 1 to 8 do
            ignore (Engine.set net v i)
          done;
          (* one admitted tenant so the tick creates its SLO *)
          (match Serve.Admission.admit ad ~tenant:"acme" with
          | Serve.Admission.Admitted tk ->
            Serve.Admission.finish ad tk ~over_budget:false
          | _ -> Alcotest.fail "tenant not admitted");
          Serve.history_tick sv;
          Serve.history_tick sv;
          Obs.Tsdb.flush ts;
          let series = get_ok port "/series" in
          Alcotest.(check int) "series 200" 200 series.Serve.Client.rs_status;
          Alcotest.(check bool) "board series stored, prefixed" true
            (contains ~sub:"hist-live.window.episodes"
               series.Serve.Client.rs_body);
          Alcotest.(check bool) "tenant counters stored" true
            (contains ~sub:"serve.tenant.acme.requests"
               series.Serve.Client.rs_body);
          let q =
            get_ok port "/query?metric=hist-live.window.episodes&from=0&to=4e9"
          in
          Alcotest.(check int) "query 200" 200 q.Serve.Client.rs_status;
          Alcotest.(check bool) "query returns points" true
            (contains ~sub:"\"points\":[[" q.Serve.Client.rs_body);
          let q =
            get_ok port
              "/query?metric=hist-live.window.episodes&from=0&to=4e9&step=1e9"
          in
          Alcotest.(check bool) "step returns buckets" true
            (contains ~sub:"\"buckets\":[{" q.Serve.Client.rs_body);
          Alcotest.(check int) "missing metric is 422" 422
            (get_ok port "/query").Serve.Client.rs_status;
          Alcotest.(check int) "bad step is 422" 422
            (get_ok port "/query?metric=x&step=-1").Serve.Client.rs_status;
          let slo = get_ok port "/slo" in
          Alcotest.(check bool) "slo lists the tenant objective" true
            (contains ~sub:"tenant-acme" slo.Serve.Client.rs_body);
          Alcotest.(check bool) "healthy tenant not firing" true
            (contains ~sub:"\"firing\":false" slo.Serve.Client.rs_body);
          (* HEAD answers every GET route: headers + content-length,
             no body *)
          let head path =
            match Serve.Client.request ~meth:"HEAD" ~port path with
            | Ok r -> r
            | Error e -> Alcotest.failf "HEAD %s: %s" path e
          in
          let h = head "/metrics" in
          Alcotest.(check int) "HEAD /metrics 200" 200 h.Serve.Client.rs_status;
          Alcotest.(check string) "HEAD has no body" ""
            h.Serve.Client.rs_body;
          (match List.assoc_opt "content-length" h.Serve.Client.rs_headers with
          | Some n when int_of_string n > 0 -> ()
          | _ -> Alcotest.fail "HEAD carries the GET's content-length");
          Alcotest.(check int) "HEAD unknown path is 404" 404
            (head "/nothing").Serve.Client.rs_status;
          Alcotest.(check int) "HEAD on a POST-only route is 405" 405
            (head "/nets/x/set").Serve.Client.rs_status);
      (* closing the store sealed and fsynced it; an offline reader
         (stem report) sees the full series *)
      let ts = Obs.Tsdb.open_ d in
      Alcotest.(check (list string)) "offline reopen is clean" []
        (Obs.Tsdb.recovery_warnings ts);
      Alcotest.(check bool) "offline reader sees the serve series" true
        (List.exists
           (fun (n, _, _, _) -> n = "serve.requests")
           (Obs.Tsdb.series ts));
      Obs.Tsdb.close ts)

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Obs.Tsdb.sparkline []);
  Alcotest.(check string) "flat" "▄▄▄" (Obs.Tsdb.sparkline [ 5.; 5.; 5. ]);
  let s = Obs.Tsdb.sparkline [ 0.; 1.; 2.; 3.; 4.; 5.; 6.; 7. ] in
  Alcotest.(check string) "ramp" "▁▂▃▄▅▆▇█" s;
  Alcotest.(check string) "nan gap" "▁ █" (Obs.Tsdb.sparkline [ 0.; nan; 1. ])

let suite =
  ( "history",
    [
      Alcotest.test_case "codec: specials round-trip" `Quick test_codec_basic;
      Alcotest.test_case "codec: single point / empty" `Quick
        test_codec_single_and_empty;
      Alcotest.test_case "codec: regular series compress 8x" `Quick
        test_codec_compresses_regular_series;
      QCheck_alcotest.to_alcotest prop_codec_roundtrip;
      Alcotest.test_case "store: query + downsample" `Quick
        test_store_query_and_downsample;
      Alcotest.test_case "store: close/reopen" `Quick
        test_store_reopen_after_close;
      Alcotest.test_case "store: rotation + retention" `Quick
        test_store_rotation_and_retention;
      Alcotest.test_case "store: compression ratio" `Quick
        test_store_compression_ratio;
      Alcotest.test_case "recovery: torn tail" `Quick test_torn_tail_recovery;
      Alcotest.test_case "recovery: corrupt block skipped" `Quick
        test_corrupt_block_skipped;
      Alcotest.test_case "durability: fsync failure raises" `Quick
        test_sync_failure_raises;
      Alcotest.test_case "slo: burn rate fires and clears" `Quick
        test_slo_burn_rate_fires_and_clears;
      Alcotest.test_case "slo: latency objective" `Quick test_slo_latency_kind;
      Alcotest.test_case "slo: fires on the first burning tick" `Quick
        test_slo_fires_on_first_burning_tick;
      Alcotest.test_case "slo: no data is null, not 0" `Quick
        test_slo_no_data_is_null;
      Alcotest.test_case "board: samples on window tick" `Quick
        test_board_samples_on_window_tick;
      Alcotest.test_case "serve: /series /query /slo + HEAD" `Quick
        test_serve_history_endpoints;
      Alcotest.test_case "sparkline rendering" `Quick test_sparkline;
    ] )
