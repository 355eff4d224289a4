(* The write side: journal framing against every crash shape a reader
   must tolerate (torn tail, CRC corruption, framing corruption),
   snapshot+journal recovery with the diff_live differential check,
   the admission ladder under an injected clock, the HTTP write API
   end-to-end over real sockets, and the client's total response
   deadline.  The central acceptance property lives here: recovery
   from a byte-level copy of the data directory — exactly what
   [kill -9] leaves behind under [fsync Always] — reproduces the last
   acknowledged state bit-identically. *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let tmpdir () =
  let d = Filename.temp_file "stem-durable" ".d" in
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

let read_file p = In_channel.with_open_bin p In_channel.input_all

let write_file p s =
  Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc s)

let append_raw p s =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 p in
  output_string oc s;
  close_out oc

let cp src dst = write_file dst (read_file src)

(* ---------------- journal framing ---------------- *)

let test_journal_roundtrip () =
  with_dir (fun d ->
      let p = Filename.concat d "j.jnl" in
      let j, warns = Serve.Journal.open_append ~fsync:Serve.Journal.Never p in
      Alcotest.(check int) "fresh journal scans clean" 0 (List.length warns);
      Serve.Journal.append j "{\"a\":1}";
      Serve.Journal.append j "{\"b\":2}";
      Serve.Journal.append j "{\"c\":3}";
      (* larger than one channel buffer: the read takes several chunks *)
      let big = Printf.sprintf "{\"d\":\"%s\"}" (String.make 200_000 'x') in
      Serve.Journal.append j big;
      Alcotest.(check int) "appended counted" 4 (Serve.Journal.appended j);
      Serve.Journal.close j;
      let records, warns = Serve.Journal.read p in
      Alcotest.(check (list string))
        "payloads back in order"
        [ "{\"a\":1}"; "{\"b\":2}"; "{\"c\":3}"; big ]
        records;
      Alcotest.(check int) "no warnings" 0 (List.length warns))

let test_journal_missing_and_empty () =
  with_dir (fun d ->
      let records, warns = Serve.Journal.read (Filename.concat d "absent") in
      Alcotest.(check int) "missing file = empty journal" 0
        (List.length records);
      Alcotest.(check int) "no warnings on missing" 0 (List.length warns);
      let p = Filename.concat d "empty.jnl" in
      write_file p "";
      let records, warns = Serve.Journal.read p in
      Alcotest.(check int) "empty file = empty journal" 0 (List.length records);
      Alcotest.(check int) "no warnings on empty" 0 (List.length warns);
      (* a read takes at most the size stat reports: a device that never
         ends reads as empty at once instead of filling memory *)
      Alcotest.(check string) "/dev/zero reads empty" ""
        (Obs.Framing.read_file "/dev/zero");
      let records, warns = Serve.Journal.read "/dev/zero" in
      Alcotest.(check int) "/dev/zero = empty journal" 0 (List.length records);
      Alcotest.(check int) "no warnings on /dev/zero" 0 (List.length warns))

let test_journal_torn_tail () =
  with_dir (fun d ->
      let p = Filename.concat d "j.jnl" in
      write_file p
        (Serve.Journal.frame "{\"a\":1}" ^ Serve.Journal.frame "{\"b\":2}"
        ^ String.sub (Serve.Journal.frame "{\"torn\":true}") 0 6);
      let records, warns = Serve.Journal.read p in
      Alcotest.(check (list string))
        "intact records survive" [ "{\"a\":1}"; "{\"b\":2}" ] records;
      (match warns with
      | [ (n, msg) ] ->
        Alcotest.(check int) "warning names record 3" 3 n;
        Alcotest.(check bool) "warning says torn" true
          (contains ~sub:"torn" msg)
      | w -> Alcotest.failf "expected one warning, got %d" (List.length w));
      (* open_append truncates the torn tail, then appends land clean *)
      let j, warns = Serve.Journal.open_append ~fsync:Serve.Journal.Never p in
      Alcotest.(check int) "open_append reports the tear" 1
        (List.length warns);
      Serve.Journal.append j "{\"c\":3}";
      Serve.Journal.close j;
      let records, warns = Serve.Journal.read p in
      Alcotest.(check (list string))
        "tail replaced by the new record"
        [ "{\"a\":1}"; "{\"b\":2}"; "{\"c\":3}" ]
        records;
      Alcotest.(check int) "clean after truncation" 0 (List.length warns))

let test_journal_crc_corruption () =
  with_dir (fun d ->
      let p = Filename.concat d "j.jnl" in
      let f1 = Serve.Journal.frame "{\"a\":1}" in
      let f2 = Serve.Journal.frame "{\"b\":2}" in
      write_file p (f1 ^ f2 ^ Serve.Journal.frame "{\"c\":3}");
      (* flip one payload byte of record 2: framing stays sane, CRC
         does not *)
      let bytes = Bytes.of_string (read_file p) in
      let off = String.length f1 + 8 in
      Bytes.set bytes off (Char.chr (Char.code (Bytes.get bytes off) lxor 0xff));
      write_file p (Bytes.to_string bytes);
      let records, warns = Serve.Journal.read p in
      Alcotest.(check (list string))
        "reading continues past the bad record" [ "{\"a\":1}"; "{\"c\":3}" ]
        records;
      (match warns with
      | [ (2, msg) ] ->
        Alcotest.(check bool) "crc named" true (contains ~sub:"CRC" msg)
      | w -> Alcotest.failf "expected one record-2 warning, got %d" (List.length w)))

let test_journal_bad_framing_stops () =
  with_dir (fun d ->
      let p = Filename.concat d "j.jnl" in
      (* an implausible length field: frames can no longer be delimited *)
      write_file p
        (Serve.Journal.frame "{\"a\":1}" ^ "\xff\xff\xff\x7f\x00\x00\x00\x00"
       ^ Serve.Journal.frame "{\"lost\":true}");
      let records, warns = Serve.Journal.read p in
      Alcotest.(check (list string))
        "prefix kept, reading stops" [ "{\"a\":1}" ] records;
      Alcotest.(check int) "one warning" 1 (List.length warns))

(* A failed fsync is never swallowed.  On Linux, fsync on a character
   device fails with EINVAL, so a journal on /dev/null fails its first
   sync; after that it refuses every append, flush and reset. *)
let test_journal_sync_failure () =
  let module J = Serve.Journal in
  let j, _ = J.open_append ~fsync:J.Always "/dev/null" in
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: expected Journal.Failed" what
    | exception J.Failed msg ->
      Alcotest.(check bool) (what ^ " names the file") true
        (contains ~sub:"/dev/null" msg)
  in
  Alcotest.(check (option string)) "healthy before" None (J.failure j);
  raises "append" (fun () -> J.append j "{\"a\":1}");
  Alcotest.(check bool) "poisoned" true (J.failure j <> None);
  raises "later append" (fun () -> J.append j "{\"b\":2}");
  raises "flush" (fun () -> J.flush j);
  raises "reset" (fun () -> J.reset j);
  Alcotest.(check int) "the refused append wrote nothing" 1 (J.appended j);
  J.close j;
  (* under [Never] appends never sync, so they succeed; a forced flush
     still syncs and fails *)
  let j, _ = J.open_append ~fsync:J.Never "/dev/null" in
  J.append j "{\"a\":1}";
  raises "flush under never" (fun () -> J.flush j);
  J.close j

(* A failed write is never swallowed either.  Writes to /dev/full fail
   with ENOSPC (and it reports size 0, so it opens as an empty journal):
   the first append raises [Failed] and poisons the journal, and the
   next append is refused without writing. *)
let test_journal_write_failure () =
  let module J = Serve.Journal in
  let j, _ = J.open_append ~fsync:J.Never "/dev/full" in
  (match J.append j "{\"a\":1}" with
  | () -> Alcotest.fail "an append to /dev/full succeeded"
  | exception J.Failed msg ->
    Alcotest.(check bool) "names the write" true (contains ~sub:"write" msg));
  Alcotest.(check bool) "poisoned" true (J.failure j <> None);
  (match J.append j "{\"b\":2}" with
  | () -> Alcotest.fail "a poisoned journal took an append"
  | exception J.Failed _ -> ());
  Alcotest.(check int) "nothing counted as appended" 0 (J.appended j);
  Alcotest.(check int) "size stays at the last whole frame" 0 (J.size j);
  J.close j

(* A durable net whose journal cannot write answers [Not_durable] for
   its initial set, instead of letting the raw Unix error escape, and is
   not hosted.  The journal file is a symlink to /dev/full. *)
let test_unwritten_set_not_acked () =
  with_dir (fun d ->
      Serve.Wstore.configure ~dir:d ~fsync:Serve.Journal.Never ();
      Unix.symlink "/dev/full" (Filename.concat d "full.jnl");
      (match Serve.Wstore.create ~id:"full" ~spec:"var a.x = 4\nvar a.y\neq a.x a.y\n" () with
      | Ok _ -> Alcotest.fail "an unwritten initial set was acknowledged"
      | Error msg ->
        Alcotest.(check bool) "initial set not durable" true
          (contains ~sub:"not durable: write" msg));
      Alcotest.(check bool) "not hosted" true (Serve.Wstore.find ~id:"full" = None))

(* A durable net whose journal cannot sync is never acknowledged: its
   initial sets answer [Not_durable] and the net is not hosted.  The
   journal file is a symlink to /dev/null. *)
let test_unsynced_set_not_acked () =
  with_dir (fun d ->
      Serve.Wstore.configure ~dir:d ~fsync:Serve.Journal.Always ();
      let create id spec =
        Unix.symlink "/dev/null" (Filename.concat d (id ^ ".jnl"));
        Serve.Wstore.create ~id ~spec ()
      in
      (match create "nosync" "var a.x = 4\nvar a.y\neq a.x a.y\n" with
      | Ok _ -> Alcotest.fail "an unsynced initial set was acknowledged"
      | Error msg ->
        Alcotest.(check bool) "initial set not durable" true
          (contains ~sub:"not durable: fsync" msg));
      (* no initial sets: the first snapshot's journal reset fails (on
         /dev/null its truncate fails before its fsync) *)
      (match create "nosync2" "var a.x\n" with
      | Ok _ -> Alcotest.fail "created over an unsynced journal"
      | Error msg ->
        Alcotest.(check bool) "first snapshot not durable" true
          (contains ~sub:"not durable: truncate" msg));
      Alcotest.(check bool) "neither is hosted" true
        (Serve.Wstore.find ~id:"nosync" = None
        && Serve.Wstore.find ~id:"nosync2" = None))

(* A snapshot that cannot be written is a declared failure, answered
   like a journal failure, and the one worker serving it lives on.
   [<id>.snap] is a non-empty directory, so the snapshot's rename fails
   (EISDIR) even as root. *)
let test_snapshot_failure_answered () =
  with_dir (fun d ->
      Serve.Wstore.configure ~dir:d ~fsync:Serve.Journal.Never
        ~snapshot_every:1 ();
      let snap id = Filename.concat d (id ^ ".snap") in
      let block id =
        if Sys.file_exists (snap id) then Sys.remove (snap id);
        Sys.mkdir (snap id) 0o755;
        write_file (Filename.concat (snap id) "x") "x"
      and unblock id =
        if Sys.file_exists (snap id) && Sys.is_directory (snap id) then begin
          Sys.remove (Filename.concat (snap id) "x");
          Sys.rmdir (snap id)
        end
      in
      let sv = Serve.start ~port:0 ~workers:1 () in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun e ->
              try ignore (Serve.Wstore.drop ~id:(Serve.Wstore.id e))
              with Serve.Wstore.Snapshot_failed _ -> ())
            (Serve.Wstore.list ());
          Serve.stop sv;
          List.iter unblock [ "blocked"; "fresh" ];
          Serve.Wstore.configure ~snapshot_every:256 ())
        (fun () ->
          let port = Serve.port sv in
          let post path body =
            match Serve.Client.post ~port ~body path with
            | Ok r -> r
            | Error e -> Alcotest.failf "POST %s: %s" path e
          in
          let r = post "/nets?id=blocked" "var a.x\nvar a.y\neq a.x a.y\n" in
          Alcotest.(check int) "created" 201 r.Serve.Client.rs_status;
          block "blocked";
          let r = post "/nets/blocked/set" "{\"var\":\"a.x\",\"value\":\"3\"}\n" in
          Alcotest.(check int) "the set answers 500" 500 r.Serve.Client.rs_status;
          Alcotest.(check bool) "not durable, not acknowledged" true
            (contains ~sub:"not durable" r.Serve.Client.rs_body
            && contains ~sub:"\"acked\":0" r.Serve.Client.rs_body);
          Alcotest.(check int) "a forced snapshot answers 500" 500
            (post "/nets/blocked/snapshot" "").Serve.Client.rs_status;
          Alcotest.(check int) "the journal is not poisoned" 1
            (Serve.Journal.appended
               (Option.get
                  (Serve.Wstore.journal
                     (Option.get (Serve.Wstore.find ~id:"blocked")))));
          block "fresh";
          let r = post "/nets?id=fresh" "var a.x\n" in
          Alcotest.(check bool) "a create over it answers an error" true
            (r.Serve.Client.rs_status >= 400
            && contains ~sub:"not durable" r.Serve.Client.rs_body);
          Alcotest.(check bool) "and hosts nothing" true
            (Serve.Wstore.find ~id:"fresh" = None);
          Alcotest.(check int) "a drop answers 500" 500
            (post "/nets/blocked/drop" "").Serve.Client.rs_status;
          match Serve.Client.get ~port "/nets" with
          | Ok r -> Alcotest.(check int) "the worker still answers" 200 r.rs_status
          | Error e -> Alcotest.failf "GET /nets: %s" e))

(* A hosted net carries one observer: an untraced net with no /events
   subscriber has its board's event log and no sink at all. *)
let test_hosted_net_one_sink () =
  with_dir (fun d ->
      Serve.Wstore.configure ~dir:d ~fsync:Serve.Journal.Never ();
      let e =
        match
          Serve.Wstore.create ~id:"onesink"
            ~spec:"var a.x = 1\nvar a.y\neq a.x a.y\n" ()
        with
        | Ok e -> e
        | Error msg -> Alcotest.failf "create: %s" msg
      in
      Fun.protect
        ~finally:(fun () -> ignore (Serve.Wstore.drop ~id:"onesink"))
        (fun () ->
          let net = Serve.Wstore.net e in
          Alcotest.(check (list string)) "the board adds no sink" []
            (List.map
               (fun s -> s.Constraint_kernel.Types.snk_name)
               (Constraint_kernel.Engine.sinks net));
          Alcotest.(check bool) "the board's log is on the net" true
            (net.Constraint_kernel.Types.net_log <> None)))

(* ---------------- wstore recovery ---------------- *)

let fixture_spec =
  "# durable fixture\n\
   var a.x = 4\n\
   var a.y\n\
   var a.sum\n\
   eq a.x a.y\n\
   sum a.sum a.x a.y\n"

let set_int e path n =
  match
    Serve.Wstore.apply_set e ~path ~value:(Dval.Int n)
      ~just:Constraint_kernel.Types.User
  with
  | Ok () -> ()
  | Error err -> Alcotest.failf "set %s: %s" path (Serve.Wstore.set_error_message err)

let create_ok ~id ~spec =
  match Serve.Wstore.create ~id ~spec () with
  | Ok e -> e
  | Error msg -> Alcotest.failf "create %s: %s" id msg

(* Copy the data directory's bytes — the disk state an fsync-Always
   [kill -9] leaves behind — then recover from the copy. *)
let crash_copy src dst id =
  cp (Filename.concat src (id ^ ".snap")) (Filename.concat dst (id ^ ".snap"));
  let jnl = Filename.concat src (id ^ ".jnl") in
  if Sys.file_exists jnl then cp jnl (Filename.concat dst (id ^ ".jnl"))

let test_recover_bit_identical () =
  with_dir (fun live ->
      with_dir (fun crashed ->
          Serve.Wstore.configure ~dir:live ~fsync:Serve.Journal.Always
            ~snapshot_every:10_000 ();
          let e = create_ok ~id:"dur" ~spec:fixture_spec in
          set_int e "a.x" 7;
          set_int e "a.x" 9;
          set_int e "a.x" 21;
          let before = Serve.Wstore.state e in
          Alcotest.(check bool) "fixture propagated" true
            (List.exists
               (fun (p, v, _) -> p = "a.sum" && v = Some "42")
               before);
          crash_copy live crashed "dur";
          ignore (Serve.Wstore.drop ~id:"dur");
          match Serve.Wstore.recover ~verify:true ~dir:crashed ~id:"dur" () with
          | Error msg -> Alcotest.failf "recover: %s" msg
          | Ok rc ->
            Alcotest.(check bool) "journal records were replayed" true
              (rc.Serve.Wstore.rc_journal_replayed > 0);
            Alcotest.(check int) "no recovery warnings" 0
              (List.length rc.Serve.Wstore.rc_warnings);
            Alcotest.(check bool) "differential check ran" true
              rc.Serve.Wstore.rc_verified;
            Alcotest.(check int) "zero divergences" 0
              (List.length rc.Serve.Wstore.rc_divergences);
            let after = Serve.Wstore.state rc.Serve.Wstore.rc_entry in
            Alcotest.(check bool)
              "recovered state bit-identical to the last acked state" true
              (before = after);
            ignore (Serve.Wstore.drop ~id:"dur")))

let test_recover_torn_journal_tail () =
  with_dir (fun live ->
      with_dir (fun crashed ->
          Serve.Wstore.configure ~dir:live ~fsync:Serve.Journal.Always
            ~snapshot_every:10_000 ();
          let e = create_ok ~id:"torn" ~spec:fixture_spec in
          set_int e "a.x" 6;
          let before = Serve.Wstore.state e in
          crash_copy live crashed "torn";
          ignore (Serve.Wstore.drop ~id:"torn");
          (* the crash died mid-append: a torn record past the last ack *)
          append_raw
            (Filename.concat crashed "torn.jnl")
            (String.sub (Serve.Journal.frame "{\"unacked\":1}") 0 5);
          match Serve.Wstore.recover ~verify:true ~dir:crashed ~id:"torn" () with
          | Error msg -> Alcotest.failf "recover: %s" msg
          | Ok rc ->
            (match rc.Serve.Wstore.rc_warnings with
            | [ ("journal", n, msg) ] ->
              Alcotest.(check bool) "record-numbered torn warning" true
                (n > 0 && contains ~sub:"torn" msg)
            | w -> Alcotest.failf "expected one journal warning, got %d" (List.length w));
            Alcotest.(check int) "torn tail does not diverge" 0
              (List.length rc.Serve.Wstore.rc_divergences);
            Alcotest.(check bool)
              "acked state recovered despite the tear" true
              (before = Serve.Wstore.state rc.Serve.Wstore.rc_entry);
            ignore (Serve.Wstore.drop ~id:"torn")))

let test_recover_fresh_snapshot_only () =
  with_dir (fun live ->
      with_dir (fun crashed ->
          Serve.Wstore.configure ~dir:live ~fsync:Serve.Journal.Always
            ~snapshot_every:10_000 ();
          let e = create_ok ~id:"fresh" ~spec:fixture_spec in
          let before = Serve.Wstore.state e in
          crash_copy live crashed "fresh";
          (* no journal at all: only the creation snapshot survived *)
          let j = Filename.concat crashed "fresh.jnl" in
          if Sys.file_exists j then Sys.remove j;
          ignore (Serve.Wstore.drop ~id:"fresh");
          match
            Serve.Wstore.recover ~verify:true ~dir:crashed ~id:"fresh" ()
          with
          | Error msg -> Alcotest.failf "recover: %s" msg
          | Ok rc ->
            Alcotest.(check int) "nothing to replay" 0
              rc.Serve.Wstore.rc_journal_replayed;
            Alcotest.(check int) "no divergences" 0
              (List.length rc.Serve.Wstore.rc_divergences);
            Alcotest.(check bool) "initial sets restored" true
              (before = Serve.Wstore.state rc.Serve.Wstore.rc_entry);
            ignore (Serve.Wstore.drop ~id:"fresh")))

let test_recover_dir_cleans_stray_tmp () =
  with_dir (fun live ->
      with_dir (fun crashed ->
          Serve.Wstore.configure ~dir:live ~fsync:Serve.Journal.Always ();
          let _e = create_ok ~id:"tidy" ~spec:fixture_spec in
          crash_copy live crashed "tidy";
          ignore (Serve.Wstore.drop ~id:"tidy");
          (* a snapshot save that died between temp write and rename *)
          let stray = Filename.concat crashed ".stemdb123.tmp" in
          write_file stray "half a snapshot";
          let recoveries, notes = Serve.Wstore.recover_dir crashed in
          Alcotest.(check int) "one network recovered" 1
            (List.length recoveries);
          Alcotest.(check bool) "stray temp removed" false
            (Sys.file_exists stray);
          Alcotest.(check bool) "removal noted" true
            (List.exists (fun n -> contains ~sub:".tmp" n) notes);
          List.iter
            (fun rc ->
              ignore
                (Serve.Wstore.drop
                   ~id:(Serve.Wstore.id rc.Serve.Wstore.rc_entry)))
            recoveries))

(* The on-disk record format, pinned byte for byte: a fixed write
   sequence (escaped spec and tenant text, int, float and float-range
   values, both justifications) must produce exactly these journal
   payloads and snapshot files, so a writer change cannot silently
   alter what recovery reads. *)
let test_golden_records () =
  with_dir (fun d ->
      Serve.Wstore.configure ~dir:d ~fsync:Serve.Journal.Never
        ~snapshot_every:10_000 ();
      let spec = "# \"golden\" \\ fixture\nvar a.x = 4\nvar a.y\neq a.x a.y\nvar a.r\n" in
      let e =
        match Serve.Wstore.create ~tenant:"t\"q" ~id:"gold" ~spec () with
        | Ok e -> e
        | Error msg -> Alcotest.failf "create: %s" msg
      in
      let snap () = read_file (Filename.concat d "gold.snap") in
      let spec_line =
        "{\"v\":2,\"t\":\"wal_spec\",\"net\":\"gold\",\"tenant\":\"t\\\"q\",\
         \"spec\":\"# \\\"golden\\\" \\\\ fixture\\nvar a.x = 4\\nvar a.y\\neq \
         a.x a.y\\nvar a.r\\n\"}\n"
      in
      Alcotest.(check string) "creation snapshot"
        (spec_line
       ^ "{\"v\":2,\"t\":\"wal_set\",\"var\":\"a.x\",\"value\":\"4\",\"just\":\"application\"}\n"
        )
        (snap ());
      set_int e "a.x" 7;
      let set path value just =
        match Serve.Wstore.apply_set e ~path ~value ~just with
        | Ok () -> ()
        | Error err ->
          Alcotest.failf "set %s: %s" path (Serve.Wstore.set_error_message err)
      in
      set "a.r" (Dval.Float 1.5) Constraint_kernel.Types.User;
      set "a.r" (Dval.Frange (1.5, 2.)) Constraint_kernel.Types.Application;
      let records, warnings =
        Serve.Journal.read (Filename.concat d "gold.jnl")
      in
      Alcotest.(check int) "no journal warnings" 0 (List.length warnings);
      Alcotest.(check (list string)) "journal records"
        [
          "{\"v\":2,\"t\":\"wal_set\",\"var\":\"a.x\",\"value\":\"7\",\"just\":\"user\"}";
          "{\"v\":2,\"t\":\"wal_set\",\"var\":\"a.r\",\"value\":\"0x1.8p+0\",\"just\":\"user\"}";
          "{\"v\":2,\"t\":\"wal_set\",\"var\":\"a.r\",\"value\":\"0x1.8p+0..0x1p+1\",\"just\":\"application\"}";
        ]
        records;
      Serve.Wstore.with_episode_lock (fun () -> Serve.Wstore.snapshot e);
      Alcotest.(check string) "checkpoint snapshot"
        (spec_line
       ^ "{\"v\":2,\"t\":\"wal_set\",\"var\":\"a.x\",\"value\":\"7\",\"just\":\"user\"}\n\
          {\"v\":2,\"t\":\"wal_set\",\"var\":\"a.r\",\"value\":\"0x1.8p+0..0x1p+1\",\"just\":\"application\"}\n"
        )
        (snap ());
      ignore (Serve.Wstore.drop ~id:"gold"))

(* Replay reconvergence is order-independent: any interleaving of sets
   on distinct variables reaches the same fixpoint — the property the
   whole journal-replay design rests on (Apt's commutativity result).
   Exercised through the real store: both entries journal, snapshot and
   propagate exactly as production writes do. *)
let prop_replay_order_independent =
  QCheck.Test.make ~name:"wstore: set batches reconverge in any order"
    ~count:25
    QCheck.(
      pair
        (pair (int_range (-50) 50) (int_range (-50) 50))
        (int_range 0 5))
    (fun ((vx, vy), rot) ->
      let spec =
        "var a.x\nvar a.y\nvar a.z\nvar a.sum\nsum a.sum a.x a.y a.z\n"
      in
      let batch =
        [ ("a.x", vx); ("a.y", vy); ("a.z", vx + vy) ]
      in
      let rotate n l =
        let rec go n l =
          if n = 0 then l
          else match l with [] -> [] | x :: tl -> go (n - 1) (tl @ [ x ])
        in
        go (n mod List.length l) l
      in
      with_dir (fun d ->
          Serve.Wstore.configure ~dir:d ~fsync:Serve.Journal.Never ();
          let ea = create_ok ~id:"perm-a" ~spec in
          let eb = create_ok ~id:"perm-b" ~spec in
          List.iter (fun (p, n) -> set_int ea p n) batch;
          List.iter (fun (p, n) -> set_int eb p n) (rotate rot batch);
          let same = Serve.Wstore.state ea = Serve.Wstore.state eb in
          ignore (Serve.Wstore.drop ~id:"perm-a");
          ignore (Serve.Wstore.drop ~id:"perm-b");
          same))

(* ---------------- admission ladder ---------------- *)

let admit_kind a ~tenant =
  match Serve.Admission.admit a ~tenant with
  | Serve.Admission.Admitted _ -> "admitted"
  | Serve.Admission.Busy _ -> "busy"
  | Serve.Admission.Overloaded _ -> "overloaded"
  | Serve.Admission.Quarantined _ -> "quarantined"

let test_admission_bounds () =
  let now = ref 0.0 in
  let config =
    {
      Serve.Admission.default_config with
      Serve.Admission.ac_max_inflight = 1;
      ac_max_total = 2;
    }
  in
  let a = Serve.Admission.create ~now:(fun () -> !now) ~config () in
  let t1 =
    match Serve.Admission.admit a ~tenant:"t1" with
    | Serve.Admission.Admitted tk -> tk
    | _ -> Alcotest.fail "t1 should be admitted"
  in
  Alcotest.(check string) "tenant bound hit" "busy" (admit_kind a ~tenant:"t1");
  let t2 =
    match Serve.Admission.admit a ~tenant:"t2" with
    | Serve.Admission.Admitted tk -> tk
    | _ -> Alcotest.fail "t2 should be admitted"
  in
  Alcotest.(check string) "global bound hit" "overloaded"
    (admit_kind a ~tenant:"t3");
  Serve.Admission.finish a t2 ~over_budget:false;
  Alcotest.(check string) "slot released to other tenants" "admitted"
    (admit_kind a ~tenant:"t3");
  Serve.Admission.finish a t1 ~over_budget:false

let test_admission_quarantine_and_healing () =
  let now = ref 0.0 in
  let config =
    {
      Serve.Admission.default_config with
      Serve.Admission.ac_strike_limit = 2;
      ac_cooldown = 5.0;
    }
  in
  let a = Serve.Admission.create ~now:(fun () -> !now) ~config () in
  let strike () =
    match Serve.Admission.admit a ~tenant:"abuser" with
    | Serve.Admission.Admitted tk ->
      Serve.Admission.finish a tk ~over_budget:true
    | _ -> Alcotest.fail "should be admitted while under the limit"
  in
  strike ();
  strike ();
  (match Serve.Admission.admit a ~tenant:"abuser" with
  | Serve.Admission.Quarantined s ->
    Alcotest.(check bool) "retry-after within the cooldown" true
      (s > 0.0 && s <= 5.0)
  | _ -> Alcotest.fail "two strikes must quarantine");
  Alcotest.(check string) "other tenants unaffected" "admitted"
    (admit_kind a ~tenant:"healthy");
  now := 6.0;
  (match Serve.Admission.admit a ~tenant:"abuser" with
  | Serve.Admission.Admitted tk ->
    Serve.Admission.finish a tk ~over_budget:false
  | _ -> Alcotest.fail "cooldown expiry must re-admit");
  (* the good finish healed a strike: one more bad request does not
     re-quarantine *)
  strike ();
  Alcotest.(check string) "healing kept the tenant under the limit"
    "admitted"
    (admit_kind a ~tenant:"abuser")

let test_admission_deadline () =
  let now = ref 0.0 in
  let config =
    { Serve.Admission.default_config with Serve.Admission.ac_deadline = 1.0 }
  in
  let a = Serve.Admission.create ~now:(fun () -> !now) ~config () in
  match Serve.Admission.admit a ~tenant:"slow" with
  | Serve.Admission.Admitted tk ->
    Alcotest.(check bool) "fresh ticket inside deadline" false
      (Serve.Admission.deadline_exceeded a tk);
    now := 2.0;
    Alcotest.(check bool) "stalled ticket detected" true
      (Serve.Admission.deadline_exceeded a tk);
    Alcotest.(check bool) "elapsed tracks the clock" true
      (Serve.Admission.elapsed a tk >= 2.0);
    Serve.Admission.finish a tk ~over_budget:true
  | _ -> Alcotest.fail "should admit"

(* ---------------- the write API over real sockets ---------------- *)

let with_write_server ?admission ?history f =
  with_dir (fun d ->
      Serve.Wstore.configure ~dir:d ~fsync:Serve.Journal.Never ();
      let sv = Serve.start ~port:0 ?admission ?history () in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun e -> ignore (Serve.Wstore.drop ~id:(Serve.Wstore.id e)))
            (Serve.Wstore.list ());
          Serve.stop sv)
        (fun () -> f sv))

let post_ok ?(tenant = "alice") ~port ~body path =
  match
    Serve.Client.post ~port ~headers:[ ("x-tenant", tenant) ] ~body path
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "POST %s: %s" path e

let get_as ?(tenant = "alice") ~port path =
  match
    Serve.Client.request ~port ~headers:[ ("x-tenant", tenant) ] path
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "GET %s: %s" path e

let test_write_api_end_to_end () =
  with_write_server (fun sv ->
      let port = Serve.port sv in
      let r = post_ok ~port ~body:fixture_spec "/nets?id=web" in
      Alcotest.(check int) "create is 201" 201 r.Serve.Client.rs_status;
      Alcotest.(check bool) "create names the tenant" true
        (contains ~sub:"\"tenant\":\"alice\"" r.Serve.Client.rs_body);
      let dup = post_ok ~port ~body:fixture_spec "/nets?id=web" in
      Alcotest.(check int) "duplicate id is 409" 409 dup.Serve.Client.rs_status;
      let r =
        post_ok ~port
          ~body:
            "{\"var\":\"a.x\",\"value\":\"9\",\"just\":\"user\"}\n\
             {\"var\":\"a.y\",\"value\":\"9\"}\n"
          "/nets/web/set"
      in
      Alcotest.(check int) "batched set is 200" 200 r.Serve.Client.rs_status;
      Alcotest.(check bool) "both applied" true
        (contains ~sub:"\"applied\":2" r.Serve.Client.rs_body);
      let st = get_as ~port "/nets/web/state" in
      Alcotest.(check int) "state is 200" 200 st.Serve.Client.rs_status;
      Alcotest.(check bool) "propagation reached the sum" true
        (contains ~sub:"{\"var\":\"a.sum\",\"value\":\"18\"" st.Serve.Client.rs_body);
      let why = post_ok ~port ~body:"" "/nets/web/why?var=a.sum" in
      Alcotest.(check int) "why is 200" 200 why.Serve.Client.rs_status;
      Alcotest.(check bool) "chain reaches the user entry" true
        (contains ~sub:"\"just\":\"user\"" why.Serve.Client.rs_body);
      let blame = post_ok ~port ~body:"" "/nets/web/blame?var=a.x" in
      Alcotest.(check int) "blame is 200" 200 blame.Serve.Client.rs_status;
      Alcotest.(check bool) "fan-out reaches the sum" true
        (contains ~sub:"a.sum" blame.Serve.Client.rs_body);
      (* tenant isolation *)
      let intruder = get_as ~tenant:"mallory" ~port "/nets/web/state" in
      Alcotest.(check int) "foreign tenant gets 403" 403
        intruder.Serve.Client.rs_status;
      let bad =
        post_ok ~port ~body:"{\"var\":\"a.x\",\"value\":\"nonsense{\"}\n"
          "/nets/web/set"
      in
      Alcotest.(check int) "unparseable value is 422" 422
        bad.Serve.Client.rs_status;
      let missing = get_as ~port "/nets/nope/state" in
      Alcotest.(check int) "unknown id is 404" 404
        missing.Serve.Client.rs_status;
      let admission = get_as ~port "/admission" in
      Alcotest.(check int) "admission stats served" 200
        admission.Serve.Client.rs_status;
      Alcotest.(check bool) "alice appears in the counters" true
        (contains ~sub:"alice" admission.Serve.Client.rs_body);
      let dropped = post_ok ~port ~body:"" "/nets/web/drop" in
      Alcotest.(check int) "drop is 200" 200 dropped.Serve.Client.rs_status;
      let gone = get_as ~port "/nets/web/state" in
      Alcotest.(check int) "dropped net is 404" 404 gone.Serve.Client.rs_status)

(* Dropping a hosted net withdraws it from every read endpoint: there
   is one registry, so nothing else has to be told. *)
let test_drop_withdraws_from_reads () =
  with_write_server (fun sv ->
      let port = Serve.port sv in
      let r = post_ok ~port ~body:fixture_spec "/nets?id=gone" in
      Alcotest.(check int) "create ok" 201 r.Serve.Client.rs_status;
      let metrics () = (get_as ~port "/metrics").Serve.Client.rs_body in
      let exposed () =
        match Strict_json.parse_json (get_as ~port "/healthz").rs_body with
        | Obj kvs -> List.assoc_opt "exposed" kvs
        | _ -> Alcotest.fail "/healthz is not an object"
      in
      let has_gone = function
        | Some (Strict_json.Arr names) -> List.mem (Strict_json.Str "gone") names
        | _ -> Alcotest.fail "/healthz has no exposed list"
      in
      let topo () = (get_as ~port "/topo.dot?net=gone").Serve.Client.rs_status in
      Alcotest.(check bool) "hosted net in /metrics" true
        (contains ~sub:"net=\"gone\"" (metrics ()));
      Alcotest.(check bool) "hosted net in /healthz" true (has_gone (exposed ()));
      Alcotest.(check int) "hosted net in /topo.dot" 200 (topo ());
      Alcotest.(check bool) "drop" true (Serve.Wstore.drop ~id:"gone");
      Alcotest.(check bool) "gone from /metrics" false
        (contains ~sub:"net=\"gone\"" (metrics ()));
      Alcotest.(check bool) "gone from /healthz" false (has_gone (exposed ()));
      Alcotest.(check int) "gone from /topo.dot" 404 (topo ()))

(* Two servers one after the other share the registry and nothing else:
   the second sees none of the first's tenants or spans, and the first
   left no sink or history wiring on the net it traced. *)
let test_servers_share_nothing () =
  with_dir (fun hist ->
      let ts = Obs.Tsdb.open_ hist in
      Fun.protect
        ~finally:(fun () -> Obs.Tsdb.close ts)
        (fun () ->
          with_write_server ~history:ts (fun first ->
              let port = Serve.port first in
              Obs.Tracing.set_enabled (Serve.tracer first) true;
              let r = post_ok ~port ~body:fixture_spec "/nets?id=both" in
              Alcotest.(check int) "create ok" 201 r.Serve.Client.rs_status;
              let r =
                post_ok ~port ~body:"{\"var\":\"a.x\",\"value\":\"2\"}\n"
                  "/nets/both/set"
              in
              Alcotest.(check int) "traced set ok" 200 r.Serve.Client.rs_status;
              Serve.history_tick first;
              Serve.stop first;
              let e =
                match Serve.Wstore.find ~id:"both" with
                | Some e -> e
                | None -> Alcotest.fail "stop must not unhost"
              in
              Alcotest.(check bool) "no tracing sink after stop" false
                (List.exists
                   (fun s ->
                     s.Constraint_kernel.Types.snk_name
                     = Obs.Tracing.kernel_sink_name)
                   (Constraint_kernel.Engine.sinks (Serve.Wstore.net e)));
              Alcotest.(check bool) "no history wiring after stop" true
                (Obs.Board.history (Serve.Wstore.board e) = None);
              let second = Serve.start ~port:0 () in
              Fun.protect
                ~finally:(fun () -> Serve.stop second)
                (fun () ->
                  let port = Serve.port second in
                  Obs.Tracing.set_enabled (Serve.tracer second) true;
                  Alcotest.(check bool) "no spans of the first server" false
                    (contains ~sub:"POST /nets"
                       (get_as ~port "/trace").rs_body);
                  Alcotest.(check bool) "no tenants of the first server" false
                    (contains ~sub:"alice" (get_as ~port "/admission").rs_body);
                  Alcotest.(check int) "the registry is shared" 200
                    (get_as ~port "/nets/both/state").rs_status))))

(* No tenant may hold a slot on the first server: every write bounces
   with guidance.  A second server, with its own healthy controller,
   admits writes to the same hosted net. *)
let test_write_api_backpressure () =
  let saturated =
    Serve.Admission.create
      ~config:
        {
          Serve.Admission.default_config with
          Serve.Admission.ac_max_inflight = 0;
        }
      ()
  in
  with_write_server ~admission:saturated (fun sv ->
      (match
         Serve.Wstore.create ~tenant:"alice" ~id:"bp" ~spec:fixture_spec ()
       with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg);
      let set port =
        post_ok ~port ~body:"{\"var\":\"a.x\",\"value\":\"1\"}\n"
          "/nets/bp/set"
      in
      let r = set (Serve.port sv) in
      Alcotest.(check int) "saturated tenant gets 429" 429
        r.Serve.Client.rs_status;
      Alcotest.(check bool) "retry-after present and positive" true
        (match List.assoc_opt "retry-after" r.Serve.Client.rs_headers with
        | Some s -> (match int_of_string_opt (String.trim s) with
          | Some n -> n >= 1
          | None -> false)
        | None -> false);
      let healthy = Serve.start ~port:0 () in
      Fun.protect
        ~finally:(fun () -> Serve.stop healthy)
        (fun () ->
          Alcotest.(check int) "healthy admission admits again" 200
            (set (Serve.port healthy)).Serve.Client.rs_status))

(* One inference run per episode, two strikes to a one-minute
   quarantine. *)
let one_step_admission () =
  Serve.Admission.create
    ~config:
      {
        Serve.Admission.default_config with
        Serve.Admission.ac_step_budget = 1;
        ac_strike_limit = 2;
        ac_cooldown = 60.;
      }
    ()

(* A set that blows the step budget is a strike: 422 for the write,
   [over_budget] and a strike on /admission, and once the strikes
   reach the limit the tenant sits out its cooldown with 429. *)
let test_over_budget_strikes () =
  with_write_server ~admission:(one_step_admission ()) (fun sv ->
      let port = Serve.port sv in
      let spec = "var a.x\nvar a.y\nvar a.z\neq a.x a.y\neq a.y a.z\n" in
      let r = post_ok ~port ~body:spec "/nets?id=ob" in
      Alcotest.(check int) "create ok" 201 r.Serve.Client.rs_status;
      let set () =
        post_ok ~port ~body:"{\"var\":\"a.x\",\"value\":\"1\"}\n"
          "/nets/ob/set"
      in
      let r = set () in
      Alcotest.(check int) "over-budget set is 422" 422 r.Serve.Client.rs_status;
      Alcotest.(check bool) "the error names the budget" true
        (contains ~sub:"step budget exhausted" r.Serve.Client.rs_body);
      let tenant_field name =
        let doc = Strict_json.parse_json (get_as ~port "/admission").rs_body in
        match doc with
        | Obj kvs -> (
          match List.assoc_opt "tenants" kvs with
          | Some (Arr [ Obj t ]) -> List.assoc_opt name t
          | _ -> Alcotest.fail "expected one tenant row")
        | _ -> Alcotest.fail "/admission is not an object"
      in
      Alcotest.(check bool) "over_budget counted" true
        (tenant_field "over_budget" = Some (Num 1.));
      Alcotest.(check bool) "one strike" true
        (tenant_field "strikes" = Some (Num 1.));
      Alcotest.(check int) "second overrun is 422 too" 422
        (set ()).Serve.Client.rs_status;
      let r = set () in
      Alcotest.(check int) "then the tenant is quarantined" 429
        r.Serve.Client.rs_status;
      Alcotest.(check bool) "as a quarantine" true
        (contains ~sub:"quarantined" r.Serve.Client.rs_body))

(* /healthz as (status, rows as (name, ok), exposed names), and the
   names on /alerts lines. *)
let healthz ~port =
  let r = get_as ~port "/healthz" in
  let str = function Strict_json.Str n -> n | _ -> Alcotest.fail "not a string" in
  let row = function
    | Strict_json.Obj row -> (
      match (List.assoc_opt "net" row, List.assoc_opt "ok" row) with
      | Some (Str n), Some (Bool ok) -> (n, ok)
      | _ -> Alcotest.fail "/healthz row lacks net/ok")
    | _ -> Alcotest.fail "/healthz row is not an object"
  in
  match Strict_json.parse_json r.Serve.Client.rs_body with
  | Obj kvs -> (
    match (List.assoc_opt "nets" kvs, List.assoc_opt "exposed" kvs) with
    | Some (Arr rows), Some (Arr exposed) ->
      (r.Serve.Client.rs_status, List.map row rows, List.map str exposed)
    | _ -> Alcotest.fail "/healthz lacks nets/exposed")
  | _ -> Alcotest.fail "/healthz is not an object"

let alert_nets ~port =
  String.split_on_char '\n' (get_as ~port "/alerts").Serve.Client.rs_body
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match Strict_json.parse_json l with
         | Obj kvs -> (
           match List.assoc_opt "net" kvs with
           | Some (Str n) -> n
           | _ -> Alcotest.fail "alert without a net")
         | _ -> Alcotest.fail "alert is not an object")

(* Ticks adding tenants race scrapes of /slo and /healthz: every scrape
   answers with the SLO rows sorted by name, and none raises.  Tenants
   join in reverse name order, so each one lands before the others. *)
let test_slo_table_race () =
  with_dir (fun hist ->
      let ts = Obs.Tsdb.open_ hist in
      let adm = Serve.Admission.create () in
      let sv = Serve.start ~port:0 ~admission:adm ~history:ts () in
      Fun.protect
        ~finally:(fun () ->
          Serve.stop sv;
          Obs.Tsdb.close ts)
        (fun () ->
          let n = 48 in
          let done_ = Atomic.make false in
          let ticker =
            Thread.create
              (fun () ->
                for i = 1 to n do
                  (match
                     Serve.Admission.admit adm
                       ~tenant:(Printf.sprintf "t%02d" (n - i))
                   with
                  | Serve.Admission.Admitted tk ->
                    Serve.Admission.finish adm tk ~over_budget:false
                  | _ -> ());
                  Serve.history_tick sv
                done;
                Atomic.set done_ true)
              ()
          in
          let names path =
            match Serve.Client.request ~port:(Serve.port sv) path with
            | Error e -> Alcotest.failf "%s: %s" path e
            | Ok r -> (
              let rows =
                match Strict_json.parse_json r.Serve.Client.rs_body with
                | Strict_json.Arr rows -> rows
                | Strict_json.Obj kvs -> (
                  match List.assoc_opt "nets" kvs with
                  | Some (Strict_json.Arr rows) -> rows
                  | _ -> Alcotest.failf "%s: no nets" path)
                | _ -> Alcotest.failf "%s: not an array or object" path
              in
              List.filter_map
                (function
                  | Strict_json.Obj kvs -> (
                    match (List.assoc_opt "name" kvs, List.assoc_opt "net" kvs) with
                    | Some (Strict_json.Str s), _ -> Some s
                    | _, Some (Strict_json.Str s) -> Some s
                    | _ -> None)
                  | _ -> None)
                rows)
          in
          let scrapes = ref 0 in
          while not (Atomic.get done_) do
            List.iter
              (fun path ->
                (* /healthz lists the served boards first *)
                let ns =
                  List.filter (String.starts_with ~prefix:"slo:") (names path)
                  @ List.filter (String.starts_with ~prefix:"tenant-") (names path)
                in
                Alcotest.(check (list string)) (path ^ " rows sorted")
                  (List.sort compare ns) ns;
                incr scrapes)
              [ "/slo"; "/healthz" ]
          done;
          Thread.join ticker;
          Alcotest.(check int) "every tenant has its SLO" n
            (List.length (names "/slo"));
          Alcotest.(check bool) "scraped while ticking" true (!scrapes > 0)))

(* Two servers at once: the first has history and a tenant whose SLO
   burns.  Each answers health from what it serves — the shared served
   nets and its own SLOs — so only the first reports the SLO. *)
let test_health_is_per_server () =
  with_dir (fun hist ->
      let ts = Obs.Tsdb.open_ hist in
      Fun.protect
        ~finally:(fun () -> Obs.Tsdb.close ts)
        (fun () ->
          with_write_server ~admission:(one_step_admission ()) ~history:ts
            (fun first ->
              let second = Serve.start ~port:0 () in
              Fun.protect
                ~finally:(fun () -> Serve.stop second)
                (fun () ->
                  let port = Serve.port first in
                  let spec = "var a.x\nvar a.y\nvar a.z\neq a.x a.y\neq a.y a.z\n" in
                  Alcotest.(check int) "create ok" 201
                    (post_ok ~port ~body:spec "/nets?id=burn").rs_status;
                  let t = Unix.gettimeofday () in
                  Serve.history_tick ~now:(t -. 2.) first;
                  List.iter
                    (fun status ->
                      Alcotest.(check int) "over-budget set" status
                        (post_ok ~port ~body:"{\"var\":\"a.x\",\"value\":\"1\"}\n"
                           "/nets/burn/set")
                          .rs_status)
                    [ 422; 422; 429; 429 ];
                  Serve.history_tick ~now:(t -. 1.) first;
                  let slo = "slo:tenant-alice" in
                  let is_slo (n, _) = String.starts_with ~prefix:"slo:" n in
                  let status, rows, _ = healthz ~port in
                  Alcotest.(check int) "first: 503" 503 status;
                  Alcotest.(check bool) "first: its SLO row fires" true
                    (List.mem (slo, false) rows);
                  Alcotest.(check bool) "first: the served net is a row" true
                    (List.mem_assoc "burn" rows);
                  Alcotest.(check bool) "first: the SLO transition on /alerts"
                    true
                    (List.mem slo (alert_nets ~port));
                  let port = Serve.port second in
                  let status, rows, _ = healthz ~port in
                  Alcotest.(check int) "second: 200" 200 status;
                  Alcotest.(check bool) "second: no slo: row" false
                    (List.exists is_slo rows);
                  Alcotest.(check bool) "second: the served net is a row" true
                    (List.mem ("burn", true) rows);
                  Alcotest.(check bool) "second: no SLO transition on /alerts"
                    false
                    (List.exists
                       (String.starts_with ~prefix:"slo:")
                       (alert_nets ~port))))))

let ivar net name =
  Constraint_kernel.Var.create net ~owner:"m" ~name ~equal:Int.equal
    ~pp:Fmt.int ()

(* A net exposed under a name other than its own is one row, under the
   served name, on /healthz ("nets" and "exposed") and /alerts. *)
let test_health_names_the_served_name () =
  let net = Constraint_kernel.Engine.create_network ~name:"inner" () in
  let x = ivar net "x" in
  let board =
    Obs.Board.attach ~window_width:(Obs.Window.Episodes 1)
      ~rules:[ Obs.Watchdog.rule ~name:"always" (fun _ -> Some "always") ]
      net
  in
  Serve.expose ~name:"outer" ~board net;
  let sv = Serve.start ~port:0 () in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop sv;
      ignore (Serve.unexpose "outer");
      Obs.Board.detach net)
    (fun () ->
      ignore (Constraint_kernel.Engine.set net x 1);
      let port = Serve.port sv in
      let status, rows, exposed = healthz ~port in
      Alcotest.(check int) "its firing rule answers 503" 503 status;
      Alcotest.(check bool) "one firing row, under the served name" true
        (List.mem ("outer", false) rows && not (List.mem_assoc "inner" rows));
      Alcotest.(check bool) "exposed under the served name" true
        (List.mem "outer" exposed && not (List.mem "inner" exposed));
      let alerts = alert_nets ~port in
      Alcotest.(check bool) "its transition names the served name" true
        (List.mem "outer" alerts && not (List.mem "inner" alerts)))

(* Two same-named design nets, each dual-bridged to a same-named
   floorplan, each pair's boards sharing a provenance scope of their
   own.  Detaching the first pair leaves the second's /healthz row
   and its cross-network [why] intact. *)
let test_same_named_nets_detach_alone () =
  let pair () =
    let design = Stem.Env.create ~name:"twin-design" () in
    let floorplan = Stem.Env.create ~name:"twin-floorplan" () in
    let dnet = design.Stem.Design.env_cnet in
    let fnet = floorplan.Stem.Design.env_cnet in
    let scope = Obs.Provenance.scope () in
    let board = Obs.Board.attach ~pp_value:Dval.to_string ~scope dnet in
    let fprov =
      Obs.Board.provenance (Obs.Board.attach ~pp_value:Dval.to_string ~scope fnet)
    in
    let a = Dclib.variable dnet ~owner:"alu/a" ~name:"bitWidth" () in
    let b = Dclib.variable dnet ~owner:"alu/sum" ~name:"bitWidth" () in
    ignore (Dclib.equality dnet [ a; b ]);
    let bus = Dclib.variable fnet ~owner:"chan0" ~name:"busWidth" () in
    let tracks = Dclib.variable fnet ~owner:"chan0" ~name:"tracks" () in
    ignore (Dclib.equality fnet [ bus; tracks ]);
    ignore
      (Stem.Dual.bridge design ~kind:"width-export" ~from_:b ~to_env:floorplan
         ~to_:bus ());
    (match Constraint_kernel.Engine.set dnet a (Dval.Int 8) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "designer entry rejected");
    (dnet, fnet, board, fprov)
  in
  let dnet1, fnet1, _, _ = pair () in
  let dnet2, fnet2, board2, fprov2 = pair () in
  Serve.expose ~board:board2 dnet2;
  let sv = Serve.start ~port:0 () in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop sv;
      ignore (Serve.unexpose "twin-design");
      List.iter Obs.Board.detach [ dnet2; fnet2 ])
    (fun () ->
      List.iter Obs.Board.detach [ dnet1; fnet1 ];
      let _, rows, _ = healthz ~port:(Serve.port sv) in
      Alcotest.(check bool) "the second's row is intact" true
        (List.mem ("twin-design", true) rows);
      let chain = Obs.Provenance.why fprov2 "chan0.tracks" in
      Alcotest.(check (list string)) "the second's why still crosses"
        [ "twin-design"; "twin-floorplan" ]
        (List.sort_uniq compare
           (List.map
              (fun st -> st.Obs.Provenance.ws_span.Obs.Provenance.sp_net)
              chain));
      Alcotest.(check bool) "and ends at the designer entry" true
        (List.exists
           (fun st -> st.Obs.Provenance.ws_span.Obs.Provenance.sp_just = "user")
           chain))

(* Every JSON and NDJSON response, parsed by the strict parser, for a
   tenant whose name percent-encodes a quote, a backslash, a newline
   and a 0x01 byte — the bytes a hand-rolled writer forgets to escape.
   Over-budget sets push the tenant into quarantine so its SLO fires
   and /alerts has lines to render. *)
let test_strict_json_endpoints () =
  let tenant = "t\"\\\n\001" in
  let q path =
    path ^ (if String.contains path '?' then "&" else "?") ^ "tenant=t%22%5C%0A%01"
  in
  with_dir (fun hist ->
      let ts = Obs.Tsdb.open_ hist in
      Fun.protect
        ~finally:(fun () -> Obs.Tsdb.close ts)
        (fun () ->
          with_write_server ~admission:(one_step_admission ()) ~history:ts
            (fun sv ->
              let port = Serve.port sv in
              Obs.Tracing.set_enabled (Serve.tracer sv) true;
              let call ?(meth = "GET") ?(body = "") path =
                match Serve.Client.request ~meth ~body ~port (q path) with
                | Ok r -> r
                | Error e -> Alcotest.failf "%s %s: %s" meth path e
              in
              let strict what body =
                try Strict_json.parse_json body
                with Strict_json.Bad_json msg ->
                  Alcotest.failf "%s: %s in %S" what msg body
              in
              let check_doc ?meth ?body ~status path =
                let r = call ?meth ?body path in
                Alcotest.(check int) (path ^ " status") status
                  r.Serve.Client.rs_status;
                strict path r.Serve.Client.rs_body
              in
              let check_lines what body =
                String.split_on_char '\n' body
                |> List.filter (fun l -> l <> "")
                |> List.map (strict what)
              in
              (* one /events subscriber, started before the writes *)
              let events = ref (Error "not run") in
              let reader =
                Thread.create
                  (fun () -> events := Serve.Client.get ~port "/events?max=4")
                  ()
              in
              let deadline = Unix.gettimeofday () +. 5.0 in
              while
                Serve.Stream.subscribers Serve.hub = 0
                && Unix.gettimeofday () < deadline
              do
                Thread.yield ()
              done;
              let spec =
                "var a.x\nvar a.y\neq a.x a.y\nvar b.x\nvar b.y\nvar b.z\n\
                 eq b.x b.y\neq b.y b.z\n"
              in
              (match
                 check_doc ~meth:"POST" ~body:spec ~status:201 "/nets?id=hx"
               with
              | Strict_json.Obj kvs ->
                Alcotest.(check bool) "tenant decoded and escaped" true
                  (List.assoc_opt "tenant" kvs = Some (Str tenant))
              | _ -> Alcotest.fail "create body is not an object");
              ignore
                (check_doc ~meth:"POST" ~status:200
                   ~body:"{\"var\":\"a.x\",\"value\":\"1.25\"}\n"
                   "/nets/hx/set");
              (* a parse error, an unknown (hostile) variable and a
                 string value, all echoed back in the results *)
              ignore
                (check_doc ~meth:"POST" ~status:422
                   ~body:
                     "{\"var\":\"a.x\",\"value\":\"nonsense{\"}\n\
                      {\"var\":\"q\\\"\\\\\\u0001\",\"value\":\"1\"}\n\
                      {\"var\":\"a.x\",\"value\":\"\\\"s\\\"\"}\n"
                   "/nets/hx/set");
              (* the over-budget writes: two strikes, then quarantine;
                 unrounded tick times, so the SLO must see the sample
                 the tick appends at its own time *)
              let t = Unix.gettimeofday () in
              Serve.history_tick ~now:(t -. 2.) sv;
              let over = "{\"var\":\"b.x\",\"value\":\"1\"}\n" in
              List.iter
                (fun status ->
                  ignore
                    (check_doc ~meth:"POST" ~status ~body:over "/nets/hx/set"))
                [ 422; 422; 429; 429 ];
              Serve.history_tick ~now:(t -. 1.) sv;
              List.iter
                (fun (path, status) -> ignore (check_doc ~status path))
                [
                  ("/nets", 200);
                  ("/nets/hx/state", 200);
                  ("/nets/nope/state", 404);
                  ("/admission", 200);
                  ("/spans", 200);
                  ("/exemplars", 200);
                  ("/series", 200);
                  ("/query?metric=serve.requests&from=0&to=4e9", 200);
                  ("/query?metric=serve.requests&from=0&to=4e9&step=1e9", 200);
                  ("/query?metric=serve.requests&step=-1", 422);
                  ("/slo", 200);
                  ("/trace", 200);
                ];
              List.iter
                (fun path ->
                  ignore (check_doc ~meth:"POST" ~status:200 path))
                [ "/nets/hx/why?var=a.y"; "/nets/hx/blame?var=a.x" ];
              ignore (check_doc ~meth:"POST" ~status:422 "/nets/hx/why");
              let h = call "/healthz" in
              ignore (strict "/healthz" h.Serve.Client.rs_body);
              let alerts = check_lines "/alerts" (call "/alerts").rs_body in
              Alcotest.(check bool) "the tenant's SLO alert is logged" true
                (alerts <> []);
              Thread.join reader;
              (match !events with
              | Ok r ->
                Alcotest.(check int) "/events lines" 4
                  (List.length (check_lines "/events" r.Serve.Client.rs_body))
              | Error e -> Alcotest.failf "/events: %s" e);
              ignore
                (check_doc ~meth:"POST" ~status:200 "/nets/hx/drop"))))

(* ---------------- client deadline ---------------- *)

let test_client_total_deadline () =
  (* a listener that never accepts: the connect succeeds out of the
     backlog, the request is written, and no byte ever comes back *)
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen fd 8;
      let port =
        match Unix.getsockname fd with
        | ADDR_INET (_, p) -> p
        | _ -> Alcotest.fail "no port"
      in
      let t0 = Unix.gettimeofday () in
      match Serve.Client.get ~timeout:0.4 ~port "/stalled" with
      | Ok _ -> Alcotest.fail "a silent server cannot produce a response"
      | Error msg ->
        let elapsed = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool) "timed out, not errored early" true
          (contains ~sub:"timed out" msg);
        Alcotest.(check bool) "returned promptly after the deadline" true
          (elapsed < 5.0))

let suite =
  ( "durable",
    [
      Alcotest.test_case "journal round-trip" `Quick test_journal_roundtrip;
      Alcotest.test_case "journal missing/empty" `Quick
        test_journal_missing_and_empty;
      Alcotest.test_case "journal torn tail" `Quick test_journal_torn_tail;
      Alcotest.test_case "journal crc corruption" `Quick
        test_journal_crc_corruption;
      Alcotest.test_case "journal bad framing stops" `Quick
        test_journal_bad_framing_stops;
      Alcotest.test_case "journal fsync failure raises and poisons" `Quick
        test_journal_sync_failure;
      Alcotest.test_case "journal write failure raises and poisons" `Quick
        test_journal_write_failure;
      Alcotest.test_case "unwritten set is not acknowledged" `Quick
        test_unwritten_set_not_acked;
      Alcotest.test_case "snapshot failure is answered" `Quick
        test_snapshot_failure_answered;
      Alcotest.test_case "a hosted net has one sink" `Quick
        test_hosted_net_one_sink;
      Alcotest.test_case "unsynced set is not acknowledged" `Quick
        test_unsynced_set_not_acked;
      Alcotest.test_case "recover bit-identical" `Quick
        test_recover_bit_identical;
      Alcotest.test_case "recover torn journal tail" `Quick
        test_recover_torn_journal_tail;
      Alcotest.test_case "recover fresh snapshot only" `Quick
        test_recover_fresh_snapshot_only;
      Alcotest.test_case "recover_dir cleans stray tmp" `Quick
        test_recover_dir_cleans_stray_tmp;
      Alcotest.test_case "golden journal and snapshot bytes" `Quick
        test_golden_records;
      QCheck_alcotest.to_alcotest prop_replay_order_independent;
      Alcotest.test_case "admission bounds" `Quick test_admission_bounds;
      Alcotest.test_case "admission quarantine and healing" `Quick
        test_admission_quarantine_and_healing;
      Alcotest.test_case "admission deadline" `Quick test_admission_deadline;
      Alcotest.test_case "write api end-to-end" `Quick
        test_write_api_end_to_end;
      Alcotest.test_case "drop withdraws from the read endpoints" `Quick
        test_drop_withdraws_from_reads;
      Alcotest.test_case "slo table races ticks and scrapes" `Quick
        test_slo_table_race;
      Alcotest.test_case "health is per server" `Quick
        test_health_is_per_server;
      Alcotest.test_case "health uses the served name" `Quick
        test_health_names_the_served_name;
      Alcotest.test_case "same-named nets detach alone" `Quick
        test_same_named_nets_detach_alone;
      Alcotest.test_case "servers share no state; stop cleans up" `Quick
        test_servers_share_nothing;
      Alcotest.test_case "write api backpressure" `Quick
        test_write_api_backpressure;
      Alcotest.test_case "over-budget sets strike and quarantine" `Quick
        test_over_budget_strikes;
      Alcotest.test_case "strict JSON from every endpoint" `Quick
        test_strict_json_endpoints;
      Alcotest.test_case "client total deadline" `Quick
        test_client_total_deadline;
    ] )
