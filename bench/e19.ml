(* E19: cost of remote telemetry (the HTTP server from lib/serve).

   Runs the E11 equality chain with the board (E18's board config) as
   the baseline, then adds the telemetry
   server in four postures:

     serve-idle      server bound + exposed, no client connected
     serve-scraper   a client thread GETs /metrics every ~10 ms
     hub-stall       a direct hub subscriber (cap 64) that never reads
                     — the publish path alone, no HTTP in the way
     serve-stalled   a client opened /events?cap=64 and never reads

   The claims under test: an idle server costs nothing measurable (the
   /events sink is detached while nobody subscribes, and the server's
   threads block in [accept]/[read]); a polling scraper steals only
   scrape-time CPU, not propagation time; and a stalled event stream
   drops lines from its bounded ring instead of ever blocking the
   propagation thread.  The two stall configs should agree: lines are
   formatted lazily by the reader, so a stalled subscription costs the
   propagation thread one thunk + one ring store per event whether or
   not an HTTP connection sits behind it.  Samples are interleaved
   round-robin over one shared network with min-of-samples estimation,
   the same discipline as E16–E18.  Emits a JSON summary when --out is
   given.

     dune exec bench/e19.exe -- --chain 200 --samples 9 --batch 200
     dune exec bench/e19.exe -- --out BENCH_e19.json *)

open Constraint_kernel

let chain = ref 200

let samples = ref 9

let batch = ref 200

let out = ref ""

let speclist =
  [
    ("--chain", Arg.Set_int chain, "N  equality-chain length (default 200)");
    ("--samples", Arg.Set_int samples, "N  samples per config (default 9)");
    ("--batch", Arg.Set_int batch, "N  episodes per sample (default 200)");
    ("--out", Arg.Set_string out, "FILE  write a JSON summary");
  ]

type config = {
  cf_name : string;
  cf_attach : int Types.network -> unit;
  cf_detach : int Types.network -> unit;
}

(* Per-config mutable state, threaded through attach/detach. *)
let server = ref None

let scraper_stop = ref false

let scraper_thread = ref None

let scrapes = ref 0

let stalled_fd = ref None

let stalled_sub = ref None

let dropped_total = ref 0

let attach_board net = ignore (Obs.Board.attach net)

let detach_board net = Obs.Board.detach net

let start_server net =
  let board = Obs.Board.attach net in
  Serve.expose ~pp_value:string_of_int ~board net;
  let sv = Serve.start ~port:0 () in
  server := Some sv;
  sv

let stop_server net =
  (match !server with
  | Some sv -> Serve.stop sv
  | None -> ());
  server := None;
  ignore (Serve.unexpose net.Types.net_name);
  Obs.Board.detach net

let wait_for cond =
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done

let configs () =
  [
    {
      cf_name = "board";
      cf_attach = attach_board;
      cf_detach = detach_board;
    };
    {
      cf_name = "serve-idle";
      cf_attach = (fun net -> ignore (start_server net));
      cf_detach = stop_server;
    };
    {
      cf_name = "serve-scraper";
      cf_attach =
        (fun net ->
          let sv = start_server net in
          let port = Serve.port sv in
          scraper_stop := false;
          scraper_thread :=
            Some
              (Thread.create
                 (fun () ->
                   while not !scraper_stop do
                     (match Serve.Client.get ~port "/metrics" with
                     | Ok _ -> incr scrapes
                     | Error _ -> ());
                     Thread.delay 0.01
                   done)
                 ()));
      cf_detach =
        (fun net ->
          scraper_stop := true;
          (match !scraper_thread with
          | Some t -> Thread.join t
          | None -> ());
          scraper_thread := None;
          stop_server net);
    };
    {
      cf_name = "hub-stall";
      cf_attach =
        (fun net ->
          let board = Obs.Board.attach net in
          Serve.expose ~pp_value:string_of_int ~board net;
          stalled_sub := Some (Serve.Stream.subscribe ~capacity:64 Serve.hub));
      cf_detach =
        (fun net ->
          (match !stalled_sub with
          | Some s -> Serve.Stream.unsubscribe Serve.hub s
          | None -> ());
          stalled_sub := None;
          ignore (Serve.unexpose net.Types.net_name);
          Obs.Board.detach net);
    };
    {
      cf_name = "serve-stalled";
      cf_attach =
        (fun net ->
          let sv = start_server net in
          let port = Serve.port sv in
          let fd = Unix.socket PF_INET SOCK_STREAM 0 in
          Unix.setsockopt_int fd SO_RCVBUF 1024;
          Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
          let rq = "GET /events?cap=64 HTTP/1.1\r\n\r\n" in
          ignore (Unix.write_substring fd rq 0 (String.length rq));
          stalled_fd := Some fd;
          wait_for (fun () -> Serve.Stream.subscribers Serve.hub > 0));
      cf_detach =
        (fun net ->
          let before = (Serve.stream_stats ()).Serve.Stream.st_dropped in
          dropped_total := before;
          (match !stalled_fd with
          | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
          | None -> ());
          stalled_fd := None;
          stop_server net);
    };
  ]

let best xs = List.fold_left Float.min infinity xs

let measure cfs =
  let net, run = Workloads.chain_observed !chain ~attach:ignore in
  for _ = 1 to !batch do run () done;
  let cells = List.map (fun cf -> (cf, ref [])) cfs in
  for _ = 1 to !samples do
    List.iter
      (fun (cf, times) ->
        Gc.full_major ();
        cf.cf_attach net;
        for _ = 1 to max 10 (!batch / 10) do run () done;
        let t0 = Unix.gettimeofday () in
        for _ = 1 to !batch do run () done;
        let dt = Unix.gettimeofday () -. t0 in
        cf.cf_detach net;
        Engine.clear_sinks net;
        times := dt :: !times)
      cells
  done;
  List.map
    (fun (cf, times) ->
      (cf.cf_name, best !times /. float_of_int !batch *. 1e9))
    cells

let () =
  Arg.parse speclist
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "e19 [--chain N] [--samples N] [--batch N] [--out FILE]";
  Fmt.pr
    "E19: telemetry-server overhead on the %d-constraint chain (%d x %d \
     episodes)@."
    !chain !samples !batch;
  let results = measure (configs ()) in
  let lookup name =
    match List.assoc_opt name results with Some b -> b | None -> nan
  in
  let base = lookup "board" in
  let vs b ns = (ns -. b) /. b *. 100.0 in
  List.iter
    (fun (name, ns) ->
      Fmt.pr "  %-14s %10.0f ns/episode   vs board %+6.1f%%@." name ns
        (vs base ns))
    results;
  Fmt.pr
    "serve-idle vs board:    %+.1f%% (idle server; target ~0, noise \
     floor)@."
    (vs base (lookup "serve-idle"));
  Fmt.pr
    "serve-stalled vs board: %+.1f%% (thunk + ring store per event; \
     stalled subscribers dropped %d lines in total and never blocked \
     propagation)@."
    (vs base (lookup "serve-stalled"))
    !dropped_total;
  Fmt.pr "scrapes served during the scraper config: %d@." !scrapes;
  if !out <> "" then begin
    let oc = open_out !out in
    let cfg_json (name, ns) =
      Printf.sprintf
        "{\"name\":\"%s\",\"ns_per_episode\":%.1f,\"overhead_vs_board_pct\":%.2f}"
        (Obs.Jsonl.escape name) ns (vs base ns)
    in
    Printf.fprintf oc
      "{\"experiment\":\"E19\",\"chain\":%d,\"samples\":%d,\"batch\":%d,\"scrapes\":%d,\"stalled_dropped\":%d,\"configs\":[%s]}\n"
      !chain !samples !batch !scrapes !dropped_total
      (String.concat "," (List.map cfg_json results));
    close_out oc;
    Fmt.pr "summary written to %s@." !out
  end
