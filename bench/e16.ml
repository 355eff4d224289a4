(* E16: overhead of the observability layer.

   Runs the E11 equality chain under several sink configurations —
   nothing attached, the JSONL export, the board (the one observer every
   hosted network carries), both at once — and reports the best (minimum) time per episode plus the overhead
   relative to the bare network.  Emits a JSON summary (for the CI artifact) when
   --out is given.

     dune exec bench/e16.exe -- --chain 200 --samples 9 --batch 200
     dune exec bench/e16.exe -- --out e16.json *)

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

(* Each config attaches its sinks to a fresh chain; [drain] clears
   per-sample state so unbounded sinks (the JSONL buffer) don't grow
   across the whole run and distort later samples. *)
type config = {
  cf_name : string;
  cf_attach : int Types.network -> unit;
  cf_drain : unit -> unit;
}

let configs () =
  let jsonl_buf = Buffer.create 65536 in
  [
    { cf_name = "none"; cf_attach = ignore; cf_drain = ignore };
    {
      cf_name = "jsonl";
      cf_attach = (fun net -> Engine.add_sink net (Obs.Jsonl.buffer_sink jsonl_buf));
      cf_drain = (fun () -> Buffer.clear jsonl_buf);
    };
    {
      (* ring, metrics, profiler, monitor and provenance on one log *)
      cf_name = "board";
      cf_attach = (fun net -> ignore (Obs.Board.attach net));
      cf_drain = ignore;
    };
    {
      (* everything at once, including the export *)
      cf_name = "all";
      cf_attach =
        (fun net ->
          ignore (Obs.Board.attach net);
          Engine.add_sink net (Obs.Jsonl.buffer_sink jsonl_buf));
      cf_drain = (fun () -> Buffer.clear jsonl_buf);
    };
  ]

(* Machine noise (scheduler preemption, background load) is strictly
   additive, so the minimum over samples is the robust estimator of the
   true cost — the median still carries half the noise distribution. *)
let best xs = List.fold_left Float.min infinity xs

(* Samples are interleaved round-robin across the configs so slow drift
   (CPU frequency, background load) lands on every config alike instead
   of biasing whichever ran last. *)
let measure cfs =
  (* One shared network for every config: separate instances differ in
     heap layout by a few percent, which would drown the cheaper sinks.
     Each sample attaches this config's sinks, re-warms, times a batch
     and detaches again, so the only difference between configs is the
     sink work itself. *)
  let net, run = Workloads.chain_observed !chain ~attach:ignore in
  for _ = 1 to !batch do run () done;
  let cells = List.map (fun cf -> (cf, ref [])) cfs in
  for _ = 1 to !samples do
    List.iter
      (fun (cf, times) ->
        Gc.full_major ();
        cf.cf_attach net;
        (* re-warm: the previous config has just evicted our working
           set from cache, and that eviction is its bill, not ours *)
        for _ = 1 to max 10 (!batch / 10) do run () done;
        cf.cf_drain ();
        let t0 = Unix.gettimeofday () in
        for _ = 1 to !batch do run () done;
        let dt = Unix.gettimeofday () -. t0 in
        cf.cf_drain ();
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
    "e16 [--chain N] [--samples N] [--batch N] [--out FILE]";
  (let count = ref 0 in
   let _, run =
     Workloads.chain_observed !chain ~attach:(fun net ->
         Engine.add_sink net (Types.sink ~name:"count" (fun _ -> incr count)))
   in
   run ();
   Fmt.pr "(one episode emits %d trace events)@." !count);
  Fmt.pr "E16: observability overhead on the %d-constraint chain (%d x %d episodes)@."
    !chain !samples !batch;
  let results = measure (configs ()) in
  let base =
    match List.assoc_opt "none" results with Some b -> b | None -> nan
  in
  let overhead ns = (ns -. base) /. base *. 100.0 in
  List.iter
    (fun (name, ns) ->
      Fmt.pr "  %-10s %10.0f ns/episode   %+6.1f%%@." name ns (overhead ns))
    results;
  if !out <> "" then begin
    let oc = open_out !out in
    let cfg_json (name, ns) =
      Printf.sprintf
        "{\"name\":\"%s\",\"ns_per_episode\":%.1f,\"overhead_pct\":%.2f}"
        (Obs.Jsonl.escape name) ns (overhead ns)
    in
    Printf.fprintf oc
      "{\"experiment\":\"E16\",\"chain\":%d,\"samples\":%d,\"batch\":%d,\"configs\":[%s]}\n"
      !chain !samples !batch
      (String.concat "," (List.map cfg_json results));
    close_out oc;
    Fmt.pr "summary written to %s@." !out
  end
