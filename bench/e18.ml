(* E18: overhead of continuous monitoring (window + sampler + watchdog).

   Runs the E11 equality chain bare and with the board, whose rolling
   window, tail sampler and watchdog read its one event log together
   with the ring, metrics, profiler and provenance, and reports the best
   (minimum) time per episode plus the overhead relative to the bare
   network.  The bare config doubles as the "no-sink path unchanged"
   check against E16's none row.  Emits a JSON summary when --out is
   given.

     dune exec bench/e18.exe -- --chain 200 --samples 9 --batch 200
     dune exec bench/e18.exe -- --out BENCH_e18.json *)

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

let configs () =
  [
    {
      cf_name = "none";
      cf_attach = ignore;
      cf_detach = ignore;
    };
    {
      cf_name = "board";
      cf_attach =
        (fun net ->
          ignore (Obs.Board.attach ~window_width:(Obs.Window.Episodes 64) net));
      cf_detach = (fun net -> Obs.Board.detach net);
    };
  ]

(* Minimum over samples: machine noise is strictly additive (see
   e16.ml), so the min is the robust estimator of the true cost. *)
let best xs = List.fold_left Float.min infinity xs

let measure cfs =
  (* One shared network for every config, samples interleaved
     round-robin, re-warm after each attach — the same discipline as
     E16, so the board numbers are comparable across experiments. *)
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
        Engine.clear_sinks net;
        cf.cf_detach net;
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
    "e18 [--chain N] [--samples N] [--batch N] [--out FILE]";
  Fmt.pr
    "E18: monitoring overhead on the %d-constraint chain (%d x %d episodes)@."
    !chain !samples !batch;
  let results = measure (configs ()) in
  let lookup name =
    match List.assoc_opt name results with Some b -> b | None -> nan
  in
  let base = lookup "none" in
  let vs b ns = (ns -. b) /. b *. 100.0 in
  List.iter
    (fun (name, ns) ->
      Fmt.pr "  %-14s %10.0f ns/episode   vs none %+6.1f%%@." name ns
        (vs base ns))
    results;
  if !out <> "" then begin
    let oc = open_out !out in
    let cfg_json (name, ns) =
      Printf.sprintf
        "{\"name\":\"%s\",\"ns_per_episode\":%.1f,\"overhead_vs_none_pct\":%.2f}"
        (Obs.Jsonl.escape name) ns (vs base ns)
    in
    Printf.fprintf oc
      "{\"experiment\":\"E18\",\"chain\":%d,\"samples\":%d,\"batch\":%d,\"configs\":[%s]}\n"
      !chain !samples !batch
      (String.concat "," (List.map cfg_json results));
    close_out oc;
    Fmt.pr "summary written to %s@." !out
  end
