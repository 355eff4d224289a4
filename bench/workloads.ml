(* The workload the observability benchmarks (e16-e19) share. *)

open Constraint_kernel

(* A chain of [n] equality constraints with a chosen set of trace sinks
   subscribed: one user assignment at the head visits every constraint
   exactly once.  [attach] receives the fresh network and hooks up
   whatever sinks the configuration under measurement wants. *)
let chain_observed n ~attach =
  let net = Engine.create_network ~name:"chain" () in
  let vars =
    Array.init (n + 1) (fun i ->
        Var.create net ~owner:"w" ~name:(Printf.sprintf "v%d" i)
          ~equal:Int.equal ~pp:Fmt.int ())
  in
  for i = 0 to n - 1 do
    ignore (Clib.equality net [ vars.(i); vars.(i + 1) ])
  done;
  attach net;
  let tick = ref 0 in
  let run () =
    incr tick;
    ignore (Engine.set net vars.(0) !tick)
  in
  (net, run)
