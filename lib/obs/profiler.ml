(* Per-constraint-kind profiler: attributes activations, agenda
   traffic, checks, violations and quarantines to each constraint kind
   ("equality", "uni-maximum", ...), and ranks the kinds by activation
   count into a top-k hotspot report.  The counting is the kernel's (on
   each constraint's record); the profiler sums the network's
   constraints by kind when read, less the base it took when made. *)

open Constraint_kernel.Types

type entry = {
  e_kind : string;
  e_activations : int;
  e_scheduled : int;
  e_checks : int;
  e_check_failures : int;
  e_violations : int;
  e_quarantines : int;
}

(* the base: [n_counts] per constraint id *)
type t = P : { net : 'a network; base : int array } -> t

let n_counts = 6

(* a constraint's counts, in [entry] order *)
let counts c =
  [| c.c_activations; c.c_scheduled; c.c_checks; c.c_check_failures;
     c.c_violations; c.c_quarantines |]

let of_net net =
  let base = Array.make (n_counts * net.net_next_cstr_id) 0 in
  List.iter
    (fun c -> Array.blit (counts c) 0 base (n_counts * c.c_id) n_counts)
    net.net_cstrs;
  P { net; base }

let entries (P { net; base }) =
  let by_kind = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let n = counts c and j = n_counts * c.c_id in
      if j < Array.length base then
        Array.iteri (fun k x -> n.(k) <- x - base.(j + k)) n;
      if Array.exists (fun x -> x > 0) n then
        match Hashtbl.find_opt by_kind c.c_kind with
        | Some sum -> Array.iteri (fun k x -> sum.(k) <- sum.(k) + x) n
        | None -> Hashtbl.add by_kind c.c_kind n)
    net.net_cstrs;
  Hashtbl.fold
    (fun kind n acc ->
      { e_kind = kind; e_activations = n.(0); e_scheduled = n.(1);
        e_checks = n.(2); e_check_failures = n.(3); e_violations = n.(4);
        e_quarantines = n.(5) }
      :: acc)
    by_kind []
  |> List.sort (fun a b ->
         match compare b.e_activations a.e_activations with
         | 0 -> compare a.e_kind b.e_kind
         | c -> c)
