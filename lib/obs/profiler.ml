(* Per-constraint-kind profiler: attributes activations, agenda
   traffic, checks, violations and quarantines to each constraint kind
   ("equality", "uni-maximum", ...), and ranks the kinds by activation
   count into a top-k hotspot report.  The counting is the event log's
   (per constraint id, as each event is written); the profiler sums it
   by kind when read. *)

open Constraint_kernel
open Constraint_kernel.Types

type entry = {
  e_kind : string;
  mutable e_activations : int;
  mutable e_scheduled : int;
  mutable e_checks : int;
  mutable e_check_failures : int;
  mutable e_violations : int;
  mutable e_quarantines : int;
}

type t = cstr_stats

let of_log lg = lg.lg_stats

let entries st =
  let by_kind = Hashtbl.create 16 in
  let entry kind =
    match Hashtbl.find_opt by_kind kind with
    | Some e -> e
    | None ->
      let e =
        { e_kind = kind; e_activations = 0; e_scheduled = 0; e_checks = 0;
          e_check_failures = 0; e_violations = 0; e_quarantines = 0 }
      in
      Hashtbl.add by_kind kind e;
      e
  in
  Array.iteri
    (fun id kind ->
      if kind <> "" then begin
        let e = entry kind in
        let n k = st.cs_counts.((Event_log.st_stride * id) + k) in
        e.e_activations <- e.e_activations + n Event_log.st_activations;
        e.e_scheduled <- e.e_scheduled + n Event_log.st_scheduled;
        e.e_checks <- e.e_checks + n Event_log.st_checks;
        e.e_check_failures <- e.e_check_failures + n Event_log.st_check_failures;
        e.e_quarantines <- e.e_quarantines + n Event_log.st_quarantines
      end)
    st.cs_kinds;
  Hashtbl.iter
    (fun kind n -> (entry kind).e_violations <- (entry kind).e_violations + n)
    st.cs_violations;
  Hashtbl.fold (fun _ e acc -> e :: acc) by_kind []
  |> List.sort (fun a b ->
         match compare b.e_activations a.e_activations with
         | 0 -> compare a.e_kind b.e_kind
         | c -> c)

let clear st =
  Array.fill st.cs_counts 0 (Array.length st.cs_counts) 0;
  Array.fill st.cs_kinds 0 (Array.length st.cs_kinds) "";
  Hashtbl.reset st.cs_violations
