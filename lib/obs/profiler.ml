(* Per-constraint-kind profiler: attributes activations, agenda
   traffic, checks, violations and quarantines to each constraint kind
   ("equality", "uni-maximum", ...), and ranks the kinds by activation
   count into a top-k hotspot report. *)

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

type t = {
  p_entries : (string, entry) Hashtbl.t;
  (* constraint-id -> entry cache so the hot path never hashes the kind
     string; ids are small dense ints, so a growable array suffices *)
  mutable p_by_id : entry option array;
}

let create () = { p_entries = Hashtbl.create 16; p_by_id = Array.make 64 None }

let entry t kind =
  match Hashtbl.find_opt t.p_entries kind with
  | Some e -> e
  | None ->
    let e =
      { e_kind = kind; e_activations = 0; e_scheduled = 0; e_checks = 0;
        e_check_failures = 0; e_violations = 0; e_quarantines = 0 }
    in
    Hashtbl.add t.p_entries kind e;
    e

let entry_of_cstr t c =
  let id = c.c_id in
  let cache = t.p_by_id in
  if id < Array.length cache then
    match Array.unsafe_get cache id with
    | Some e -> e
    | None ->
      let e = entry t c.c_kind in
      Array.unsafe_set cache id (Some e);
      e
  else begin
    let grown = Array.make (max 64 (2 * (id + 1))) None in
    Array.blit cache 0 grown 0 (Array.length cache);
    t.p_by_id <- grown;
    let e = entry t c.c_kind in
    grown.(id) <- Some e;
    e
  end

let entries t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.p_entries []
  |> List.sort (fun a b ->
         match compare b.e_activations a.e_activations with
         | 0 -> compare a.e_kind b.e_kind
         | c -> c)

let clear t =
  Hashtbl.reset t.p_entries;
  Array.fill t.p_by_id 0 (Array.length t.p_by_id) None
