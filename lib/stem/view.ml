open Design

type 'a t = {
  vw_model : cell_class;
  vw_compute : cell_class -> 'a;
  mutable vw_cache : 'a option;
  mutable vw_recomputations : int;
  vw_dep : dependent; (* its entry in the model's dependents *)
}

(* A dependent is found again by identity: each registration allocates
   its own record. *)
let remove_dependent cell dep =
  cell.cc_dependents <- List.filter (fun d -> d != dep) cell.cc_dependents

let add_dependent cell ~erase =
  let dep = { dep_erase = erase } in
  cell.cc_dependents <- dep :: cell.cc_dependents;
  fun () -> remove_dependent cell dep

let make_keyed cell ~keys ~compute =
  let rec view =
    {
      vw_model = cell;
      vw_compute = compute;
      vw_cache = None;
      vw_recomputations = 0;
      vw_dep = dep;
    }
  and dep =
    {
      dep_erase =
        (fun ~key ->
          match key with
          | None -> view.vw_cache <- None
          | Some k ->
            if keys = [] || List.mem k keys then view.vw_cache <- None);
    }
  in
  cell.cc_dependents <- dep :: cell.cc_dependents;
  view

let make cell ~compute = make_keyed cell ~keys:[] ~compute

let get view =
  match view.vw_cache with
  | Some x -> x
  | None ->
    let x = view.vw_compute view.vw_model in
    view.vw_cache <- Some x;
    view.vw_recomputations <- view.vw_recomputations + 1;
    x

let is_erased view = view.vw_cache = None

let recomputations view = view.vw_recomputations

(* Broadcast a change to a cell's dependents and up the design hierarchy
   (§6.5.2).  The recursion is guarded against cycles in the containment
   graph (which should not exist, but a broken design must not hang the
   environment). *)
let changed ?key cell =
  let seen = Hashtbl.create 8 in
  let rec go cell =
    if not (Hashtbl.mem seen cell.cc_uid) then begin
      Hashtbl.add seen cell.cc_uid ();
      List.iter (fun dep -> dep.dep_erase ~key) cell.cc_dependents;
      let parents =
        List.sort_uniq
          (fun a b -> compare a.cc_uid b.cc_uid)
          (List.map (fun inst -> inst.inst_parent) cell.cc_instances)
      in
      List.iter go parents
    end
  in
  go cell
