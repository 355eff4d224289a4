(* The provenance store: a bounded derivation DAG over a network's
   assignments (the paper's dependency records, §4.2.4, materialised per
   *assignment* rather than per current value, in the spirit of a TMS
   justification database), read from the spans of the network's
   {!Event_log}.

   Every assignment and reset is a causal span.  The engine logs an
   assignment with [v_just] already updated, so the log's span keeps the
   justification and the latest span of each of the justifying
   constraint's other arguments at that moment; the antecedent edges
   are those the constraint's dependency record names, filtered here
   when a span is read, and they stay correct after the variable is
   overwritten later.

   Cross-network stitching: spans only hold strings and ints (no 'a),
   so every store enters a monomorphic reader under its network's name
   in a scope — an explicit value the caller passes to every store it
   wants stitched together (a store created without one gets a scope of
   its own).  A span whose episode was caused by another network's
   episode (the parent_ref carried by T_episode_start) chains through
   the scope: [why] follows the parent's cause variable into the parent
   network's store, all the way back to the originating
   User/Application set. *)

open Constraint_kernel
open Constraint_kernel.Types
module L = Event_log

(* ---------------- spans and episodes ---------------- *)

type span = {
  sp_id : int; (* unique within its store *)
  sp_net : string;
  sp_episode : int;
  sp_seq : int;
  sp_var : string; (* variable path *)
  sp_value : string option; (* rendered value; None for a reset *)
  sp_just : string; (* Jsonl.just_string of the justification *)
  sp_source : string; (* source label: "kind#id" or "external" *)
  sp_antecedents : int list; (* span ids, within the same store *)
  sp_cross : parent_ref option; (* parent episode, when caused remotely *)
  sp_dead : bool; (* rolled back with its episode *)
}

type episode = {
  epi_net : string;
  epi_id : int;
  epi_label : string;
  epi_parent : parent_ref option;
  epi_outcome : episode_outcome option; (* None while open *)
}

(* ---------------- the stitching scope ---------------- *)

type reader = {
  rd_net : string;
  rd_latest : string -> span option; (* var path -> latest live span *)
  rd_span : int -> span option;
  rd_spans : unit -> span list; (* live spans, oldest first *)
  rd_episodes : unit -> episode list; (* oldest first *)
}

(* At most one reader per network name: stitching resolves a parent
   episode by the name its parent_ref carries. *)
type scope = { mutable sc_readers : reader list }

let scope () = { sc_readers = [] }

let reader_for sc net_name =
  List.find_opt (fun rd -> rd.rd_net = net_name) sc.sc_readers

(* ---------------- the store ---------------- *)

(* The store is the log's spans: the [span] records the queries traffic
   in are materialised (and values rendered) on [find_span], where the
   cost is paid per *question* rather than per event. *)
type 'a t = {
  pv_log : 'a event_log;
  pv_net : 'a network;
  pv_pp : 'a -> string;
  pv_scope : scope;
}

let capacity = L.span_capacity

let find_span t id =
  let lg = t.pv_log in
  if not (L.held lg id) then None
  else
    let j = id land (L.span_capacity - 1) in
    Some
      {
        sp_id = id;
        sp_net = t.pv_net.net_name;
        sp_episode = lg.lg_sp_ep.(j);
        sp_seq = lg.lg_sp_seq.(j);
        sp_var = Var.path (L.span_var lg.lg_rows j);
        sp_value = Option.map t.pv_pp (L.span_value lg j);
        sp_just = Jsonl.just_string (L.span_just lg.lg_rows j);
        sp_source = L.span_source lg j;
        sp_antecedents = L.span_antecedents lg j;
        sp_cross = L.span_cross lg j;
        sp_dead = L.span_dead lg j;
      }

(* Queries address variables by path, through the network's path
   index; the log addresses them by [v_id]. *)
let latest_span t path =
  match Editor.find_var t.pv_net path with
  | Some v when v.v_id < Array.length t.pv_log.lg_latest ->
    find_span t t.pv_log.lg_latest.(v.v_id)
  | Some _ | None -> None

let held_spans t =
  let next = t.pv_log.lg_next_span in
  let acc = ref [] in
  for id = next - 1 downto max 1 (next - capacity) do
    match find_span t id with Some sp -> acc := sp :: !acc | None -> ()
  done;
  !acc

let live_spans t = List.filter (fun sp -> not sp.sp_dead) (held_spans t)

(* oldest first: walk the ring back from the newest id *)
let episodes t =
  let lg = t.pv_log in
  let rec collect id acc =
    if id <= 0 || id <= lg.lg_last_epi - L.max_episodes then acc
    else
      let i = id land (L.max_episodes - 1) in
      collect (id - 1)
        (if lg.lg_ep_id.(i) = id then
           {
             epi_net = t.pv_net.net_name;
             epi_id = id;
             epi_label = lg.lg_ep_label.(i);
             epi_parent = lg.lg_ep_parent.(i);
             epi_outcome =
               (match lg.lg_ep_outcome.(i) with
               | -1 -> None
               | o -> Some (L.outcome_of_code o));
           }
           :: acc
         else acc)
  in
  collect lg.lg_last_epi []

let evicted t = max 0 (t.pv_log.lg_next_span - 1 - capacity)

let spilled t =
  List.length
    (List.filter (fun sp -> List.length sp.sp_antecedents >= 3) (held_spans t))

(* ---------------- creation ---------------- *)

let create ~pp_value ~scope lg net =
  let t = { pv_log = lg; pv_net = net; pv_pp = pp_value; pv_scope = scope } in
  let rd =
    {
      rd_net = net.net_name;
      rd_latest = latest_span t;
      rd_span = find_span t;
      rd_spans = (fun () -> live_spans t);
      rd_episodes = (fun () -> episodes t);
    }
  in
  scope.sc_readers <-
    rd :: List.filter (fun r -> r.rd_net <> net.net_name) scope.sc_readers;
  t

(* ---------------- queries ---------------- *)

type why_step = { ws_depth : int; ws_span : span }

(* Backward chain.  Local edges are the captured antecedent span ids;
   when a span has no local antecedents but its episode was caused by
   another network's episode, the chain crosses into that network's
   store through the scope, continuing at the parent-side cause
   variable.  Cycle-safe via a (net, span id) seen set. *)
let why t path =
  let seen = Hashtbl.create 32 in
  let out = ref [] in
  let rec visit depth net_name sp =
    if not (Hashtbl.mem seen (net_name, sp.sp_id)) then begin
      Hashtbl.add seen (net_name, sp.sp_id) ();
      out := { ws_depth = depth; ws_span = sp } :: !out;
      match sp.sp_antecedents with
      | _ :: _ as ants ->
        let resolve =
          if net_name = t.pv_net.net_name then find_span t
          else
            match reader_for t.pv_scope net_name with
            | Some rd -> rd.rd_span
            | None -> fun _ -> None
        in
        List.iter
          (fun id ->
            match resolve id with
            | Some a -> visit (depth + 1) a.sp_net a
            | None -> ())
          ants
      | [] -> (
        (* no local derivation: either a true root (User/Application
           entry) or the landing half of a cross-network push *)
        match sp.sp_cross with
        | Some p when p.pr_cause <> None -> (
          match reader_for t.pv_scope p.pr_net with
          | Some rd -> (
            match rd.rd_latest (Option.get p.pr_cause) with
            | Some parent_sp -> visit (depth + 1) p.pr_net parent_sp
            | None -> ())
          | None -> ())
        | Some _ | None -> ())
    end
  in
  (match latest_span t path with
  | Some sp when not sp.sp_dead -> visit 0 sp.sp_net sp
  | _ -> ());
  List.rev !out

(* Forward fan-out: every live span (across the stores of the scope) that
   is causally downstream of [path]'s latest span — through local
   antecedent edges and through cross-network causes. *)
let blame t path =
  match latest_span t path with
  | None -> []
  | Some root ->
    let tainted = Hashtbl.create 32 in
    (* (net, id) set *)
    Hashtbl.add tainted (root.sp_net, root.sp_id) ();
    (* Tainted episodes: a child episode whose recorded cause is a
       tainted variable path makes its rootless spans downstream too. *)
    let tainted_causes = Hashtbl.create 8 in
    Hashtbl.add tainted_causes (root.sp_net, root.sp_var) ();
    let all_stores () =
      List.sort (fun a b -> compare a.rd_net b.rd_net) t.pv_scope.sc_readers
    in
    let pass () =
      let changed = ref false in
      List.iter
        (fun rd ->
          List.iter
            (fun sp ->
              if not (Hashtbl.mem tainted (sp.sp_net, sp.sp_id)) then begin
                let by_edge =
                  List.exists
                    (fun id -> Hashtbl.mem tainted (sp.sp_net, id))
                    sp.sp_antecedents
                in
                let by_cross =
                  match sp.sp_cross with
                  | Some p -> (
                    sp.sp_antecedents = []
                    &&
                    match p.pr_cause with
                    | Some cause -> Hashtbl.mem tainted_causes (p.pr_net, cause)
                    | None -> false)
                  | None -> false
                in
                if by_edge || by_cross then begin
                  Hashtbl.add tainted (sp.sp_net, sp.sp_id) ();
                  Hashtbl.replace tainted_causes (sp.sp_net, sp.sp_var) ();
                  changed := true
                end
              end)
            (rd.rd_spans ()))
        (all_stores ());
      !changed
    in
    while pass () do
      ()
    done;
    let collect rd =
      List.filter
        (fun sp ->
          Hashtbl.mem tainted (sp.sp_net, sp.sp_id)
          && not (sp.sp_net = root.sp_net && sp.sp_id = root.sp_id))
        (rd.rd_spans ())
    in
    let local, remote =
      List.partition
        (fun rd -> rd.rd_net = t.pv_net.net_name)
        (all_stores ())
    in
    List.concat_map collect (local @ remote)

(* Longest causal chain within one episode — the propagation analogue
   of a flamegraph's hottest stack.  Spans arrive in seq order, and
   antecedent edges always point backwards, so one left-to-right DP
   pass suffices. *)
let critical_path t ?episode () =
  let spans = live_spans t in
  let target =
    match episode with
    | Some e -> Some e
    | None -> (
      (* default: the most recent committed episode that created spans *)
      match List.rev spans with [] -> None | sp :: _ -> Some sp.sp_episode)
  in
  match target with
  | None -> []
  | Some ep ->
    let spans = List.filter (fun sp -> sp.sp_episode = ep) spans in
    let depth = Hashtbl.create 32 in
    (* span id -> (chain length, chain as span list, newest first) *)
    let best = ref [] in
    List.iter
      (fun sp ->
        let len, chain =
          List.fold_left
            (fun (bl, bc) id ->
              match Hashtbl.find_opt depth id with
              | Some (l, c) when l > bl -> (l, c)
              | _ -> (bl, bc))
            (0, []) sp.sp_antecedents
        in
        let entry = (len + 1, sp :: chain) in
        Hashtbl.replace depth sp.sp_id entry;
        (match !best with
        | (bl, _) :: _ when bl >= len + 1 -> ()
        | _ -> best := [ entry ]))
      spans;
    (match !best with [] -> [] | (_, chain) :: _ -> List.rev chain)

(* ---------------- episode tree ---------------- *)

type tree_node = { tn_episode : episode; tn_children : tree_node list }

(* Forest over every store of [t]'s scope: an episode is a child of the
   one its parent_ref names; parents from networks outside the scope
   leave the child a root (annotated by the printer). *)
let episode_forest t =
  let all =
    List.concat_map (fun rd -> rd.rd_episodes ()) t.pv_scope.sc_readers
    |> List.sort (fun a b ->
           compare (a.epi_net, a.epi_id) (b.epi_net, b.epi_id))
  in
  let known = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace known (e.epi_net, e.epi_id) ()) all;
  let children = Hashtbl.create 64 in
  let roots =
    List.filter
      (fun e ->
        match e.epi_parent with
        | Some p when Hashtbl.mem known (p.pr_net, p.pr_episode) ->
          let key = (p.pr_net, p.pr_episode) in
          Hashtbl.replace children key
            (e :: (try Hashtbl.find children key with Not_found -> []));
          false
        | Some _ | None -> true)
      all
  in
  let rec build e =
    let kids =
      try List.rev (Hashtbl.find children (e.epi_net, e.epi_id))
      with Not_found -> []
    in
    { tn_episode = e; tn_children = List.map build kids }
  in
  List.map build roots
