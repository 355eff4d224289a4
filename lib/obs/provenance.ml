(* The provenance store: a trace sink that turns the event stream into
   a bounded derivation DAG (the paper's dependency records, §4.2.4,
   materialised per *assignment* rather than per current value, in the
   spirit of a TMS justification database).

   Every T_assign/T_reset becomes a causal span.  The antecedent edges
   are captured at emit time — the engine traces the assignment with
   [v_just] already updated, so [Dependency.direct_antecedents] read
   inside the sink names exactly the arguments this value was inferred
   from, and the edges stay correct even after the variable is
   overwritten later.

   Cross-network stitching: spans only hold strings and ints (no 'a),
   so every attached store registers a monomorphic reader under its
   network's name in a process-global registry.  A span whose episode
   was caused by another network's episode (the parent_ref carried by
   T_episode_start) chains through that registry: [why] follows the
   parent's cause variable into the parent network's store, all the way
   back to the originating User/Application set. *)

open Constraint_kernel
open Constraint_kernel.Types

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
  mutable epi_outcome : episode_outcome option; (* None while open *)
}

(* ---------------- the cross-network registry ---------------- *)

type reader = {
  rd_net : string;
  rd_latest : string -> span option; (* var path -> latest live span *)
  rd_span : int -> span option;
  rd_spans : unit -> span list; (* live spans, oldest first *)
  rd_episodes : unit -> episode list; (* oldest first *)
}

let registry : (string, reader) Hashtbl.t = Hashtbl.create 8

let reader_for net_name = Hashtbl.find_opt registry net_name

(* ---------------- the store ---------------- *)

(* One open episode.  No per-assignment undo log is kept: store-local
   span ids are sequential, so the episode's spans are exactly the ids
   from [fr_first] up to the id current at episode end whose ring slot
   carries this episode (the episode check skips spans a nested episode
   recorded inside the range), and each ring slot remembers the
   latest-span id its assignment displaced ([rg_prior]).  Rollback
   replays the range newest-to-oldest, so the oldest span's prior — the
   true pre-episode state — is written last and wins. *)
type frame = {
  fr_episode : int;
  fr_parent : parent_ref option;
  fr_first : int; (* pv_next_id when the episode began *)
}

(* The store is shaped for the emit path: span ids are sequential, so
   the span table is a struct-of-arrays ring indexed by
   [id land (capacity-1)] (eviction is the overwrite itself), the
   per-variable tables are arrays indexed by [v_id], and the raw value
   — not its rendering — is what the ring holds.  An assignment is a
   handful of array stores: no hash tables, no span record, no string
   building beyond the first sight of each variable path.  The [span]
   records the queries traffic in are materialised (and values
   rendered) on [find_span], where the cost is paid per *question*
   rather than per event. *)
type 'a t = {
  pv_net : 'a network;
  pv_pp : 'a -> string;
  pv_capacity : int; (* a power of two *)
  pv_sink_name : string;
  rg_id : int array; (* span id held in the slot; 0 = empty *)
  rg_episode : int array;
  rg_seq : int array;
  rg_vid : int array; (* variable id; the variable is [pv_vars.(vid)] *)
  rg_value : 'a option array; (* raw value; None for a reset *)
  rg_flags : int array; (* just tag (bits 0-2) | dead | antmore *)
  rg_source : string array;
  rg_ant0 : int array; (* first antecedent span id; 0 = none *)
  rg_ant1 : int array; (* second antecedent span id; 0 = none *)
  rg_prior : int array; (* latest-span id this assignment displaced *)
  rg_cross : parent_ref option array;
  pv_ants : (int, int list) Hashtbl.t; (* span id -> antecedents, arity >= 3 *)
  mutable pv_latest : int array; (* v_id -> latest live span id, 0 = none *)
  mutable pv_vars : 'a var array; (* v_id -> the variable, once seen *)
  mutable pv_next_id : int;
  mutable pv_frames : frame list; (* innermost first *)
  pv_epi : episode array; (* episode ring, slot [id land (max_episodes-1)] *)
  mutable pv_last_epi : int; (* newest episode id noted; 0 = none *)
  mutable pv_evicted : int;
}

(* The episode log is a ring like the span table, indexed by episode
   id.  The engine numbers a network's episodes consecutively and
   traces every one while a sink is attached, so the ids a store notes
   are consecutive and the ring holds exactly the newest
   [max_episodes]. *)
let max_episodes = 1024

(* fills the episode ring's empty slots; its id 0 is never an episode's *)
let no_episode =
  { epi_net = ""; epi_id = 0; epi_label = ""; epi_parent = None;
    epi_outcome = None }

let just_names =
  [| "default"; "user"; "application"; "update"; "tentative"; "propagated" |]

let just_tag = function
  | Default -> 0
  | User -> 1
  | Application -> 2
  | Update -> 3
  | Tentative -> 4
  | Propagated _ -> 5

let flag_dead = 8

let flag_antmore = 16

(* capacity is a power of two, so the ring slot is a mask, not a div *)
let slot_of t id = id land (t.pv_capacity - 1)

let find_span t id =
  if id <= 0 then None
  else
    let slot = slot_of t id in
    if t.rg_id.(slot) <> id then None
    else
      let flags = t.rg_flags.(slot) in
      Some
        {
          sp_id = id;
          sp_net = t.pv_net.net_name;
          sp_episode = t.rg_episode.(slot);
          sp_seq = t.rg_seq.(slot);
          sp_var = Var.path t.pv_vars.(t.rg_vid.(slot));
          sp_value = Option.map t.pv_pp t.rg_value.(slot);
          sp_just = just_names.(flags land 7);
          sp_source = t.rg_source.(slot);
          sp_antecedents =
            (if flags land flag_antmore <> 0 then
               match Hashtbl.find_opt t.pv_ants id with
               | Some l -> l
               | None -> []
             else
               match (t.rg_ant0.(slot), t.rg_ant1.(slot)) with
               | 0, _ -> []
               | a, 0 -> [ a ]
               | a, b -> [ a; b ]);
          sp_cross = t.rg_cross.(slot);
          sp_dead = flags land flag_dead <> 0;
        }

(* Grow the per-variable arrays to cover [v] and enter [v] at its id.
   New slots of [pv_vars] are padded with [v] itself; a slot is read
   only for a variable that has passed through here. *)
let ensure_var t v =
  let len = Array.length t.pv_latest in
  if v.v_id >= len then begin
    let n = max (v.v_id + 1) ((2 * len) + 16) in
    let latest = Array.make n 0 and vars = Array.make n v in
    Array.blit t.pv_latest 0 latest 0 len;
    Array.blit t.pv_vars 0 vars 0 len;
    t.pv_latest <- latest;
    t.pv_vars <- vars
  end
  else if Array.unsafe_get t.pv_vars v.v_id != v then
    Array.unsafe_set t.pv_vars v.v_id v

(* Queries address variables by path, through the network's path
   index; the emit path addresses them by [v_id]. *)
let latest_span t path =
  match Editor.find_var t.pv_net path with
  | Some v when v.v_id < Array.length t.pv_latest ->
    find_span t t.pv_latest.(v.v_id)
  | Some _ | None -> None

let live_spans t =
  let lo = max 1 (t.pv_next_id - t.pv_capacity) in
  let acc = ref [] in
  for id = t.pv_next_id - 1 downto lo do
    match find_span t id with
    | Some sp when not sp.sp_dead -> acc := sp :: !acc
    | Some _ | None -> ()
  done;
  !acc

(* oldest first: walk the ring back from the newest id *)
let episodes t =
  let rec collect id acc =
    if id <= 0 || id <= t.pv_last_epi - max_episodes then acc
    else
      let e = t.pv_epi.(id land (max_episodes - 1)) in
      collect (id - 1) (if e.epi_id = id then e :: acc else acc)
  in
  collect t.pv_last_epi []

let evicted t = t.pv_evicted

let spilled t = Hashtbl.length t.pv_ants

let net_name t = t.pv_net.net_name

(* ---------------- sink behaviour ---------------- *)

(* The latest live span id of [arg], if [arg] is a recorded antecedent
   of [v]'s current justification; 0 otherwise. *)
let ant_of t v source record arg =
  if (not (Var.equal arg v)) && source.c_in_dependency source record arg
  then begin
    ensure_var t arg;
    Array.unsafe_get t.pv_latest arg.v_id
  end
  else 0

(* One assignment (or reset, with [value] = None).  [ant0]/[ant1]/[more]
   carry the antecedent span ids in argument order; arities 0 to 2 —
   every unary and binary [sum]/[max] step — stay in the flat ring,
   higher arities spill whole to [pv_ants]. *)
let record_span t ep seq v ~value ~source ~ant0 ~ant1 ~more =
  let vid = v.v_id in
  ensure_var t v;
  let id = t.pv_next_id in
  t.pv_next_id <- id + 1;
  let cross =
    match t.pv_frames with
    | f :: _ when f.fr_episode = ep -> f.fr_parent
    | _ -> None (* sink attached mid-episode *)
  in
  (* [slot] is masked into the ring and [vid] was range-checked by
     [ensure_var], so the unchecked accesses are in bounds *)
  let slot = slot_of t id in
  (match Array.unsafe_get t.rg_id slot with
  | 0 -> ()
  | evicted ->
    t.pv_evicted <- t.pv_evicted + 1;
    if Array.unsafe_get t.rg_flags slot land flag_antmore <> 0 then
      Hashtbl.remove t.pv_ants evicted);
  Array.unsafe_set t.rg_id slot id;
  Array.unsafe_set t.rg_episode slot ep;
  Array.unsafe_set t.rg_seq slot seq;
  Array.unsafe_set t.rg_vid slot vid;
  Array.unsafe_set t.rg_value slot value;
  Array.unsafe_set t.rg_source slot source;
  Array.unsafe_set t.rg_ant0 slot ant0;
  Array.unsafe_set t.rg_ant1 slot ant1;
  Array.unsafe_set t.rg_prior slot (Array.unsafe_get t.pv_latest vid);
  (match more with
  | [] -> Array.unsafe_set t.rg_flags slot (just_tag v.v_just)
  | more ->
    Array.unsafe_set t.rg_flags slot (just_tag v.v_just lor flag_antmore);
    Hashtbl.replace t.pv_ants id (ant0 :: ant1 :: more));
  Array.unsafe_set t.rg_cross slot cross;
  Array.unsafe_set t.pv_latest vid id

let begin_frame t ep parent =
  t.pv_frames <-
    { fr_episode = ep; fr_parent = parent; fr_first = t.pv_next_id }
    :: t.pv_frames

(* An episode that did not commit (rollback or tentative probe) leaves
   the network exactly as it found it; make the index agree by killing
   the episode's spans and restoring the displaced latest entries. *)
let end_frame t ep outcome =
  match t.pv_frames with
  | f :: rest when f.fr_episode = ep ->
    t.pv_frames <- rest;
    if outcome <> E_committed then
      (* newest to oldest, so the oldest (pre-episode) prior per
         variable is applied last and wins.  Spans this episode lost to
         eviction mid-flight take their prior with them: the variable's
         latest entry is left pointing at an evicted id, which reads as
         "no recorded span" — a truncation, never a wrong answer. *)
      for id = t.pv_next_id - 1 downto f.fr_first do
        let slot = slot_of t id in
        if t.rg_id.(slot) = id && t.rg_episode.(slot) = ep then begin
          t.rg_flags.(slot) <- t.rg_flags.(slot) lor flag_dead;
          t.pv_latest.(t.rg_vid.(slot)) <- t.rg_prior.(slot)
        end
      done
  | _ -> () (* unbalanced (attached mid-episode): ignore *)

(* Noting overwrites the slot of the episode [max_episodes] ids back:
   eviction is the store itself. *)
let note_episode t id label parent =
  t.pv_epi.(id land (max_episodes - 1)) <-
    { epi_net = t.pv_net.net_name; epi_id = id; epi_label = label;
      epi_parent = parent; epi_outcome = None };
  t.pv_last_epi <- id

let finish_episode t id outcome =
  let e = t.pv_epi.(id land (max_episodes - 1)) in
  if e.epi_id = id then e.epi_outcome <- Some outcome

(* The antecedents of an assignment propagated by [source], gathered in
   argument order by a plain walk over its arguments: the first two
   nonzero span ids ride in [a0]/[a1], a third starts the spilled tail,
   which [ants_tail] completes. *)
let rec ants_tail t v source record = function
  | [] -> []
  | arg :: rest -> (
    match ant_of t v source record arg with
    | 0 -> ants_tail t v source record rest
    | id -> id :: ants_tail t v source record rest)

let rec record_assign t ep seq v src source record a0 a1 = function
  | [] ->
    (* the engine assigns before tracing, so [v.v_value] here is the
       very [Some x] box it just stored — share it rather than boxing
       the event payload again (options are immutable; the span records
       the assigned value either way) *)
    record_span t ep seq v ~value:v.v_value ~source:src ~ant0:a0 ~ant1:a1
      ~more:[]
  | arg :: rest -> (
    match ant_of t v source record arg with
    | 0 -> record_assign t ep seq v src source record a0 a1 rest
    | id when a0 = 0 -> record_assign t ep seq v src source record id 0 rest
    | id when a1 = 0 -> record_assign t ep seq v src source record a0 id rest
    | id ->
      record_span t ep seq v ~value:v.v_value ~source:src ~ant0:a0 ~ant1:a1
        ~more:(id :: ants_tail t v source record rest))

let emit t ep seq ev =
  match ev with
  | T_episode_start (id, label, parent) ->
    begin_frame t id parent;
    note_episode t id label parent
  | T_episode_end sp ->
    end_frame t sp.es_id sp.es_outcome;
    finish_episode t sp.es_id sp.es_outcome
  | T_assign (v, _, src) -> (
    (* [Dependency.direct_antecedents] fused with the latest-span
       lookup *)
    match v.v_just with
    | Propagated { source; record } ->
      record_assign t ep seq v src source record 0 0 source.c_args
    | Default | User | Application | Update | Tentative ->
      record_span t ep seq v ~value:v.v_value ~source:src ~ant0:0 ~ant1:0
        ~more:[])
  | T_reset (v, src) ->
    record_span t ep seq v ~value:None ~source:src ~ant0:0 ~ant1:0 ~more:[]
  | T_activate _ | T_schedule _ | T_check _ | T_violation _ | T_restore _
  | T_quarantine _ ->
    ()

(* ---------------- attach / detach ---------------- *)

let default_sink_name = "provenance"

let rec pow2_above n k = if k >= n then k else pow2_above n (k * 2)

let attach ?(name = default_sink_name) ?(capacity = 8192)
    ?(pp_value = fun _ -> "<opaque>") net =
  let capacity = pow2_above (max 16 capacity) 16 in
  let t =
    {
      pv_net = net;
      pv_pp = pp_value;
      pv_capacity = capacity;
      pv_sink_name = name;
      rg_id = Array.make capacity 0;
      rg_episode = Array.make capacity 0;
      rg_seq = Array.make capacity 0;
      rg_vid = Array.make capacity 0;
      rg_value = Array.make capacity None;
      rg_flags = Array.make capacity 0;
      rg_source = Array.make capacity "";
      rg_ant0 = Array.make capacity 0;
      rg_ant1 = Array.make capacity 0;
      rg_prior = Array.make capacity 0;
      rg_cross = Array.make capacity None;
      pv_ants = Hashtbl.create 16;
      pv_latest = [||];
      pv_vars = [||];
      pv_next_id = 1;
      pv_frames = [];
      pv_epi = Array.make max_episodes no_episode;
      pv_last_epi = 0;
      pv_evicted = 0;
    }
  in
  Engine.add_sink net { snk_name = name; snk_emit = (fun ep seq ev -> emit t ep seq ev) };
  Hashtbl.replace registry net.net_name
    {
      rd_net = net.net_name;
      rd_latest = latest_span t;
      rd_span = find_span t;
      rd_spans = (fun () -> live_spans t);
      rd_episodes = (fun () -> episodes t);
    };
  t

let detach t =
  ignore (Engine.remove_sink t.pv_net t.pv_sink_name);
  Hashtbl.remove registry t.pv_net.net_name

(* ---------------- queries ---------------- *)

type why_step = { ws_depth : int; ws_span : span }

(* Backward chain.  Local edges are the captured antecedent span ids;
   when a span has no local antecedents but its episode was caused by
   another network's episode, the chain crosses into that network's
   store through the registry, continuing at the parent-side cause
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
            match reader_for net_name with
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
          match reader_for p.pr_net with
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

(* Forward fan-out: every live span (across all registered stores) that
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
      Hashtbl.fold (fun _ rd acc -> rd :: acc) registry []
      |> List.sort (fun a b -> compare a.rd_net b.rd_net)
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

(* Forest over every registered store: an episode is a child of the one
   its parent_ref names; parents from unregistered networks leave the
   child a root (annotated by the printer). *)
let episode_forest () =
  let all =
    Hashtbl.fold (fun _ rd acc -> rd.rd_episodes () @ acc) registry []
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

(* ---------------- printing ---------------- *)

let pp_span ppf sp =
  let value =
    match sp.sp_value with Some v -> v | None -> "NIL"
  in
  Fmt.pf ppf "%s = %s  [%s via %s, %s ep%d seq%d%s]" sp.sp_var value sp.sp_just
    sp.sp_source sp.sp_net sp.sp_episode sp.sp_seq
    (if sp.sp_dead then ", rolled back" else "")

let pp_why_step ppf { ws_depth; ws_span } =
  Fmt.pf ppf "%s%a"
    (String.concat "" (List.init ws_depth (fun _ -> "  ")))
    pp_span ws_span

let pp_why ppf steps =
  if steps = [] then Fmt.string ppf "no recorded derivation"
  else Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut pp_why_step) steps

let pp_chain ppf spans =
  if spans = [] then Fmt.string ppf "no spans"
  else Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut pp_span) spans

let pp_episode ppf e =
  Fmt.pf ppf "%s#ep%d (%s)%s" e.epi_net e.epi_id e.epi_label
    (match e.epi_outcome with
    | None -> " open"
    | Some E_committed -> ""
    | Some E_rolled_back -> " ROLLED BACK"
    | Some E_probe_ok -> " probe-ok"
    | Some E_probe_rejected -> " probe-rejected")

let pp_forest ppf forest =
  let rec pp_node indent ppf node =
    Fmt.pf ppf "%s%a" indent pp_episode node.tn_episode;
    List.iter
      (fun child -> Fmt.pf ppf "@,%a" (pp_node (indent ^ "  ")) child)
      node.tn_children
  in
  if forest = [] then Fmt.string ppf "no episodes recorded"
  else
    Fmt.pf ppf "@[<v>%a@]"
      (Fmt.list ~sep:Fmt.cut (fun ppf n -> pp_node "" ppf n))
      forest
