open Types

let ( let* ) = Result.bind

let src = Logs.Src.create "constraint_kernel" ~doc:"STEM constraint propagation"

module Log = (val Logs.src_log src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Networks                                                            *)
(* ------------------------------------------------------------------ *)

let default_handler viol =
  Log.warn (fun m -> m "%a" pp_violation viol)

(* The default phase clock.  Compared physically, so the common case
   calls [Unix.gettimeofday] directly and its result stays unboxed. *)
let default_clock : unit -> float = Unix.gettimeofday

let create_network ?(name = "network") () =
  {
    net_name = name;
    net_enabled = true;
    net_max_changes = 100;
    net_on_violation = default_handler;
    net_sinks = [];
    net_log = None;
    net_clock = default_clock;
    net_next_episode = 0;
    net_cur_episode = 0;
    net_agenda_totals = Hashtbl.create 7;
    net_next_seq = 0;
    net_next_var_id = 0;
    net_next_cstr_id = 0;
    net_vars = [];
    net_paths = Hashtbl.create 64;
    net_cstrs = [];
    net_disabled_kinds = [];
    net_fail_threshold = 3;
    net_step_budget = None;
    net_audit_on_restore = false;
    net_stats = fresh_counters ();
  }

let enable net = net.net_enabled <- true

let disable net = net.net_enabled <- false

let is_enabled net = net.net_enabled

(* The kind list is the record of what is disabled; each constraint
   carries the resolved flag ([c_kind_disabled]), set here for existing
   constraints and by [Cstr.make] for later ones. *)
let set_kind_flags net kind off =
  List.iter
    (fun c -> if c.c_kind = kind then c.c_kind_disabled <- off)
    net.net_cstrs

let disable_kind net kind =
  if not (List.mem kind net.net_disabled_kinds) then
    net.net_disabled_kinds <- kind :: net.net_disabled_kinds;
  set_kind_flags net kind true

let enable_kind net kind =
  net.net_disabled_kinds <- List.filter (( <> ) kind) net.net_disabled_kinds;
  set_kind_flags net kind false

let set_violation_handler net h = net.net_on_violation <- h

(* ------------------------------------------------------------------ *)
(* Trace sinks                                                         *)
(* ------------------------------------------------------------------ *)

(* Sinks fan out in registration order.  Registering a sink under a
   name that is already taken replaces the old sink in place, so a
   long-lived subscriber (a file exporter, say) can be swapped without
   losing its position in the order. *)
let add_sink net s =
  if List.exists (fun s' -> s'.snk_name = s.snk_name) net.net_sinks then
    net.net_sinks <-
      List.map (fun s' -> if s'.snk_name = s.snk_name then s else s') net.net_sinks
  else net.net_sinks <- net.net_sinks @ [ s ]

let remove_sink net name =
  let before = List.length net.net_sinks in
  net.net_sinks <- List.filter (fun s -> s.snk_name <> name) net.net_sinks;
  List.length net.net_sinks < before

let sinks net = net.net_sinks

let clear_sinks net = net.net_sinks <- []

let attach_log net lg ~on_episode_end =
  lg.lg_on_end <- on_episode_end;
  net.net_log <- Some lg

let detach_log net = net.net_log <- None

let set_clock net clock = net.net_clock <- clock

let set_fail_threshold net n = net.net_fail_threshold <- max 0 n

let set_step_budget net b = net.net_step_budget <- b

let set_audit_on_restore net b = net.net_audit_on_restore <- b

let stats net = snapshot_stats net.net_stats

let reset_stats net =
  let s = net.net_stats in
  s.k_assignments <- 0;
  s.k_inferences <- 0;
  s.k_checks <- 0;
  s.k_scheduled <- 0;
  s.k_violations <- 0;
  s.k_propagations <- 0;
  s.k_trapped <- 0;
  s.k_quarantined <- 0;
  s.k_sink_errors <- 0;
  s.k_wakeups <- 0;
  s.k_suppressed <- 0;
  Hashtbl.reset net.net_agenda_totals

(* Cumulative per-stratum agenda accounting (ascending by priority),
   merged from every finished episode's agenda. *)
let agenda_totals net =
  Hashtbl.fold (fun p t acc -> (p, t) :: acc) net.net_agenda_totals []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* A throwing sink is an observability failure, never a propagation
   failure: trap, count, log, keep going — both to the remaining sinks
   and with the episode itself. *)
let rec fan_out net ep seq ev = function
  | [] -> ()
  | s :: rest ->
    (try s.snk_emit ep seq ev
     with e ->
       net.net_stats.k_sink_errors <- net.net_stats.k_sink_errors + 1;
       Log.warn (fun m ->
           m "trace sink %S raised (ignored): %s" s.snk_name
             (Printexc.to_string e)));
    fan_out net ep seq ev rest

(* Hot-path call sites test this before even allocating the event, so a
   quiet network pays two pointer comparisons per would-be event. *)
let[@inline] tracing net = net.net_sinks != []

let[@inline] observed net = net.net_log != None || net.net_sinks != []

(* One sequence number per event, shared by the log and the sinks. *)
let[@inline] next_seq net =
  let seq = net.net_next_seq + 1 in
  net.net_next_seq <- seq;
  seq

(* Any event, built: the log's row and the sinks.  The frequent events
   skip the build when only the log is attached: their sites below
   write the log directly and build the event for the sinks alone. *)
let trace net ev =
  if observed net then begin
    let seq = next_seq net in
    (match net.net_log with
    | Some lg -> Event_log.push lg net.net_cur_episode seq ev
    | None -> ());
    if tracing net then fan_out net net.net_cur_episode seq ev net.net_sinks
  end

let log_assign net v x src =
  let seq = next_seq net and ep = net.net_cur_episode in
  (match net.net_log with
  | Some lg -> Event_log.assign lg ep seq v x src
  | None -> ());
  if tracing net then fan_out net ep seq (T_assign (v, x, src)) net.net_sinks

let log_reset net v src =
  let seq = next_seq net and ep = net.net_cur_episode in
  (match net.net_log with Some lg -> Event_log.reset lg ep seq v src | None -> ());
  if tracing net then fan_out net ep seq (T_reset (v, src)) net.net_sinks

let log_restore net v =
  let seq = next_seq net and ep = net.net_cur_episode in
  (match net.net_log with Some lg -> Event_log.restore lg ep seq v | None -> ());
  if tracing net then fan_out net ep seq (T_restore v) net.net_sinks

let log_activate net c changed =
  let seq = next_seq net and ep = net.net_cur_episode in
  (match net.net_log with
  | Some lg -> Event_log.activate lg ep seq c changed
  | None -> ());
  if tracing net then fan_out net ep seq (T_activate (c, changed)) net.net_sinks

let log_schedule net c priority =
  let seq = next_seq net and ep = net.net_cur_episode in
  (match net.net_log with
  | Some lg -> Event_log.schedule lg ep seq c priority
  | None -> ());
  if tracing net then fan_out net ep seq (T_schedule (c, priority)) net.net_sinks

let log_check net c sat =
  let seq = next_seq net and ep = net.net_cur_episode in
  (match net.net_log with Some lg -> Event_log.check lg ep seq c sat | None -> ());
  if tracing net then fan_out net ep seq (T_check (c, sat)) net.net_sinks

(* Traced companions of [Var.poke]/[Var.clear]: still plain stores (no
   propagation, no checking, no episode) but visible to the sinks, so a
   from-creation trace replays to the exact live snapshot even when the
   design model seeds values directly (declared interface
   characteristics, lazy property recalculation, the CPSwitch-off
   path). *)
let poke net v x ~just =
  Var.poke v x ~just;
  if observed net then log_assign net v x "poke"

let clear net v =
  Var.clear v;
  if observed net then log_reset net v "poke"

(* ------------------------------------------------------------------ *)
(* Fault accounting and quarantine                                     *)
(* ------------------------------------------------------------------ *)

(* An exception escaped a constraint's inference or satisfaction
   procedure.  Count it, and when the failure count reaches the
   network's threshold, quarantine the constraint: disable it with a
   recorded reason so the broken procedure degrades its own cell rather
   than wedging every episode that touches it. *)
let note_failure net c ~where exn =
  net.net_stats.k_trapped <- net.net_stats.k_trapped + 1;
  c.c_failures <- c.c_failures + 1;
  if
    net.net_fail_threshold > 0
    && c.c_failures >= net.net_fail_threshold
    && c.c_quarantined = None
  then begin
    let reason =
      Printf.sprintf "%d failure(s); last: exception in %s: %s" c.c_failures
        where (Printexc.to_string exn)
    in
    c.c_quarantined <- Some reason;
    c.c_enabled <- false;
    net.net_stats.k_quarantined <- net.net_stats.k_quarantined + 1;
    trace net (T_quarantine (c, reason));
    Log.warn (fun m -> m "quarantined %s#%d: %s" c.c_kind c.c_id reason)
  end

let trapped_violation net ?cstr ?var ~where exn =
  (match cstr with
  | Some c -> note_failure net c ~where exn
  | None -> net.net_stats.k_trapped <- net.net_stats.k_trapped + 1);
  violation ?cstr ?var ~exn (Printf.sprintf "exception in %s" where)

(* ------------------------------------------------------------------ *)
(* Contexts                                                            *)
(* ------------------------------------------------------------------ *)

let new_ctx net =
  {
    cx_net = net;
    cx_trail = Trail_end;
    cx_stamp = fresh_stamp ();
    cx_cstr_order = [];
    cx_agenda = Agenda.create ();
    cx_steps = 0;
    cx_agenda_hwm = 0;
    cx_watch_undo = [];
  }

(* The first write of [v] in this episode stamps it, zeroes its change
   counter and pushes its prior state on the trail.  A nested episode on
   the same network re-stamps the variables it writes, so a later write
   here saves them a second time; the restore below runs newest-first,
   which leaves the first (pre-episode) state in place. *)
let save_state ctx v =
  if v.v_stamp <> ctx.cx_stamp then begin
    v.v_stamp <- ctx.cx_stamp;
    v.v_changes <- 0;
    ctx.cx_trail <-
      Saved
        {
          sv_var = v;
          sv_value = v.v_value;
          sv_just = v.v_just;
          sv_next = ctx.cx_trail;
        }
  end

let visited ctx v = v.v_stamp = ctx.cx_stamp

(* Restoration must complete no matter what the change hooks do: a
   throwing [v_on_change] is counted and logged, never allowed to leave
   later variables unrestored. *)
(* Rolling back an episode also rolls back its 2-watch rotations: a
   rotation was chosen against values the restore is about to erase, so
   keeping it could leave a watch on a set variable while two arguments
   are unset — exactly the state in which a suppressed wakeup misses an
   inference. *)
let undo_watches ctx =
  List.iter (fun f -> f ()) ctx.cx_watch_undo;
  ctx.cx_watch_undo <- []

let restore ctx =
  undo_watches ctx;
  let rec go = function
    | Trail_end -> ()
    | Saved { sv_var = v; sv_value; sv_just; sv_next } ->
      v.v_value <- sv_value;
      v.v_just <- sv_just;
      if observed ctx.cx_net then log_restore ctx.cx_net v;
      (try v.v_on_change v
       with e ->
         ctx.cx_net.net_stats.k_trapped <- ctx.cx_net.net_stats.k_trapped + 1;
         Log.warn (fun m ->
             m "on-change hook of %s raised during restore: %s" v.v_path
               (Printexc.to_string e)));
      go sv_next
  in
  go ctx.cx_trail;
  ctx.cx_trail <- Trail_end

let[@inline] cstr_enabled c = c.c_enabled && not c.c_kind_disabled

(* O(1) visited-marking via episode stamps: no hashing, one int compare
   and (at most) one store per touch. *)
let mark_cstr ctx c =
  if c.c_mark <> ctx.cx_stamp then begin
    c.c_mark <- ctx.cx_stamp;
    ctx.cx_cstr_order <- c :: ctx.cx_cstr_order
  end

(* ------------------------------------------------------------------ *)
(* Activation and draining                                             *)
(* ------------------------------------------------------------------ *)

let budget_prefix = "step budget exhausted"

let over_budget viol =
  String.starts_with ~prefix:budget_prefix viol.viol_message

let run_inference ctx c changed =
  let net = ctx.cx_net in
  ctx.cx_steps <- ctx.cx_steps + 1;
  match net.net_step_budget with
  | Some budget when ctx.cx_steps > budget ->
    Error
      (violation ~cstr:c
         (Printf.sprintf "%s: more than %d inference runs in one episode"
            budget_prefix budget))
  | _ -> (
    net.net_stats.k_inferences <- net.net_stats.k_inferences + 1;
    if observed net then log_activate net c changed;
    match c.c_propagate ctx c changed with
    | result -> result
    | exception e ->
      Error
        (trapped_violation net ~cstr:c
           ~where:(Printf.sprintf "propagate of %s#%d" c.c_kind c.c_id)
           e))

(* [List.exists (Var.equal v)] without the partial application: this
   runs once per activation. *)
let rec watches ws v =
  match ws with [] -> false | w :: rest -> w.v_id = v.v_id || watches rest v

(* Deliver a wakeup: mark the constraint, consult its wake spec, then
   run the inference now or push it on its agenda stratum.  On the hot
   path ([propagate_from]) watch-based gating has already happened
   through the per-variable watcher index, and the membership test here
   merely re-confirms it; the test is what keeps direct activations
   ([propagate_along] during re-initialisation, [changed = Some v])
   faithful to the spec — e.g. a functional constraint asserts nothing
   through its own result variable.  [changed = None] always wakes. *)
let activate ctx c ~changed =
  if not (cstr_enabled c) then Ok ()
  else begin
    mark_cstr ctx c;
    let wanted =
      match c.c_activation.act_wake with
      | Wake_all -> true
      | Custom f -> f c changed
      | Watch _ | Two_watch -> (
        match changed with None -> true | Some v -> watches c.c_watching v)
    in
    if not wanted then Ok ()
    else
      match c.c_activation.act_schedule with
      | Immediate -> run_inference ctx c changed
      | On_agenda priority ->
        let var = if c.c_activation.act_keyed_by_var then changed else None in
        if Agenda.schedule ctx.cx_agenda ~priority c ~var then begin
          ctx.cx_net.net_stats.k_scheduled <- ctx.cx_net.net_stats.k_scheduled + 1;
          let depth = Agenda.length ctx.cx_agenda in
          if depth > ctx.cx_agenda_hwm then ctx.cx_agenda_hwm <- depth;
          if observed ctx.cx_net then log_schedule ctx.cx_net c priority
        end;
        Ok ()
  end

(* The implicit-constraint hook is user code too: trap it so a broken
   structural hook surfaces as a violation on the owning variable. *)
let constraints_of ctx v =
  match Var.all_constraints v with
  | cs -> Ok cs
  | exception e ->
    ctx.cx_net.net_stats.k_trapped <- ctx.cx_net.net_stats.k_trapped + 1;
    Error
      (violation ~var:v ~exn:e
         (Printf.sprintf "exception in implicit-constraint hook of %s" v.v_path))

(* 2-watch rotation: [v], watched by [c], just received a value.  Try to
   move the watch to an unset, currently-unwatched argument; succeed =
   the wakeup is suppressed.  With no replacement available fewer than
   two arguments remain unset — promote to watching every argument
   (ground fallback) and wake, since [c] may now be able to infer.
   Every mutation is logged for episode rollback: the rotation was
   chosen against values a restore would erase. *)
let rotate_watch ctx c v =
  if List.compare_lengths c.c_watching c.c_args >= 0 then false
  else begin
    let watched u = List.exists (Var.equal u) c.c_watching in
    let old_watching = c.c_watching in
    match
      List.find_opt (fun u -> u.v_value = None && not (watched u)) c.c_args
    with
    | Some u ->
      c.c_watching <- u :: List.filter (fun w -> not (Var.equal w v)) old_watching;
      v.v_watchers <- List.filter (fun c' -> c'.c_id <> c.c_id) v.v_watchers;
      u.v_watchers <- u.v_watchers @ [ c ];
      ctx.cx_watch_undo <-
        (fun () ->
          c.c_watching <- old_watching;
          u.v_watchers <- List.filter (fun c' -> c'.c_id <> c.c_id) u.v_watchers;
          if not (List.exists (fun c' -> c'.c_id = c.c_id) v.v_watchers) then
            v.v_watchers <- v.v_watchers @ [ c ])
        :: ctx.cx_watch_undo;
      true
    | None ->
      c.c_watching <- c.c_args;
      let added =
        List.filter
          (fun u -> not (List.exists (fun c' -> c'.c_id = c.c_id) u.v_watchers))
          c.c_args
      in
      List.iter (fun u -> u.v_watchers <- u.v_watchers @ [ c ]) added;
      ctx.cx_watch_undo <-
        (fun () ->
          c.c_watching <- old_watching;
          List.iter
            (fun u ->
              u.v_watchers <-
                List.filter (fun c' -> c'.c_id <> c.c_id) u.v_watchers)
            added)
        :: ctx.cx_watch_undo;
      false
  end

(* A variable changed.  Two walks:

   - the {e mark-walk} touches every attached constraint so it joins the
     final is_satisfied sweep — watching narrows inference, never
     checking (a functional constraint whose result is overwritten must
     still be checked even though it is not woken);
   - the {e wake-walk} runs inference for the watching constraints only
     (plus the implicit hierarchy constraints, which are derived from
     structure and always wake).

   The gap between the two walks is what [k_suppressed] counts — the
   wakeups the paper's wake-all discipline would have delivered.

   The walks are written as plain recursive functions with explicit
   matches (no [let*], no local closures or refs) because they run once
   per propagation step; [skip_id] is the id of the constraint that made
   the change, or -1. *)
let rec mark_attached ctx skip_id n = function
  | [] -> n
  | c :: rest ->
    if c.c_id <> skip_id && cstr_enabled c then begin
      mark_cstr ctx c;
      mark_attached ctx skip_id (n + 1) rest
    end
    else mark_attached ctx skip_id n rest

(* [unwoken] counts down from the number of marked constraints; what is
   left when the walk ends (or fails) was suppressed. *)
let note_suppressed net unwoken =
  if unwoken > 0 then
    net.net_stats.k_suppressed <- net.net_stats.k_suppressed + unwoken

let rec wake_watchers ctx v changed skip_id unwoken = function
  | [] ->
    note_suppressed ctx.cx_net unwoken;
    Ok ()
  | c :: rest ->
    if not (cstr_enabled c) then wake_watchers ctx v changed skip_id unwoken rest
    else begin
      (* rotation bookkeeping runs even for the source constraint: its
         watch must leave the variable it just set *)
      let suppressed =
        match c.c_activation.act_wake with
        | Two_watch -> rotate_watch ctx c v
        | Wake_all | Watch _ | Custom _ -> false
      in
      if suppressed || c.c_id = skip_id then
        wake_watchers ctx v changed skip_id unwoken rest
      else begin
        let stats = ctx.cx_net.net_stats in
        stats.k_wakeups <- stats.k_wakeups + 1;
        match activate ctx c ~changed with
        | Ok () -> wake_watchers ctx v changed skip_id (unwoken - 1) rest
        | Error _ as e ->
          note_suppressed ctx.cx_net (unwoken - 1);
          e
      end
    end

let rec wake_implicit ctx changed skip_id = function
  | [] -> Ok ()
  | c :: rest ->
    if c.c_id = skip_id || not (cstr_enabled c) then
      wake_implicit ctx changed skip_id rest
    else begin
      let stats = ctx.cx_net.net_stats in
      stats.k_wakeups <- stats.k_wakeups + 1;
      match activate ctx c ~changed with
      | Ok () -> wake_implicit ctx changed skip_id rest
      | Error _ as e -> e
    end

let propagate_changed ctx v skip_id =
  let eligible = mark_attached ctx skip_id 0 v.v_cstrs in
  let changed = Some v in
  (* the watcher list is read once: rotation mutates the live one *)
  match wake_watchers ctx v changed skip_id eligible v.v_watchers with
  | Error _ as e -> e
  | Ok () -> (
    match v.v_implicit v with
    | [] -> Ok ()
    | implicit -> wake_implicit ctx changed skip_id implicit
    | exception e ->
      ctx.cx_net.net_stats.k_trapped <- ctx.cx_net.net_stats.k_trapped + 1;
      Error
        (violation ~var:v ~exn:e
           (Printf.sprintf "exception in implicit-constraint hook of %s"
              v.v_path)))

let propagate_from ctx v ~except =
  propagate_changed ctx v (match except with None -> -1 | Some c -> c.c_id)

let rec drain ctx =
  match Agenda.pop ctx.cx_agenda with
  | None -> Ok ()
  | Some { e_cstr; e_var } ->
    if cstr_enabled e_cstr then
      match run_inference ctx e_cstr e_var with
      | Ok () -> drain ctx
      | Error _ as e -> e
    else drain ctx

let check_one net c =
  if not (cstr_enabled c) then Ok ()
  else begin
    net.net_stats.k_checks <- net.net_stats.k_checks + 1;
    match c.c_satisfied c with
    | sat ->
      if observed net then log_check net c sat;
      if sat then Ok ()
      else
        Error
          (violation ~cstr:c
             (Printf.sprintf "constraint %s#%d not satisfied after propagation"
                c.c_kind c.c_id))
    | exception e ->
      Error
        (trapped_violation net ~cstr:c
           ~where:(Printf.sprintf "satisfied of %s#%d" c.c_kind c.c_id)
           e)
  end

(* [cx_cstr_order] is newest first; checking on the way back out of the
   recursion visits it in activation order without reversing (and
   allocating) the list, and stops at the first violation. *)
let check_visited ctx =
  let net = ctx.cx_net in
  let rec go = function
    | [] -> Ok ()
    | c :: older -> (
      match go older with Ok () -> check_one net c | Error _ as e -> e)
  in
  go ctx.cx_cstr_order

(* ------------------------------------------------------------------ *)
(* Cross-network episode correlation                                   *)
(* ------------------------------------------------------------------ *)

(* The (process-global) stack of episodes currently in flight, across
   every network.  When an episode begins while another is still open —
   nested same-network propagation, or a cross-network push from an
   implicit dual constraint — its [T_episode_start] records the
   innermost open episode as its parent, which is what lets a
   hierarchy-wide propagation be stitched back into one trace tree.
   [af_cause] is the parent-side variable whose assignment caused the
   child episode; it is refreshed on every traced assignment and can be
   pinned explicitly by bridging constraints ({!note_trace_cause}) just
   before they push into another network. *)
type ambient_frame = {
  af_net : string;
  af_episode : int;
  mutable af_cause : string; (* "" = not known *)
}

let ambient_stack : ambient_frame list ref = ref []

let current_trace_parent () =
  match !ambient_stack with
  | [] -> None
  | f :: _ ->
    Some
      {
        pr_net = f.af_net;
        pr_episode = f.af_episode;
        pr_cause = (if f.af_cause = "" then None else Some f.af_cause);
      }

let note_trace_cause path =
  match !ambient_stack with [] -> () | f :: _ -> f.af_cause <- path

(* ------------------------------------------------------------------ *)
(* Assignment inside an episode                                        *)
(* ------------------------------------------------------------------ *)

let change_count ctx v = if v.v_stamp = ctx.cx_stamp then v.v_changes else 0

(* The change hook runs with the new value already installed; if it
   throws, the violation aborts the episode and the saved state (taken
   before the store) rolls the variable back. *)
let install ctx v x ~just ~source_label =
  save_state ctx v;
  v.v_changes <- v.v_changes + 1;
  v.v_value <- Some x;
  v.v_just <- just;
  ctx.cx_net.net_stats.k_assignments <- ctx.cx_net.net_stats.k_assignments + 1;
  if observed ctx.cx_net then begin
    log_assign ctx.cx_net v x source_label;
    (* keep the ambient frame's cause current, so a cross-network push
       triggered by this assignment can name its exact antecedent *)
    note_trace_cause v.v_path
  end;
  match v.v_on_change v with
  | () -> Ok ()
  | exception e ->
    ctx.cx_net.net_stats.k_trapped <- ctx.cx_net.net_stats.k_trapped + 1;
    Error
      (violation ~var:v ~exn:e
         (Printf.sprintf "exception in on-change hook of %s" v.v_path))

(* The justification of an assignment by [source]: the constraint's
   shared [All_arguments] record, built on first use, or a fresh one for
   any other dependency record. *)
let propagated source record =
  match record, source.c_all_args_just with
  | All_arguments, (Propagated _ as j) -> j
  | All_arguments, _ ->
    let j = Propagated { source; record = All_arguments } in
    source.c_all_args_just <- j;
    j
  | (Single_var _ | Some_vars _ | Opaque), _ -> Propagated { source; record }

let set_by_constraint ctx v x ~source ~record =
  match v.v_value with
  | Some cur when v.v_equal cur x ->
    (* termination criterion: the current value agrees (§4.2.2) *)
    Ok ()
  | cur_opt ->
    if change_count ctx v >= ctx.cx_net.net_max_changes && cur_opt <> None then
      (* relaxed one-value-change rule (§4.2.2 + the §9.2.3 N-change
         fix): a variable changing more than N times in one episode
         signals cyclic propagation *)
      Error
        (violation ~cstr:source ~var:v
           (Printf.sprintf
              "%s changed %d times during this propagation (cyclic propagation)"
              (Var.path v) ctx.cx_net.net_max_changes))
    else begin
      let decision =
        match cur_opt with
        | None -> Ok Accept (* free to change to/from NIL *)
        | Some _ -> (
          (* constraint strengths (§4.2.4 extension): a strictly
             stronger constraint overwrites a weaker one's propagated
             value; a weaker one never does; equal strengths defer to
             the variable's own rule (user entries still outrank all
             propagation) *)
          match v.v_just with
          | Propagated { source = old; _ } when source.c_strength > old.c_strength
            ->
            Ok Accept
          | Propagated { source = old; _ } when source.c_strength < old.c_strength
            ->
            Ok Ignore
          | Propagated _ | Default | User | Application | Update | Tentative -> (
            match v.v_overwrite v ~proposed:x with
            | d -> Ok d
            | exception e ->
              ctx.cx_net.net_stats.k_trapped <-
                ctx.cx_net.net_stats.k_trapped + 1;
              Error
                (violation ~cstr:source ~var:v ~exn:e
                   (Printf.sprintf "exception in overwrite rule of %s"
                      (Var.path v)))))
      in
      match decision with
      | Error viol -> Error viol
      | Ok Ignore -> Ok ()
      | Ok (Reject why) ->
        Error
          (violation ~cstr:source ~var:v
             (Printf.sprintf "cannot overwrite %s: %s" (Var.path v) why))
      | Ok Accept -> (
        match
          install ctx v x ~just:(propagated source record)
            ~source_label:source.c_source_label
        with
        | Ok () -> propagate_changed ctx v source.c_id
        | Error _ as e -> e)
    end

let propagate_reset ctx v ~except =
  let skip c =
    match except with None -> false | Some e -> e.c_id = c.c_id
  in
  let rec go = function
    | [] -> Ok ()
    | c :: rest ->
      if skip c || not c.c_fires_on_reset then go rest
      else
        let* () = activate ctx c ~changed:(Some v) in
        go rest
  in
  let* cs = constraints_of ctx v in
  go cs

let erase ctx v ~just ~source_label =
  save_state ctx v;
  v.v_value <- None;
  v.v_just <- just;
  if observed ctx.cx_net then begin
    log_reset ctx.cx_net v source_label;
    note_trace_cause v.v_path
  end;
  match v.v_on_change v with
  | () -> Ok ()
  | exception e ->
    ctx.cx_net.net_stats.k_trapped <- ctx.cx_net.net_stats.k_trapped + 1;
    Error
      (violation ~var:v ~exn:e
         (Printf.sprintf "exception in on-change hook of %s" v.v_path))

let reset_by_constraint ctx v ~source =
  match v.v_value with
  | None -> Ok ()
  | Some _ ->
    let* () =
      erase ctx v ~just:Update
        ~source_label:source.c_source_label
    in
    propagate_reset ctx v ~except:(Some source)

let propagate_along ctx v c =
  let* () = activate ctx c ~changed:(Some v) in
  drain ctx

(* ------------------------------------------------------------------ *)
(* Top-level entry points                                              *)
(* ------------------------------------------------------------------ *)

(* Episode atomicity (§4.2): [f], the drain and the final check each
   run under a universal exception trap, so any exception that escaped
   the per-closure wrappers still becomes a violation and still
   triggers the restore.  The violation handler itself is isolated: a
   throwing handler cannot abort the recovery that follows it. *)
let guard net thunk =
  match thunk () with
  | result -> result
  | exception e ->
    net.net_stats.k_trapped <- net.net_stats.k_trapped + 1;
    Error (violation ~exn:e "exception escaped propagation episode")

(* Observability is pay-as-you-go: with no log or sink attached when
   the episode starts ([timed] false) the phase clock is never read and
   the timings stay all-zero. *)
let[@inline] now timed net =
  if not timed then 0.
  else if net.net_clock == default_clock then Unix.gettimeofday ()
  else net.net_clock ()

(* Run the three forward phases of an episode — the caller's assignment
   and its propagation, the agenda drain, the final is_satisfied sweep —
   timing each.  A phase is skipped (and reads as 0) as soon as an
   earlier one fails. *)
let episode_phases net timed ctx f =
  let t0 = now timed net in
  let r1 = guard net (fun () -> f ctx) in
  let t1 = now timed net in
  let r2 =
    match r1 with Error _ -> r1 | Ok () -> guard net (fun () -> drain ctx)
  in
  let t2 = match r1 with Error _ -> t1 | Ok () -> now timed net in
  let r3 =
    match r2 with
    | Error _ -> r2
    | Ok () -> guard net (fun () -> check_visited ctx)
  in
  let t3 = match r2 with Error _ -> t2 | Ok () -> now timed net in
  ( r3,
    {
      ph_propagate = t1 -. t0;
      ph_drain = t2 -. t1;
      ph_check = t3 -. t2;
      ph_restore = 0.;
    } )

(* Span bracketing.  Episode ids advance even while nothing is watching
   so that ids stay comparable across attach/detach. *)
let begin_episode net ~label =
  net.net_next_episode <- net.net_next_episode + 1;
  let id = net.net_next_episode in
  let prev = net.net_cur_episode in
  net.net_cur_episode <- id;
  if observed net then begin
    let parent = current_trace_parent () in
    let seq = next_seq net in
    (match net.net_log with
    | Some lg -> Event_log.start lg id seq id label parent
    | None -> ());
    if tracing net then
      fan_out net id seq (T_episode_start (id, label, parent)) net.net_sinks
  end;
  ambient_stack :=
    { af_net = net.net_name; af_episode = id; af_cause = "" } :: !ambient_stack;
  (id, prev)

let pop_ambient () =
  match !ambient_stack with [] -> () | _ :: rest -> ambient_stack := rest

(* Fold the episode-local agenda's per-stratum counters into the
   network's cumulative totals.  Strata are registered on their first
   push, so every slot has traffic to merge. *)
let merge_agenda_totals net ag =
  for s = 0 to Array.length ag.ag_prios - 1 do
    let p = ag.ag_prios.(s) in
    let t =
      match Hashtbl.find net.net_agenda_totals p with
      | t -> t
      | exception Not_found ->
        let t = { at_pushed = 0; at_popped = 0; at_hwm = 0 } in
        Hashtbl.add net.net_agenda_totals p t;
        t
    in
    t.at_pushed <- t.at_pushed + ag.ag_pushed.(s);
    t.at_popped <- t.at_popped + ag.ag_popped.(s);
    if ag.ag_hwm.(s) > t.at_hwm then t.at_hwm <- ag.ag_hwm.(s)
  done

let end_episode net (id, prev) ~label ~outcome ~timings ~ctx =
  merge_agenda_totals net ctx.cx_agenda;
  pop_ambient ();
  if observed net then begin
    let sp =
      {
        es_id = id;
        es_label = label;
        es_outcome = outcome;
        es_timings = timings;
        es_steps = ctx.cx_steps;
        es_agenda_hwm = ctx.cx_agenda_hwm;
      }
    in
    let seq = next_seq net in
    (match net.net_log with
    | Some lg -> (
      Event_log.finish lg id seq sp;
      (* the observer's hook is trapped like a sink *)
      try lg.lg_on_end sp
      with e ->
        net.net_stats.k_sink_errors <- net.net_stats.k_sink_errors + 1;
        Log.warn (fun m ->
            m "episode-end hook raised (ignored): %s" (Printexc.to_string e)))
    | None -> ());
    if tracing net then fan_out net id seq (T_episode_end sp) net.net_sinks
  end;
  net.net_cur_episode <- prev

let notify_violation net viol =
  net.net_stats.k_violations <- net.net_stats.k_violations + 1;
  trace net (T_violation viol);
  try net.net_on_violation viol
  with e ->
    net.net_stats.k_trapped <- net.net_stats.k_trapped + 1;
    Log.warn (fun m ->
        m "violation handler raised (ignored so recovery can proceed): %s"
          (Printexc.to_string e))

let audit_after_restore net =
  if net.net_audit_on_restore then
    match Integrity.check_integrity net with
    | [] -> ()
    | issues ->
      Log.err (fun m ->
          m "network %S failed the post-restore integrity audit:@,%a"
            net.net_name
            (Fmt.list ~sep:Fmt.cut Fmt.string)
            issues)

let run_episode ?(label = "episode") net f =
  net.net_stats.k_propagations <- net.net_stats.k_propagations + 1;
  let ctx = new_ctx net in
  let timed = observed net in
  let bracket = begin_episode net ~label in
  let result, timings = episode_phases net timed ctx f in
  match result with
  | Ok () ->
    end_episode net bracket ~label ~outcome:E_committed ~timings ~ctx;
    Ok ()
  | Error viol ->
    notify_violation net viol;
    let t0 = now timed net in
    restore ctx;
    audit_after_restore net;
    let timings = { timings with ph_restore = now timed net -. t0 } in
    end_episode net bracket ~label ~outcome:E_rolled_back ~timings ~ctx;
    Error viol

(* The paper's [setTo:justification:], collapsed to one entry point:
   the justification defaults to [User] (designer entry) and tools pass
   [~just:Application]. *)
let set ?(just = User) net v x =
  if not net.net_enabled then begin
    poke net v x ~just;
    Ok ()
  end
  else
    let same_just =
      (* structural comparison is only safe on the simple constructors;
         [Propagated] carries closures *)
      match (v.v_just, just) with
      | Default, Default | User, User | Application, Application
      | Update, Update | Tentative, Tentative ->
        true
      | (Default | User | Application | Update | Tentative | Propagated _), _ ->
        false
    in
    match v.v_value with
    | Some cur when v.v_equal cur x && same_just -> Ok ()
    | _ ->
      run_episode ~label:"set" net (fun ctx ->
          let* () = install ctx v x ~just ~source_label:"external" in
          propagate_from ctx v ~except:None)


let reset net v =
  if not net.net_enabled then begin
    clear net v;
    Ok ()
  end
  else if v.v_value = None then Ok ()
  else
    run_episode ~label:"reset" net (fun ctx ->
        let* () = erase ctx v ~just:Default ~source_label:"external" in
        propagate_reset ctx v ~except:None)

(* The tentative test of module validation (Fig. 8.2), with diagnostics:
   assert with #TENTATIVE, propagate, restore unconditionally, and
   return the violation (if any) instead of swallowing it.  Violations
   are counted in the network statistics like any other episode's, but
   the violation handler is not invoked — a tentative probe is a
   question, not a failure of the design. *)
let explain_set net v x =
  if not net.net_enabled then Ok ()
  else begin
    net.net_stats.k_propagations <- net.net_stats.k_propagations + 1;
    let ctx = new_ctx net in
    let timed = observed net in
    let label = "probe" in
    let bracket = begin_episode net ~label in
    let result, timings =
      episode_phases net timed ctx (fun ctx ->
          let* () = install ctx v x ~just:Tentative ~source_label:"tentative" in
          propagate_from ctx v ~except:None)
    in
    (match result with
    | Ok () -> ()
    | Error viol ->
      net.net_stats.k_violations <- net.net_stats.k_violations + 1;
      trace net (T_violation viol));
    let t0 = now timed net in
    restore ctx;
    audit_after_restore net;
    let timings = { timings with ph_restore = now timed net -. t0 } in
    let outcome =
      match result with Ok () -> E_probe_ok | Error _ -> E_probe_rejected
    in
    end_episode net bracket ~label ~outcome ~timings ~ctx;
    result
  end

let can_be_set_to net v x = Result.is_ok (explain_set net v x)
