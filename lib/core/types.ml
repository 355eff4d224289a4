(* Core data structures of the constraint-propagation framework (Ch. 4).

   The thesis encodes propagation knowledge in Smalltalk methods that
   subclasses override.  Here the same knowledge lives in closures stored
   in the [var] and [cstr] records; "subclassing" is building a record
   with some closures replaced.  Everything is parametric in the value
   type ['a], so the kernel is independent of the design-value universe
   it is later instantiated at. *)

(* Decision taken when a propagated value differs from the variable's
   current value.  [Accept] installs the new value; [Ignore] keeps the
   old value and lets the final [is_satisfied] sweep decide whether the
   disagreement matters (the signal-type rule of Fig. 7.4); [Reject]
   raises a violation immediately (the default for user-entered
   values). *)
type overwrite_decision = Accept | Ignore | Reject of string

(* Immediate constraints propagate first-come-first-served because their
   propagation direction depends on which variable changed.  Agenda
   constraints self-schedule on a fixed-priority FIFO queue; lower
   integer = higher priority (§4.2.1, §5.1.2). *)
type schedule = Immediate | On_agenda of int

(* The agenda is stratified by cost class: cheap satisfaction-only
   checking constraints drain before functional recomputation, which
   drains before the implicit hierarchy constraints that cross design
   levels.  Apt's generic-iteration result (commuting, inflationary
   propagators reach the same fixpoint under any fair ordering) is what
   licenses ordering by cost without changing semantics. *)
let checking_priority = 1

(* Functional constraints delay until their arguments have settled. *)
let functional_priority = 10

(* Implicit hierarchy constraints are lowest priority so each level of
   the design hierarchy settles before propagation crosses levels. *)
let implicit_priority = 100

(* Human name of an agenda stratum, for stats and metrics. *)
let stratum_label p =
  if p = checking_priority then "checking"
  else if p = functional_priority then "functional"
  else if p = implicit_priority then "implicit"
  else Printf.sprintf "p%d" p

(* Cumulative per-stratum agenda accounting, merged into the network at
   the end of every episode (the agenda itself is episode-local). *)
type agenda_totals = {
  mutable at_pushed : int; (* entries enqueued (after dedup) *)
  mutable at_popped : int; (* entries drained *)
  mutable at_hwm : int; (* max simultaneous depth of this stratum *)
}

type 'a violation = {
  viol_message : string;
  viol_cstr_id : int option;
  viol_cstr_kind : string option;
  viol_var_path : string option; (* owner.name of the offending variable *)
  (* When the violation stands for an exception trapped in a user
     closure (propagate, satisfied, overwrite, on-change, implicit), the
     rendered exception; [None] for ordinary semantic violations. *)
  viol_exn : string option;
}

(* The live event counters of a network, the one tally of each event
   the kernel emits, observed or not.  Internal: the kernel mutates these
   in place on the hot path; the public view is the immutable {!stats}
   snapshot returned by [Engine.stats], and a board reads them less its
   log's base.  Latency histograms and other aggregates deliberately do
   not live here — they belong to the [Obs] metrics registry. *)
type counters = {
  mutable k_assignments : int; (* values installed during propagation *)
  mutable k_inferences : int; (* constraint inference runs *)
  mutable k_checks : int; (* is_satisfied evaluations *)
  mutable k_scheduled : int; (* agenda pushes *)
  mutable k_violations : int;
  mutable k_propagations : int; (* top-level propagation episodes *)
  mutable k_trapped : int; (* exceptions trapped in user closures *)
  mutable k_quarantined : int; (* constraints auto-disabled for failures *)
  mutable k_sink_errors : int; (* exceptions trapped in trace sinks *)
  mutable k_wakeups : int; (* constraints woken by a variable change *)
  mutable k_suppressed : int; (* wakeups avoided by the watch discipline *)
  (* events with no [stats] field *)
  mutable k_pokes : int; (* values stored by [Engine.poke] *)
  mutable k_resets : int; (* values erased, [Engine.clear] included *)
  mutable k_restores : int; (* variables restored by a rollback *)
}

(* Immutable statistics snapshot (what [Engine.stats] returns). *)
type stats = {
  st_assignments : int;
  st_inferences : int;
  st_checks : int;
  st_scheduled : int;
  st_violations : int;
  st_propagations : int;
  st_trapped : int;
  st_quarantined : int;
  st_sink_errors : int;
  st_wakeups : int;
  st_suppressed : int;
}

(* ------------------------------------------------------------------ *)
(* Episode spans                                                       *)
(* ------------------------------------------------------------------ *)

(* Every top-level propagation episode is bracketed by a pair of trace
   events, [T_episode_start]/[T_episode_end], carrying a network-unique
   episode id; every event emitted in between is tagged with that id
   (see {!tagged_event}), so a post-mortem can attribute each
   assignment, activation and check to the episode that caused it. *)

(* Wall-clock spent in each phase of an episode, in seconds of the
   network's monotonic clock.  All zero when no sinks are attached (the
   clock is not read at all on the unobserved fast path). *)
type phase_timings = {
  ph_propagate : float; (* the initial assignment and its propagation *)
  ph_drain : float; (* draining the priority agendas *)
  ph_check : float; (* the final is_satisfied sweep *)
  ph_restore : float; (* rollback after a violation (0 if committed) *)
}

(* Cross-network trace correlation (Dapper-style parent/child spans).
   When an episode starts while another episode — possibly of a
   different network, as when an implicit dual constraint pushes a value
   across a cell boundary — is still in flight, the child's
   [T_episode_start] carries a reference to that parent, so
   hierarchy-wide propagations stitch into one trace tree.  [pr_cause]
   names the parent-side variable whose assignment caused the push (the
   exact antecedent for cross-network provenance chains), when known. *)
type parent_ref = {
  pr_net : string; (* name of the parent episode's network *)
  pr_episode : int; (* its episode id, unique within that network *)
  pr_cause : string option; (* parent-side variable path, if known *)
}

type episode_outcome =
  | E_committed (* propagation succeeded; new values kept *)
  | E_rolled_back (* violation; every visited variable restored *)
  | E_probe_ok (* tentative test (explain_set): would succeed *)
  | E_probe_rejected (* tentative test: would violate *)

type episode_span = {
  es_id : int;
  es_label : string; (* origin: "set", "reset", "probe", "reinit", ... *)
  es_outcome : episode_outcome;
  es_timings : phase_timings;
  es_steps : int; (* inference runs in this episode *)
  es_agenda_hwm : int; (* agenda depth high-water mark *)
}

(* ------------------------------------------------------------------ *)
(* Variables, constraints, justifications, networks, contexts — one    *)
(* mutually recursive group.                                           *)
(* ------------------------------------------------------------------ *)

type 'a justification =
  | Default (* never assigned, or erased *)
  | User (* #USER: entered by the designer; outranks propagation *)
  | Application (* #APPLICATION: calculated by a tool *)
  | Update (* #UPDATE: erased/reset by an update-constraint *)
  | Tentative (* #TENTATIVE: asserted during a can-be-set-to test *)
  | Propagated of 'a propagated

and 'a propagated = { source : 'a cstr; record : 'a dependency }

(* A dependency record is formulated by the source constraint during
   propagation and interpreted only by that constraint during dependency
   analysis (via [c_in_dependency]) — §4.2.4. *)
and 'a dependency =
  | All_arguments (* functional constraints: result depends on every arg *)
  | Single_var of 'a var (* e.g. equality: the variable that activated *)
  | Some_vars of 'a var list
  | Opaque (* not analysable; dependency search stops here *)

and 'a var = {
  v_id : int;
  v_owner : string; (* path of the parent design object *)
  v_name : string; (* field name within the parent *)
  (* "owner.name", rendered once at creation: the key of the network's
     path index and the path every trace event and query names. *)
  v_path : string;
  v_equal : 'a -> 'a -> bool;
  v_pp : Format.formatter -> 'a -> unit;
  mutable v_value : 'a option;
  mutable v_just : 'a justification;
  mutable v_cstrs : 'a cstr list;
  (* The watched-variable activation index: the subset of [v_cstrs]
     whose activation spec currently watches this variable.  A change
     of [v] runs inference only for these; every attached constraint is
     still marked for the final is_satisfied sweep.  Maintained by
     [Cstr.rewatch] (attachment, editor rewires) and by the engine's
     2-watch rotation. *)
  mutable v_watchers : 'a cstr list;
  (* Overwrite rule consulted when a propagated value differs from the
     current one. *)
  mutable v_overwrite : 'a var -> proposed:'a -> overwrite_decision;
  (* Extra constraints to activate on assignment — the hook the STEM
     layer uses for implicit (hierarchical) constraints that are derived
     from structure rather than stored (§5.1.1). *)
  mutable v_implicit : 'a var -> 'a cstr list;
  (* Hook run after the variable's value changes (assign or reset);
     used by property variables and views for erasure notification. *)
  mutable v_on_change : 'a var -> unit;
  (* Episode bookkeeping without hashing: [v] has been saved on the
     trail of the episode whose stamp equals [v_stamp], and has changed
     [v_changes] times in it (the N-change rule). *)
  mutable v_stamp : int;
  mutable v_changes : int;
}

(* Which argument changes wake a constraint's inference procedure.
   Watching is about *inference only*: every attached constraint of a
   changed variable is still marked for the final is_satisfied sweep,
   so a spec narrower than [Wake_all] never hides a violation — it
   asserts that unwatched changes cannot require new propagation.

   [Two_watch] is the rotating discipline of SAT watched literals,
   transposed to value propagation: sound for constraints that cannot
   infer anything while two or more of their arguments are unset
   (n-ary functional sums, bidirectional arithmetic).  The engine
   watches two unset arguments; when a watched one gets a value it
   rotates the watch to another unset argument and suppresses the
   wakeup, falling back to waking on every argument once fewer than two
   remain unset.  Rotations are episode-scoped: a rolled-back episode
   restores the watch lists it moved. *)
and 'a wake =
  | Wake_all (* every argument change wakes (the paper's discipline) *)
  | Watch of 'a var list (* only these arguments wake *)
  | Two_watch (* rotating 2-watch over unset arguments *)
  | Custom of ('a cstr -> 'a var option -> bool)
    (* dynamic predicate, consulted on every touch ([None] = a direct
       activation with no changed variable) *)

(* The first-class activation spec: what wakes a constraint, when its
   inference runs (immediately or on an agenda stratum), how agenda
   entries deduplicate, and how its dependency records are interpreted. *)
and 'a activation = {
  act_wake : 'a wake;
  act_schedule : schedule;
  (* Agenda entries are deduplicated.  Functional constraints schedule
     with no variable (one recomputation regardless of how many inputs
     changed); implicit hierarchy constraints key the entry by the
     changed variable because their inference direction depends on it. *)
  act_keyed_by_var : bool;
  (* testMembershipOf:inDependency: — [None] means the generic
     interpretation ([All_arguments] = every argument). *)
  act_in_dependency : ('a cstr -> 'a dependency -> 'a var -> bool) option;
}

and 'a cstr = {
  c_id : int;
  c_kind : string; (* "equality", "uni-maximum", ... *)
  (* "kind#id", rendered once at creation: the source tag carried by
     every trace event this constraint's assignments emit.  Precomputed
     so the propagation hot path never formats strings, and so sinks
     receive a stable (old-heap) string they can store without cost. *)
  c_source_label : string;
  mutable c_label : string;
  mutable c_args : 'a var list;
  mutable c_enabled : bool;
  (* [c_kind] is among the network's disabled kinds; kept in step by
     [Engine.disable_kind]/[enable_kind] and set at creation, so the
     hot path reads a field instead of searching the kind list. *)
  mutable c_kind_disabled : bool;
  c_activation : 'a activation;
  (* The variables whose change currently wakes this constraint —
     [c_args] for [Wake_all]/[Custom], the static subset for [Watch],
     the two rotating unset arguments (or all, after the ground
     fallback) for [Two_watch].  Mirrored by the [v_watchers] lists. *)
  mutable c_watching : 'a var list;
  (* Episode stamp for O(1) visited-marking (no hashing): [c] is marked
     in the episode whose stamp equals [c_mark]. *)
  mutable c_mark : int;
  (* Agenda membership without hashing: [c_queued_keys] lists the keys
     of [c]'s pending entries in the agenda whose stamp equals
     [c_queued] (-1 = an entry with no variable, otherwise the
     variable's id); in any other agenda nothing of [c] is pending. *)
  mutable c_queued : int;
  mutable c_queued_keys : int list;
  (* immediateInferenceByChanging: — examine the changed variable (or
     [None] for a scheduled run) and assign inferred values through
     [Engine.set_by_constraint].  Mutable so the fault-injection harness
     ({!Fault}) can wrap the procedures of a live constraint in place. *)
  mutable c_propagate :
    'a ctx -> 'a cstr -> 'a var option -> (unit, 'a violation) result;
  mutable c_satisfied : 'a cstr -> bool;
  (* testMembershipOf:inDependency: — is [var] among the antecedents
     recorded by [dependency]? *)
  c_in_dependency : 'a cstr -> 'a dependency -> 'a var -> bool;
  (* Fires when an argument is reset (erased) — true only for
     update-constraints, which cascade erasure (Ch. 6). *)
  c_fires_on_reset : bool;
  (* Direct recomputation procedure for functional constraints: read the
     inputs, store the result, no propagation.  Used by the network
     compiler (§9.3); [None] for non-functional constraints. *)
  c_recompute : (unit -> unit) option;
  (* Constraint strength (§4.2.4 extension): a propagated value may be
     overwritten by propagation from a strictly stronger constraint even
     where the default rule would refuse.  0 = ordinary. *)
  c_strength : int;
  (* Fault tolerance: exceptions trapped in this constraint's propagate
     or satisfied procedure since the counter was last cleared. *)
  mutable c_failures : int;
  (* Activity since creation, for the per-kind profile: inference runs,
     agenda pushes, satisfaction checks (and failed ones), violations
     naming this constraint, quarantines. *)
  mutable c_activations : int;
  mutable c_scheduled : int;
  mutable c_checks : int;
  mutable c_check_failures : int;
  mutable c_violations : int;
  mutable c_quarantines : int;
  (* When the failure count reaches the network's threshold the
     constraint is quarantined: disabled with a recorded reason, so one
     broken inference procedure degrades its own cell instead of
     wedging the whole network.  [None] = healthy. *)
  mutable c_quarantined : string option;
  (* [Propagated { source = c; record = All_arguments }], built on the
     constraint's first such assignment and shared by every later one,
     so a functional step allocates no justification.  [Default] until
     then. *)
  mutable c_all_args_just : 'a justification;
}

(* The undo trail of an episode, newest entry first: each entry is a
   variable's value and justification from before the episode first
   wrote it.  A variable can appear twice when a nested episode on the
   same network re-stamped it in between; restoring newest-first leaves
   the older (pre-episode) entry in place last. *)
and 'a trail =
  | Trail_end
  | Saved of {
      sv_var : 'a var;
      sv_value : 'a option;
      sv_just : 'a justification;
      sv_next : 'a trail;
    }

and 'a agenda_entry = { e_cstr : 'a cstr; e_var : 'a var option }

(* Priority-stratified agenda: one FIFO queue per stratum held in a
   dense array sorted by priority, with a bitmask of non-empty slots so
   [pop] finds the most urgent stratum in O(1) instead of scanning a
   priority list.  Strata are registered on first use; an agenda
   supports at most [Sys.int_size - 1] distinct priorities (far beyond
   the three cost classes in practice). *)
and 'a agenda = {
  mutable ag_prios : int array; (* sorted ascending; slot -> priority *)
  mutable ag_slots : 'a agenda_entry Queue.t array; (* slot -> FIFO *)
  mutable ag_live : int; (* bitmask: bit i set <=> slot i non-empty *)
  (* Membership stamp, matched against [c_queued]; replaced by [clear]
     so every earlier mark goes stale at once. *)
  mutable ag_stamp : int;
  mutable ag_len : int; (* entries pending across all strata *)
  mutable ag_pushed : int array; (* per-slot entries enqueued *)
  mutable ag_popped : int array; (* per-slot entries drained *)
  mutable ag_hwm : int array; (* per-slot depth high-water mark *)
}

and 'a network = {
  net_name : string;
  mutable net_enabled : bool; (* the CPSwitch of §5.3 *)
  (* Relaxed one-value-change rule (the §9.2.3 fix for reconvergent
     fanout): a variable may change up to this many times during one
     propagation episode before a cyclic-propagation violation fires.
     The thesis suggests "N heuristically determined from the network";
     deep hierarchies with wide fan-out re-trigger functional
     recomputation once per implicit propagation, so the default is
     generous (100).  Set 1 to recover the strict §4.2.2 rule. *)
  mutable net_max_changes : int;
  mutable net_on_violation : 'a violation -> unit;
  (* Subscribed trace sinks, notified of every event in registration
     order.  A throwing sink is trapped and counted ([k_sink_errors]);
     it can never abort an episode.  [] (the default), with no log,
     short-circuits all observability work, including the clock
     reads. *)
  mutable net_sinks : 'a sink list;
  (* The network's event log, when an observer gave it one: the engine
     writes every event there as a row, without building the event, and
     calls the log's episode-end hook ({!Event_log}). *)
  mutable net_log : 'a event_log option;
  (* Monotonic clock used for episode phase timings, in seconds.  Only
     read while a log or a sink is attached. *)
  mutable net_clock : unit -> float;
  mutable net_next_episode : int; (* episode ids handed out so far *)
  mutable net_cur_episode : int; (* id of the episode in flight; 0 = none *)
  (* Cumulative per-stratum agenda accounting, keyed by priority;
     merged from the episode-local agenda at every episode end. *)
  net_agenda_totals : (int, agenda_totals) Hashtbl.t;
  mutable net_next_seq : int; (* global event sequence number *)
  mutable net_next_var_id : int;
  mutable net_next_cstr_id : int;
  mutable net_vars : 'a var list; (* reverse creation order *)
  (* Path index: "owner.name" -> the latest variable created under it. *)
  net_paths : (string, 'a var) Hashtbl.t;
  mutable net_cstrs : 'a cstr list;
  mutable net_disabled_kinds : string list;
  (* Trapped exceptions before a constraint is quarantined; 0 disables
     auto-quarantine (every failure still becomes a violation). *)
  mutable net_fail_threshold : int;
  (* Upper bound on inference runs per episode, complementing
     [net_max_changes]: a runaway (or fault-injected) propagation
     surfaces as a violation instead of looping.  [None] = unbounded. *)
  mutable net_step_budget : int option;
  (* Run {!Network.check_integrity} after every post-violation restore
     and log what it finds (diagnostic mode; off by default). *)
  mutable net_audit_on_restore : bool;
  net_stats : counters;
}

(* A trace sink: one subscriber of the network's event stream.  Sinks
   are identified by name (registering a second sink under an existing
   name replaces the first, keeping its position in the fan-out
   order).  The emit procedure receives the owning episode id (0
   outside any episode), a network-global sequence number for total
   ordering, and the event — as plain arguments rather than a
   {!tagged_event} so the hot path allocates nothing per sink; sinks
   that retain events box them into {!tagged_event} themselves. *)
and 'a sink = {
  snk_name : string;
  snk_emit : int -> int -> 'a trace_event -> unit;
}

(* The boxed form of what a sink receives, used by sinks that store or
   forward events (ring buffer, JSONL lines, test helpers). *)
and 'a tagged_event = {
  te_episode : int;
  te_seq : int;
  te_event : 'a trace_event;
}

and 'a trace_event =
  | T_assign of 'a var * 'a * string (* variable, value, source label *)
  | T_reset of 'a var * string
  | T_activate of 'a cstr * 'a var option
  | T_schedule of 'a cstr * int
  | T_check of 'a cstr * bool
  | T_violation of 'a violation
  | T_restore of 'a var
  | T_quarantine of 'a cstr * string (* constraint auto-disabled, reason *)
  | T_episode_start of int * string * parent_ref option
    (* episode id, origin label, enclosing episode (same or other net) *)
  | T_episode_end of episode_span

(* The event log's storage.  {!Event_log} alone encodes and decodes
   it; readers go through its functions.  Rows are three ints (episode,
   sequence, kind packed with two payloads); variables and constraints
   are named by id through [log_names]. *)
and 'a log_names = {
  mutable n_vars : 'a var array; (* by [v_id] *)
  mutable n_cstrs : 'a cstr array; (* by [c_id] *)
  n_strs : string array; (* labels, at most [Event_log.max_strings] *)
  mutable n_nstrs : int;
}

(* A range of rows: the log's backing store, or a range copied out of
   it.  An end row's [a] payload names its slot in the end extras
   (masked by [b_emask]); an assignment or reset row's names its span
   (masked by [b_smask]): variable, justification, value and source.
   In the log these columns are the span table, in a copy they are
   numbered densely.  A span names its variable and justification by
   number in [b_swho]; the pointer columns beside it hold only what the
   numbers cannot name, and start empty. *)
and 'a log_rows = {
  b_w : int array; (* 3 per row: episode, sequence, packed kind *)
  mutable b_eint : int array; (* 4 per end: id, steps, agenda hwm, position *)
  mutable b_etime : float array; (* 4 per end: the phase timings *)
  mutable b_emask : int;
  mutable b_str : string array; (* a label the string table cannot hold *)
  mutable b_rare : 'a trace_event array; (* events kept as they are *)
  b_swho : int array; (* variable and justification, see [Event_log] *)
  mutable b_sval : 'a array;
  mutable b_svar : 'a var array;
  mutable b_sjust : 'a justification array;
  mutable b_srec : int array; (* a [Single_var] record's variable, by id *)
  mutable b_ssrc : string array; (* a source the string table cannot hold *)
  b_smask : int;
  b_names : 'a log_names;
}

and 'a event_log = {
  lg_rows : 'a log_rows;
  lg_mask : int; (* backing rows - 1 *)
  mutable lg_seen : int; (* rows ever written *)
  mutable lg_ends : int; (* end rows ever written *)
  (* writing at position [lg_guard] or later overwrites a row somebody
     still wants; [lg_on_lose bound] is called first *)
  mutable lg_guard : int;
  mutable lg_on_lose : int -> unit;
  mutable lg_on_end : episode_span -> unit;
  (* spans: assignment and reset rows, kept for the newest
     [Event_log.span_capacity] of them, by [id land (capacity - 1)] *)
  mutable lg_next_span : int;
  lg_sp_ep : int array;
  lg_sp_seq : int array;
  lg_sp_info : int array; (* prior latest span id lsl 8 | source | flags *)
  lg_sp_ants : int array; (* pool position lsl 20 | entries *)
  mutable lg_sp_cross : parent_ref option array; (* empty until a cross *)
  mutable lg_pool : int array; (* antecedent span ids, a ring *)
  mutable lg_pool_next : int;
  mutable lg_latest : int array; (* v_id -> latest live span id *)
  (* open episodes, innermost last: 5 ints each (id, first span, start
     row, and the kernel's violation and quarantine counts at the
     start) *)
  mutable lg_depth : int;
  mutable lg_frames : int array;
  mutable lg_frame_parent : parent_ref option array;
  (* what the last ended episode's frame held: its start row (-1 when
     its start was not seen) and the violations and quarantines since *)
  mutable lg_ended_start : int;
  mutable lg_ended_viol : int;
  mutable lg_ended_quar : int;
  (* the newest [Event_log.max_episodes] episodes, by id *)
  lg_ep_id : int array;
  lg_ep_label : string array;
  lg_ep_parent : parent_ref option array;
  lg_ep_outcome : int array; (* -1 while open *)
  mutable lg_last_epi : int;
  (* the counters of the network the log is attached to, their values
     at [Engine.attach_log] (zeroed by [Engine.reset_stats]), and the
     agenda pushes by priority then: an observer reports the difference *)
  mutable lg_kernel : counters;
  mutable lg_base : counters;
  mutable lg_base_pushed : (int * int) list;
}

and 'a ctx = {
  cx_net : 'a network;
  mutable cx_trail : 'a trail; (* saved prior state, newest first *)
  cx_stamp : int; (* this episode's stamp (v_stamp, c_mark) *)
  mutable cx_cstr_order : 'a cstr list; (* reverse activation order *)
  cx_agenda : 'a agenda;
  mutable cx_steps : int; (* inference runs this episode (step budget) *)
  mutable cx_agenda_hwm : int; (* agenda depth high-water mark *)
  (* Watch rotations performed this episode (2-watch), most recent
     first; replayed on rollback so the watch lists are restored along
     with the values they were chosen against. *)
  mutable cx_watch_undo : (unit -> unit) list;
}

(* Episode and agenda stamps come from one process-wide counter, so a
   stamp never matches a mark left by another episode or agenda — even
   one of a different network whose constraints reach this network's
   variables. *)
let stamps = Atomic.make 0

let fresh_stamp () = Atomic.fetch_and_add stamps 1 + 1

let fresh_counters () =
  {
    k_assignments = 0;
    k_inferences = 0;
    k_checks = 0;
    k_scheduled = 0;
    k_violations = 0;
    k_propagations = 0;
    k_trapped = 0;
    k_quarantined = 0;
    k_sink_errors = 0;
    k_wakeups = 0;
    k_suppressed = 0;
    k_pokes = 0;
    k_resets = 0;
    k_restores = 0;
  }

let snapshot_stats (k : counters) : stats =
  {
    st_assignments = k.k_assignments;
    st_inferences = k.k_inferences;
    st_checks = k.k_checks;
    st_scheduled = k.k_scheduled;
    st_violations = k.k_violations;
    st_propagations = k.k_propagations;
    st_trapped = k.k_trapped;
    st_quarantined = k.k_quarantined;
    st_sink_errors = k.k_sink_errors;
    st_wakeups = k.k_wakeups;
    st_suppressed = k.k_suppressed;
  }

(* Convenience constructor over the boxed event form; fine for tests
   and tooling, while performance-sensitive sinks implement the 3-ary
   [snk_emit] directly to skip the per-event box. *)
let sink ~name emit =
  {
    snk_name = name;
    snk_emit =
      (fun ep seq ev -> emit { te_episode = ep; te_seq = seq; te_event = ev });
  }

let[@inline] span_total sp =
  sp.es_timings.ph_propagate +. sp.es_timings.ph_drain +. sp.es_timings.ph_check
  +. sp.es_timings.ph_restore

let pp_outcome ppf = function
  | E_committed -> Fmt.string ppf "committed"
  | E_rolled_back -> Fmt.string ppf "rolled-back"
  | E_probe_ok -> Fmt.string ppf "probe-ok"
  | E_probe_rejected -> Fmt.string ppf "probe-rejected"

let pp_span ppf sp =
  let us x = x *. 1e6 in
  Fmt.pf ppf
    "#%d %-7s %-14s %8.1f us (prop %.1f drain %.1f check %.1f restore %.1f) \
     steps=%d agenda<=%d"
    sp.es_id sp.es_label
    (Fmt.str "%a" pp_outcome sp.es_outcome)
    (us (span_total sp))
    (us sp.es_timings.ph_propagate)
    (us sp.es_timings.ph_drain)
    (us sp.es_timings.ph_check)
    (us sp.es_timings.ph_restore)
    sp.es_steps sp.es_agenda_hwm

let pp_parent_ref ppf p =
  Fmt.pf ppf "%s#ep%d%a" p.pr_net p.pr_episode
    (Fmt.option (fun ppf c -> Fmt.pf ppf " (cause %s)" c))
    p.pr_cause

let violation ?cstr ?var ?exn message =
  {
    viol_message = message;
    viol_cstr_id = (match cstr with None -> None | Some c -> Some c.c_id);
    viol_cstr_kind = (match cstr with None -> None | Some c -> Some c.c_kind);
    viol_var_path =
      (match var with None -> None | Some v -> Some v.v_path);
    viol_exn = Option.map Printexc.to_string exn;
  }

let pp_violation ppf v =
  Fmt.pf ppf "violation%a%a: %s%a"
    (Fmt.option (fun ppf k -> Fmt.pf ppf " [%s]" k))
    v.viol_cstr_kind
    (Fmt.option (fun ppf p -> Fmt.pf ppf " at %s" p))
    v.viol_var_path v.viol_message
    (Fmt.option (fun ppf e -> Fmt.pf ppf " (trapped: %s)" e))
    v.viol_exn

let pp_justification pp_val ppf = function
  | Default -> Fmt.string ppf "#DEFAULT"
  | User -> Fmt.string ppf "#USER"
  | Application -> Fmt.string ppf "#APPLICATION"
  | Update -> Fmt.string ppf "#UPDATE"
  | Tentative -> Fmt.string ppf "#TENTATIVE"
  | Propagated { source; record } ->
    let pp_record ppf = function
      | All_arguments -> Fmt.string ppf "all-args"
      | Single_var v -> Fmt.pf ppf "via %s" v.v_path
      | Some_vars vs ->
        Fmt.pf ppf "via {%a}"
          (Fmt.list ~sep:Fmt.comma (fun ppf v -> Fmt.string ppf v.v_path))
          vs
      | Opaque -> Fmt.string ppf "opaque"
    in
    ignore pp_val;
    Fmt.pf ppf "by %s#%d (%a)" source.c_kind source.c_id pp_record record
