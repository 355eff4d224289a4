(** The propagation engine (§4.2).

    Constraint propagation is a depth-first traversal of the network that
    starts with an external assignment ([set]), alternates
    between variables (responding to [set_by_constraint]) and constraints
    (responding to [activate]), drains the priority agendas, and finally
    sends [is_satisfied] to every visited constraint. On any violation
    the network's handler is notified and every visited variable is
    restored to its pre-propagation state; the entry point returns
    [Error] (the paper's NIL validity feedback, §5.2). *)

open Types

(** {1 Networks} *)

(** [create_network name] — a fresh network with propagation enabled,
    a logging violation handler and empty statistics. *)
val create_network : ?name:string -> unit -> 'a network

(** The CPSwitch (§5.3). When disabled, assignments are plain stores. *)
val enable : 'a network -> unit

val disable : 'a network -> unit

val is_enabled : 'a network -> bool

(** Selective disabling of whole constraint kinds (a §9.3 future-work
    item): disabled kinds neither propagate nor check. *)
val disable_kind : 'a network -> string -> unit

val enable_kind : 'a network -> string -> unit

val set_violation_handler : 'a network -> ('a violation -> unit) -> unit

(** {1 Trace sinks}

    A network fans its trace events out to a list of subscribed
    {!Types.sink}s — ring buffers, metrics aggregators, file exporters
    (see the [Obs] library for ready-made ones). Every event reaches
    each sink together with the id of the propagation episode it
    belongs to and a global sequence number, passed as plain arguments
    ([snk_emit ep seq ev]) so the fan-out allocates nothing; sinks that
    store or forward events box them into a {!Types.tagged_event}
    themselves ({!Types.sink} is the boxing convenience constructor).
    Episodes themselves are bracketed by [T_episode_start] /
    [T_episode_end] events; the end event carries an {!Types.episode_span}
    with the outcome, per-phase monotonic-clock timings
    (propagate/drain/check/restore), the inference-step count and the
    agenda-depth high-water mark.

    Sinks are called in registration order. A sink that raises is
    trapped, counted ([st_sink_errors]) and logged; it can never abort
    an episode. A network may also carry one {!Event_log}, written at
    each event's site without building the event. With neither a log
    nor a sink attached the whole path — including the clock reads — is
    short-circuited. *)

(** [add_sink net s] subscribes [s]. Re-using an existing sink name
    replaces that sink in place (same fan-out position). *)
val add_sink : 'a network -> 'a sink -> unit

(** [remove_sink net name] unsubscribes the sink named [name]; [false]
    if there was none. *)
val remove_sink : 'a network -> string -> bool

(** Subscribed sinks, in fan-out order. *)
val sinks : 'a network -> 'a sink list

val clear_sinks : 'a network -> unit

(** [attach_log net lg ~on_episode_end] — the engine writes every event
    of [net] to [lg] as a row, building no event for it, and calls
    [on_episode_end] after each episode's end row (trapped and counted
    like a sink). Replaces any log [net] had. Sinks still receive their
    events, with the same sequence numbers. [lg] takes the network's
    counters and agenda pushes as they are now as its base: an observer
    reports what the network counted since. *)
val attach_log :
  'a network -> 'a event_log -> on_episode_end:(episode_span -> unit) -> unit

val detach_log : 'a network -> unit

(** Override the monotonic clock used for episode phase timings
    (seconds). Mainly for tests that want deterministic spans. *)
val set_clock : 'a network -> (unit -> float) -> unit

(** {1 Cross-network trace correlation}

    Episodes in flight form a process-global stack spanning every
    network. When an episode begins while another is still open —
    nested same-network propagation, or a push into a different
    network's variables from inside a constraint (the implicit dual
    constraints of the STEM hierarchy) — its [T_episode_start] carries
    a {!Types.parent_ref} naming the enclosing episode, so
    hierarchy-wide propagations stitch into one trace tree. *)

(** [note_trace_cause path] pins the [pr_cause] of the innermost open
    episode to the variable path [path]. The engine refreshes the cause
    on every traced assignment; a bridging constraint that pushes a
    value into another network calls this just before the push to name
    the exact parent-side antecedent. No-op outside any episode. *)
val note_trace_cause : string -> unit

(** {1 Fault tolerance}

    Every user-supplied closure the engine calls — [c_propagate],
    [c_satisfied], [v_overwrite], [v_on_change], [v_implicit], and the
    violation handler itself — runs under an exception trap. A raised
    exception becomes a violation carrying the rendered exception
    ([viol_exn]), the episode restores its saved state as for any other
    violation, and the offending constraint's failure counter advances
    toward quarantine. *)

(** [set_fail_threshold net n] — trapped exceptions a constraint may
    accumulate before being quarantined (auto-disabled with a recorded
    reason). [0] disables auto-quarantine; the default is 3. *)
val set_fail_threshold : 'a network -> int -> unit

(** [set_step_budget net (Some n)] bounds the inference runs of one
    episode: the [n+1]-th activation aborts the episode with a violation
    (complementing the per-variable [net_max_changes] rule). [None]
    (the default) is unbounded. *)
val set_step_budget : 'a network -> int option -> unit

(** [over_budget viol] — [viol] is the step-budget overrun
    {!set_step_budget} bounds, as opposed to a constraint violation. *)
val over_budget : 'a violation -> bool

(** When enabled, {!Network.check_integrity} runs after every
    post-violation restore and logs any inconsistency (diagnostic mode;
    default off). *)
val set_audit_on_restore : 'a network -> bool -> unit

(** Immutable snapshot of the network's event counters. Latency
    histograms and other aggregates are deliberately not here: they are
    reachable only through the [Obs] metrics registry, which a board
    feeds at each episode end. *)
val stats : 'a network -> stats

(** Cumulative per-stratum agenda accounting — [(priority, totals)]
    ascending by priority, merged from every finished episode's agenda.
    Cleared by {!reset_stats}. *)
val agenda_totals : 'a network -> (int * agenda_totals) list

(** Zero the counters and the agenda totals, and the base of the
    network's log with them. *)
val reset_stats : 'a network -> unit

(** {1 Top-level assignment} *)

(** [set ?just net v x] — the paper's [setTo:justification:], the single
    external assignment entry point. [just] defaults to [User] (designer
    entry); tools pass [~just:Application]. Stores and propagates; on
    violation restores everything and returns [Error]. *)
val set :
  ?just:'a justification -> 'a network -> 'a var -> 'a -> (unit, 'a violation) result

(** Traced companions of [Var.poke]/[Var.clear]: plain stores (no
    propagation, no checking, no episode) that still reach the trace
    sinks, so a from-creation JSONL trace replays to the exact live
    snapshot even for directly-seeded values. Prefer these over
    [Var.poke]/[Var.clear] whenever the network is at hand. *)
val poke : 'a network -> 'a var -> 'a -> just:'a justification -> unit

val clear : 'a network -> 'a var -> unit


(** [reset net v] erases the value and cascades the erasure through
    update-constraints (constraints with [c_fires_on_reset]). *)
val reset : 'a network -> 'a var -> (unit, 'a violation) result

(** [explain_set net v x] — the tentative test of module validation
    (Fig. 8.2) with diagnostics: assert [x] with justification
    [#TENTATIVE], propagate, restore unconditionally, and return the
    violation that would reject the assignment (instead of swallowing
    it). The violation is counted in [net_stats] like any other
    episode's, but the violation handler is not invoked: a tentative
    probe is a question, not a failure of the design. *)
val explain_set : 'a network -> 'a var -> 'a -> (unit, 'a violation) result

(** [can_be_set_to net v x] — the thin verdict wrapper over
    {!explain_set} (and nothing more): [Result.is_ok (explain_set net v x)].
    Use [explain_set] directly when the diagnostic matters. *)
val can_be_set_to : 'a network -> 'a var -> 'a -> bool

(** {1 Inside a propagation episode}

    These are the operations constraint inference procedures use; they
    take the propagation context threaded through the episode. *)

(** The paper's [setTo:constraint:justification:]: apply the termination
    criteria (§4.2.2), the one-value-change rule, and the variable's
    overwrite rule; then assign and propagate to every constraint of the
    variable except [source]. *)
val set_by_constraint :
  'a ctx -> 'a var -> 'a -> source:'a cstr -> record:'a dependency ->
  (unit, 'a violation) result

(** Erase a value mid-propagation (update-constraints, Ch. 6). Cascades
    only through constraints with [c_fires_on_reset]. *)
val reset_by_constraint : 'a ctx -> 'a var -> source:'a cstr -> (unit, 'a violation) result

(** Activate one constraint as if [changed] had just changed
    ([propagateVariable:]): run its inference immediately or schedule it
    on its agenda stratum. Direct activation bypasses the watch
    discipline (only a [Custom] wake predicate is still consulted). *)
val activate : 'a ctx -> 'a cstr -> changed:'a var option -> (unit, 'a violation) result

(** [propagate_along ctx v c] — the paper's [propagateAlongConstraint:]:
    let [v] assert its value through [c] only, then drain the agendas.
    Used when (re-)initialising an edited constraint (§4.2.5). *)
val propagate_along : 'a ctx -> 'a var -> 'a cstr -> (unit, 'a violation) result

(** Drain the agendas, highest priority first. *)
val drain : 'a ctx -> (unit, 'a violation) result

(** {1 Episode plumbing} *)

(** Emit a trace event to the network's log and sinks, if any. *)
val trace : 'a network -> 'a trace_event -> unit

(** The variable carries this episode's stamp: it was saved (written)
    in this episode and not re-stamped since by a nested episode. *)
val visited : 'a ctx -> 'a var -> bool

(** Restore every saved variable from the trail, newest entry first, so
    the oldest saved state of each variable is the one left in place. *)
val restore : 'a ctx -> unit

(** [run_episode ?label net f] — create a context, run [f], drain, check
    visited constraints; on violation notify the handler, restore, and
    return [Error]. This is the shared skeleton of all top-level entry
    points (also used by {!Network} when editing constraints). [label]
    (default ["episode"]) names the episode's origin in its trace
    span. *)
val run_episode :
  ?label:string -> 'a network -> ('a ctx -> (unit, 'a violation) result) ->
  (unit, 'a violation) result
