(** Priority-stratified agenda scheduler (§4.2.1).

    An agenda is a set of FIFO queues without duplicate entries, one per
    priority stratum (lower integer = more urgent). Checking constraints
    run first ({!Types.checking_priority}), functional constraints next
    ({!Types.functional_priority}) so all their arguments get a chance to
    change before the (single) recomputation runs; implicit hierarchy
    constraints use the lowest priority ({!Types.implicit_priority}) so
    one level of the design hierarchy settles before propagation crosses
    levels (§5.1.2).

    Strata are kept in dense arrays with a bitmask of non-empty slots, so
    {!pop} finds the highest-priority pending entry in O(1) instead of
    scanning every registered priority. *)

open Types

val create : unit -> 'a agenda

(** [schedule a ~priority c ~var] enqueues [(c, var)] unless an identical
    entry is already pending. Returns [true] if actually enqueued.
    Membership is kept on [c] itself, stamped with the agenda, so the
    test never hashes; a constraint pending in two agendas at once may
    be enqueued twice in the older one, never missed. *)
val schedule : 'a agenda -> priority:int -> 'a cstr -> var:'a var option -> bool

(** Remove and return the first entry of the highest-priority non-empty
    stratum ([removeHighestPriorityScheduledEntry], Fig. 4.8). *)
val pop : 'a agenda -> 'a agenda_entry option

val is_empty : 'a agenda -> bool

(** Entries pending across all strata (a counter). *)
val length : 'a agenda -> int

(** Drop every pending entry. *)
val clear : 'a agenda -> unit

(** {1 Introspection} *)

type stratum_stats = {
  sa_priority : int;
  sa_label : string;  (** via {!Types.stratum_label} *)
  sa_depth : int;  (** entries currently pending in this stratum *)
  sa_pushed : int;  (** total entries ever enqueued *)
  sa_popped : int;  (** total entries ever dequeued *)
  sa_hwm : int;  (** high-water mark of the stratum's queue depth *)
}

(** Per-stratum counters for every priority that has seen traffic,
    ascending by priority. Counters are cumulative for the agenda's
    lifetime (one episode, for the engine's agenda — the engine folds
    them into {!Types.network.net_agenda_totals} at episode end). *)
val stats : 'a agenda -> stratum_stats list
