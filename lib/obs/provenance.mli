(** Causal provenance: a bounded derivation DAG over assignments, read
    from the spans of a network's {!Constraint_kernel.Event_log} (every
    {!Board} gives its network one).

    Every assignment and reset is a {e causal span} — episode, sequence
    number, variable, rendered value, justification, source constraint,
    and the span ids of its antecedents.  The log captures the
    antecedent candidates {e at emit time} from the variable's
    just-installed justification, so the edges stay exact even after
    the variable is overwritten later — unlike the live dependency walk,
    which only explains current values.  Spans of episodes that roll
    back (or tentative probes) are kept but marked dead, and the
    per-variable latest index is reverted, so queries always agree with
    the live network.

    Cross-network stitching: each store enters a monomorphic
    reader, keyed by network name, in a {!scope} — an explicit value
    shared by the stores its creator wants stitched together.  A span
    whose episode was caused by another network's episode (the
    {!Constraint_kernel.Types.parent_ref} on [T_episode_start],
    recorded by {!Constraint_kernel.Engine} and the dual bridges of
    [Stem.Dual]) chains through the scope into the parent network's
    store, so {!why} follows hierarchy-wide propagation back to the
    originating [User]/[Application] entry across every traversed
    network of the scope. *)

(** {1 Spans} *)

type span = {
  sp_id : int;  (** unique within its store *)
  sp_net : string;
  sp_episode : int;
  sp_seq : int;
  sp_var : string;  (** variable path ["owner.name"] *)
  sp_value : string option;  (** rendered value; [None] for a reset *)
  sp_just : string;  (** {!Jsonl.just_string} of the justification *)
  sp_source : string;  (** source label: ["kind#id"] or ["external"] *)
  sp_antecedents : int list;  (** span ids within the same store *)
  sp_cross : Constraint_kernel.Types.parent_ref option;
      (** parent episode, when this episode was caused by another
          network's episode *)
  sp_dead : bool;  (** episode rolled back *)
}

type episode = {
  epi_net : string;
  epi_id : int;
  epi_label : string;
  epi_parent : Constraint_kernel.Types.parent_ref option;
  epi_outcome : Constraint_kernel.Types.episode_outcome option;
      (** [None] while the episode is still open *)
}

(** {1 Store lifecycle} *)

type 'a t

(** The stores that stitch with one another. Within a scope a network
    name names one store: a store created for a same-named network
    replaces the earlier store's entry. *)
type scope

val scope : unit -> scope

(** [create ~pp_value ~scope log net] — the store reading [net]'s
    [log], its reader entered under [net]'s name in [scope] for
    cross-network queries. The newest {!capacity} spans are retained.
    [pp_value] renders assigned values. {!Board.attach} creates the
    store. *)
val create :
  pp_value:('a -> string) -> scope:scope ->
  'a Constraint_kernel.Types.event_log ->
  'a Constraint_kernel.Types.network -> 'a t

(** Spans retained, oldest evicted first: 8192. *)
val capacity : int

(** Spans evicted so far by the capacity bound (chains reaching them
    truncate). *)
val evicted : 'a t -> int

(** Retained spans with three or more antecedents. *)
val spilled : 'a t -> int

(** {1 Inspection} *)

val find_span : 'a t -> int -> span option

(** Latest live span for a variable path, if any. *)
val latest_span : 'a t -> string -> span option

(** Live (non-evicted, non-dead) spans, oldest first. *)
val live_spans : 'a t -> span list

(** Recorded episodes, oldest first (bounded to the most recent 1024). *)
val episodes : 'a t -> episode list

(** {1 Queries} *)

type why_step = { ws_depth : int; ws_span : span }

(** [why t path] — the backward causal chain of [path]'s current value:
    the latest live span, its antecedents, their antecedents, … ending
    at the originating [User]/[Application] entry.  When a span has no
    local antecedents but its episode was caused by another network's
    episode, the chain continues in that network's store in [t]'s scope
    at the recorded cause variable.  Pre-order; [ws_depth] is the causal
    distance.  Empty if the variable has no live span. *)
val why : 'a t -> string -> why_step list

(** [blame t path] — the forward fan-out: every live span (in this
    store and every other one of its scope) causally downstream of
    [path]'s latest span, through antecedent edges and cross-network
    causes.  The root itself is excluded; local spans first. *)
val blame : 'a t -> string -> span list

(** [critical_path t ?episode ()] — the longest causal chain of spans
    within [episode] (default: the most recent episode that created
    spans), oldest first.  The propagation analogue of a flamegraph's
    hottest stack. *)
val critical_path : 'a t -> ?episode:int -> unit -> span list

(** {1 Episode tree} *)

type tree_node = { tn_episode : episode; tn_children : tree_node list }

(** The forest of episodes across every store of [t]'s scope, children
    nested under the episode their [parent_ref] names. *)
val episode_forest : 'a t -> tree_node list
