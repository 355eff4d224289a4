(** Topology export and structural statistics.

    {!to_dot} renders a network's bipartite constraint–variable graph as
    DOT/graphviz: variables as ellipses (with values), constraints as
    boxes annotated with profiler heat (a white→red fill ramp by the
    kind's activation count) and quarantine/disable status; an optional
    metrics registry puts the episode-latency quantiles on the graph
    label. {!stats} answers the structural questions without rendering:
    fan-in/out distributions, derivation depth (longest justification
    chain — the DAG is acyclic by construction), and cycle participation
    (the 2-core of the structural graph: exactly the nodes on some
    undirected cycle). *)

open Constraint_kernel.Types

type stats = {
  tp_vars : int;
  tp_cstrs : int;
  tp_edges : int;  (** sum of constraint arities *)
  tp_var_fan_max : int;
  tp_var_fan_mean : float;
  tp_cstr_arity_max : int;
  tp_cstr_arity_mean : float;
  tp_depth : int;  (** longest derivation chain over current values *)
  tp_cyclic_vars : int;  (** variables on some structural cycle *)
  tp_cyclic_cstrs : int;
  tp_quarantined : int;
  tp_disabled : int;
}

val stats : 'a network -> stats

(** Escape one user-supplied string for inclusion in a quoted DOT
    string: quotes/backslashes escaped, [\n]/[\r] as DOT line-break
    escapes, other control bytes as literal [\xNN] placeholders. *)
val dot_escape : string -> string

(** [to_dot net] — a complete [graph { … }] document. [?profiler]
    supplies activation heat, [?metrics] the latency quantiles for the
    graph label, [~values:false] omits variable values, [?max_nodes]
    (default 500) bounds the rendering (excess nodes are counted in a
    placeholder, never silently dropped). *)
val to_dot :
  ?profiler:Profiler.t ->
  ?metrics:Metrics.t ->
  ?values:bool ->
  ?max_nodes:int ->
  'a network ->
  string
