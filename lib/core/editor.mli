(** The constraint editor, text edition (§5.4, §9.3).

    The paper's constraint editor is a window-based inspector for walking
    a network, examining constraints of a variable and variables of a
    constraint, tracing antecedents/consequences, assigning values and
    toggling propagation. The same operations here produce text; the
    [stem] CLI and the violation "debug" path print them. *)

open Types

(** The variable plus its attached constraints. *)
val inspect_var : Format.formatter -> 'a var -> unit

(** The constraint, its kind, enabledness, and each argument. *)
val inspect_cstr : Format.formatter -> 'a cstr -> unit

(** Backward dependency trace of a value (§4.2.4). *)
val trace_antecedents : Format.formatter -> 'a var -> unit

(** Forward dependency trace. *)
val trace_consequences : Format.formatter -> 'a var -> unit

(** Summary of the whole network: counts, unsatisfied constraints,
    statistics. *)
val dump_network : Format.formatter -> 'a network -> unit

(** All currently unsatisfied (enabled) constraints. *)
val unsatisfied : 'a network -> 'a cstr list

(** Render a trace event, for propagation transcripts (used by the
    figure-reproduction tables in the bench harness). *)
val pp_trace_event : Format.formatter -> 'a trace_event -> unit

(** [find_var net path] — look a variable up by its ["owner.name"]
    identification path (§4.1.1): one lookup in the network's path
    index. When several variables share a path, the latest created
    wins. *)
val find_var : 'a network -> string -> 'a var option

(** [find_cstr net id] — look a constraint up by id. *)
val find_cstr : 'a network -> int -> 'a cstr option

(** Variables whose path contains [substring]. *)
val grep_vars : 'a network -> string -> 'a var list

val pp_stats : Format.formatter -> stats -> unit

(** Wakeup-discipline totals ([st_wakeups]/[st_suppressed]) and
    per-stratum agenda traffic (pushed/popped/high-water mark per
    priority), as the `health` surfaces print them. *)
val pp_agenda : Format.formatter -> 'a network -> unit
