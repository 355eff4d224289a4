(** One answer per observability question.

    Each function below answers one question as an {!Jsonl.json} tree.
    The telemetry server serves [Jsonl.to_string] of the tree; the shell
    and the CLI print {!text} of the same tree. No surface renders a
    fact another cannot, because there is only one rendering of each
    fact: the tree.

    Answers take the values their callers already hold — a board, a
    provenance store, a time-series store, a network. Questions over
    several served networks take {!named} boards. *)

open Constraint_kernel

(** A board under the name it is served (or shown) as; the value type
    is hidden so boards of different networks share one list. *)
type named = Named : string * 'a Board.t -> named

(** {1 Episodes} *)

(** Completed episode spans in every board's ring, oldest first:
    [[{"net","ep","label","outcome","latency_us","propagate_us",
    "drain_us","check_us","restore_us","steps","agenda_hwm"}]]. *)
val spans : named list -> Jsonl.json

(** Every board's stored exemplars, oldest first:
    [[{"net","episode","reasons","outcome","latency_us","events",
    "truncated"}]]. *)
val exemplars : named list -> Jsonl.json

(** One exemplar's row plus ["trace"]: its events, oldest first, as
    [{"seq","event"}] rows. *)
val exemplar : string -> 'a Sampler.exemplar -> Jsonl.json

(** {1 Windows, watchdogs and health} *)

(** One window snapshot: [{"net","index","duration_s","episodes",
    "committed","rolled_back","probes","violations","quarantines",
    "sink_errors","p50_us","p95_us","p99_us","max_us","steps",
    "episode_rate"}]. *)
val window : string -> Window.snapshot -> Jsonl.json

(** The retained completed windows, oldest first, then the current
    one. *)
val windows : string -> Window.t -> Jsonl.json

(** One board's health: [{"net","ok","firing","rules","evaluated",
    "last","current","exemplars","slowest"}] — last and current
    {!window}, the watchdog's firing rules ([{"rule","detail"}]), the
    sampler's counts and its slowest exemplar row (or [null]). *)
val health : string -> 'a Board.t -> Jsonl.json

(** A server's health: [{"healthy","nets","windows","stream",
    "exposed"}]. [nets] holds {!health} of every board, then
    one [{"net","ok","firing"}] row per SLO; [windows] the boards'
    current windows; [stream] the given counters; [exposed] every
    board's name. *)
val healthz : named list -> Slo.t list -> stream:(string * int) list -> Jsonl.json

(** Logged alert transitions of each [(name, watchdog)], as schema-v2
    records: [[{"v":2,"t":"alert","net":name,"rule","window",
    "state":"firing"|"cleared","detail"}]]. Each record, written as
    one line, parses with {!Jsonl.parse_line} and replays as
    [R_other]. *)
val alerts : (string * Watchdog.t) list -> Jsonl.json

(** SLO status at [now]: [[{"name","target","firing","windows":
    [{"seconds","threshold","burn"}]}]]; a window without data reports
    ["burn":null]. *)
val slos : Slo.t list -> now:float -> Jsonl.json

(** {1 Structure and cost} *)

(** Constraint kinds by activation count, most first:
    [[{"kind","activations","scheduled","checks","check_failures",
    "violations","quarantines"}]]. *)
val hotspots : Profiler.t -> Jsonl.json

(** {!Topo.stats} of a network, one key per field. *)
val topo : 'a Types.network -> Jsonl.json

(** {1 Provenance} *)

(** [{"var","chain":[{"depth","span"}]}] — {!Provenance.why}; a span
    is [{"id","net","ep","seq","var","value","just","source",
    "antecedents","dead"}]. *)
val why : 'a Provenance.t -> string -> Jsonl.json

(** [{"var","downstream":[span]}] — {!Provenance.blame}. *)
val blame : 'a Provenance.t -> string -> Jsonl.json

(** {!Provenance.critical_path} of an episode (the latest with spans
    when [None]), oldest span first. *)
val critical : 'a Provenance.t -> int option -> Jsonl.json

(** {!Provenance.episode_forest}: [[{"net","ep","label","outcome",
    "children"}]]; an open episode's outcome is [null]. *)
val episodes : 'a Provenance.t -> Jsonl.json

(** {1 History} *)

(** Store statistics and its series: [{"dir","segments","blocks",
    "points","disk_bytes","compression","series":[{"series","points",
    "first","last"}]}]. *)
val history : Tsdb.t -> Jsonl.json

(** One series over [[from_, to_]]: [{"metric","from","to","points":
    [[t,v]]}], or with [step] [{"metric","from","to","step",
    "buckets":[{"t","min","max","avg","count"}]}]. *)
val query :
  Tsdb.t -> series:string -> from_:float -> to_:float -> step:float option ->
  Jsonl.json

(** One series over [[from_, to_]] in a line: [{"series","points",
    "min","max","last","sparkline"}]. The sparkline has one glyph per
    point, or one per time bucket when there are more than 60 points. *)
val summary : Tsdb.t -> string -> from_:float -> to_:float -> Jsonl.json

(** {1 The text view} *)

(** Render any answer for a terminal. An object whose values are all
    scalars (or arrays of scalars) prints on one line as [k=v k=v];
    any other object prints one [key: value] line per field, nesting
    indented by two spaces; array elements print as [- ] items;
    arrays of scalars print inline as [[a,b]]. Strings print bare
    unless empty or holding whitespace, a control byte, a double quote,
    a backslash, a comma, [=] or a bracket or brace, in which case they
    print JSON-quoted. Integral floats print without decimals, others
    with two (four significant digits below 1); [null] prints as
    [null]. *)
val text : Format.formatter -> Jsonl.json -> unit
