(** The SpiceNet / SpiceSimulation user-interface objects of §6.4.2,
    text edition.

    A [spice_net] is a calculated view holding the extracted net-list of
    a cell, erased (and re-extracted lazily) whenever the cell's
    structure changes. A [simulation] binds stimuli and remembers its
    last result; like the paper's SpiceSimulation windows it is marked
    {e outdated} when the design changes after the run. *)

open Stem.Design

type spice_net

val spice_net : env -> cell_class -> spice_net

(** The textual deck (what the SpiceNet window displays). *)
val deck : spice_net -> string

(** Has the cached net-list been erased by a design change? *)
val is_erased : spice_net -> bool

type simulation

val simulation : env -> cell_class -> simulation

(** Run (or re-run) the background simulation. *)
val run :
  simulation -> stimuli:Sim.stimulus list -> t_end:float -> ?dt:float -> unit ->
  Sim.result

(** Last result, if any. *)
val last_result : simulation -> Sim.result option

(** True when the design changed since the last run (the "outdated"
    window label). *)
val is_outdated : simulation -> bool
