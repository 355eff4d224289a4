(** Delay constraint networks (§7.3, Fig. 7.12).

    For each declared class delay of a composite cell, the network
    equates the class delay variable with the maximum over all delay
    paths of the sum of the instance delay variables along each path
    ([UniMaximumConstraint] over [UniAdditionConstraint]s). Instance
    delay variables are dual to the subcells' class delay variables and
    receive R·C-adjusted values through implicit constraints, so delay
    characteristics propagate up the design hierarchy as soon as they
    are available.

    The networks of a cell are erased whenever its internal structure
    changes and rebuilt only when delay values are requested. *)

open Stem.Design

(** [is_built env cls]. *)
val is_built : env -> cell_class -> bool

(** [delay env cls ~from_ ~to_] — current worst-case delay value in ns,
    building the network (and pulling leaf characteristics through the
    hierarchy) on demand. [None] when the delay is not declared or not
    yet computable. *)
val delay : env -> cell_class -> from_:string -> to_:string -> float option

(** [critical_path env cls ~from_ ~to_] — the path realising the current
    worst-case delay, with its delay in ns. *)
val critical_path : env -> cell_class -> from_:string -> to_:string -> (Delay_path.path * float) option
