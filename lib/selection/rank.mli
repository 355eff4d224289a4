(** Merit ranking of valid realisations — beyond the paper.

    §8.3 notes that constraint propagation validates realisations but
    "cannot measure how well these constraints are satisfied", and
    leaves differentiating the relative merits of valid realisations to
    future work (§9.3). This module adds the simplest useful version: a
    weighted cost over the candidate's delay and area characteristics in
    the instance's context, used to order the results of
    {!Select.select}. *)

open Stem.Design

(** [rank env cands ~for_ ()] — candidates sorted by ascending merit
    (unknown-merit candidates last, in their original order). Default
    weights 1.0 / 1.0. *)
val rank :
  env -> cell_class list -> for_:instance -> ?delay_weight:float ->
  ?area_weight:float -> unit -> (cell_class * float option) list
