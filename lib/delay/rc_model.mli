(** The CRYSTAL-style delay model of Fig. 7.10.

    A cell's delay from input [a] to output [b] is its internal
    (nominal) delay plus a transient [R·C] term, where [R] is the drive
    resistance of output [b] and [C] the total load capacitance on the
    net that [b] drives in a particular placement. With resistances in
    kΩ and capacitances in pF the product is in ns, matching the delay
    unit. *)

open Stem.Design

(** [adjust env inst cd nominal] — instance delay value from the class
    (nominal) delay: [nominal] plus the transient R·C term of the
    instance's output in its current connectivity ([0.] when the output
    is unconnected or characteristics are missing). *)
val adjust : env -> instance -> class_delay -> Dval.t -> Dval.t option
