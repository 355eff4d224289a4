(** Ready-made transistor templates for the standard gate interfaces. *)

open Stem.Design

val inverter : env -> cell_class -> in_:string -> out:string -> unit

val nand2 : env -> cell_class -> a:string -> b:string -> y:string -> unit

(** Four-NAND XOR (12 transistors). *)
val xor2 : env -> cell_class -> a:string -> b:string -> y:string -> unit
