(** The design environment: one constraint network plus the registry of
    cell classes. *)

open Design

val create : ?name:string -> unit -> env

(** The environment's constraint network. *)
val cnet : env -> cnet

val fresh_uid : env -> int

val register_cell : env -> cell_class -> unit

(** Cells in registration order. *)
val cells : env -> cell_class list

val find_cell : env -> string -> cell_class option

(** Toggle constraint propagation (the CPSwitch, §5.3). *)
val enable_propagation : env -> bool -> unit

val propagation_enabled : env -> bool

(** [local make] — per-environment storage: the returned function gives
    each environment its own [make ()], created on first use and
    collected together with the environment. *)
val local : (unit -> 'a) -> env -> 'a
