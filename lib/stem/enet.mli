(** Electrical nets and their implied signal-typing constraints (§7.1).

    A net connects signals of subcells to one another and possibly to
    io-signals of the containing cell. Every net carries three typing
    variables (bit width, data type, electrical type) and three
    constraints relating them to the corresponding variables of every
    connected signal: an equality on widths and compatible-constraints on
    both type hierarchies. Connecting and disconnecting signals edits
    these constraints incrementally, giving incremental design checking
    for free. *)

open Design

(** [create env parent ~name] — a fresh, unconnected net inside composite
    cell [parent]. Registers the net in the parent's structure. *)
val create : env -> cell_class -> name:string -> enet

(** [connect env net member] — add a signal to the net: its typing
    variables join the net's constraints (with the §4.2.5 re-initialising
    propagation). Returns the paper's validity feedback: [Error] when the
    connection violates typing constraints — the connection is kept (the
    violation is the designer's to resolve), but all propagated values
    are rolled back. Connecting an already-connected member is a no-op. *)
val connect : env -> enet -> member -> (unit, violation) result

(** [disconnect env net member] — remove a signal; values that depended
    on its membership are erased. *)
val disconnect : env -> enet -> member -> unit

(** [export_width env net ~to_env ~to_] — keep a variable of {e another
    environment} equal to this net's inferred bit width, via a
    {!Dual.bridge}: whenever [bitWidth] changes here, the new width is
    pushed into [to_] as a child propagation episode in [to_env]'s
    network (correlated to the inferring episode in the trace). *)
val export_width : env -> enet -> to_env:env -> to_:var -> cstr

(** Total load capacitance on the net (pF): sum of [ss_cap] over every
    loading member ([Input] subcell pins and [Output] io-pins of the
    parent). *)
val total_load_capacitance : enet -> float
