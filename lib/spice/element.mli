(** Circuit primitives for the internal switch-level simulator.

    The paper integrates the external SPICE program through textual
    net-lists (§6.4.2); this reproduction replaces the external process
    with an internal simulator over the same extracted net-lists. Units:
    kΩ, pF, V, ns (so [R·C] is in ns directly). *)

type terminal =
  | T_signal of string (* io-signal of the template's cell *)
  | T_node of string (* internal node, local to one template instance *)
  | T_vdd
  | T_gnd

type mos_kind = NMOS | PMOS

type element =
  | Mos of { m_name : string; m_kind : mos_kind; m_d : terminal; m_g : terminal; m_s : terminal }
  | Res of { r_name : string; r_a : terminal; r_b : terminal; r_kohm : float }
  | Cap of { c_name : string; c_a : terminal; c_pf : float }

(** Transistor quads for common gates, for building templates: [name]
    prefixes element names. *)

val inverter_elements : ?name:string -> in_:terminal -> out:terminal -> unit -> element list

val nand2_elements : ?name:string -> a:terminal -> b:terminal -> y:terminal -> unit -> element list

val nor2_elements : ?name:string -> a:terminal -> b:terminal -> y:terminal -> unit -> element list
