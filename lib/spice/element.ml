type terminal = T_signal of string | T_node of string | T_vdd | T_gnd

type mos_kind = NMOS | PMOS

type element =
  | Mos of { m_name : string; m_kind : mos_kind; m_d : terminal; m_g : terminal; m_s : terminal }
  | Res of { r_name : string; r_a : terminal; r_b : terminal; r_kohm : float }
  | Cap of { c_name : string; c_a : terminal; c_pf : float }

let inverter_elements ?(name = "inv") ~in_ ~out () =
  [
    Mos { m_name = name ^ "p"; m_kind = PMOS; m_d = out; m_g = in_; m_s = T_vdd };
    Mos { m_name = name ^ "n"; m_kind = NMOS; m_d = out; m_g = in_; m_s = T_gnd };
    Cap { c_name = name ^ "cl"; c_a = out; c_pf = 0.02 };
  ]

let nand2_elements ?(name = "nd") ~a ~b ~y () =
  let mid = T_node (name ^ "_mid") in
  [
    Mos { m_name = name ^ "pa"; m_kind = PMOS; m_d = y; m_g = a; m_s = T_vdd };
    Mos { m_name = name ^ "pb"; m_kind = PMOS; m_d = y; m_g = b; m_s = T_vdd };
    Mos { m_name = name ^ "na"; m_kind = NMOS; m_d = y; m_g = a; m_s = mid };
    Mos { m_name = name ^ "nb"; m_kind = NMOS; m_d = mid; m_g = b; m_s = T_gnd };
    Cap { c_name = name ^ "cl"; c_a = y; c_pf = 0.02 };
  ]

let nor2_elements ?(name = "nr") ~a ~b ~y () =
  let mid = T_node (name ^ "_mid") in
  [
    Mos { m_name = name ^ "pa"; m_kind = PMOS; m_d = mid; m_g = a; m_s = T_vdd };
    Mos { m_name = name ^ "pb"; m_kind = PMOS; m_d = y; m_g = b; m_s = mid };
    Mos { m_name = name ^ "na"; m_kind = NMOS; m_d = y; m_g = a; m_s = T_gnd };
    Mos { m_name = name ^ "nb"; m_kind = NMOS; m_d = y; m_g = b; m_s = T_gnd };
    Cap { c_name = name ^ "cl"; c_a = y; c_pf = 0.02 };
  ]
