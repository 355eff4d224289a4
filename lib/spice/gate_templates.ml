open Element

let inverter env cls ~in_ ~out =
  Template.register env cls
    (inverter_elements ~in_:(T_signal in_) ~out:(T_signal out) ())

let nand2 env cls ~a ~b ~y =
  Template.register env cls
    (nand2_elements ~a:(T_signal a) ~b:(T_signal b) ~y:(T_signal y) ())

(* y = a xor b as four NANDs: n1 = nand(a,b); y = nand(nand(a,n1),
   nand(b,n1)). *)
let xor2 env cls ~a ~b ~y =
  let a = T_signal a and b = T_signal b and y = T_signal y in
  let n1 = T_node "n1" and n2 = T_node "n2" and n3 = T_node "n3" in
  Template.register env cls
    (nand2_elements ~name:"g1" ~a ~b ~y:n1 ()
    @ nand2_elements ~name:"g2" ~a ~b:n1 ~y:n2 ()
    @ nand2_elements ~name:"g3" ~a:b ~b:n1 ~y:n3 ()
    @ nand2_elements ~name:"g4" ~a:n2 ~b:n3 ~y ())
