open Stem.Design

(* Cell uid -> elements, one table per environment (uids are only
   unique within one), collected with the environment. *)
let table : env -> (int, Element.element list) Hashtbl.t =
  Stem.Env.local (fun () -> Hashtbl.create 17)

let register env cls elements = Hashtbl.replace (table env) cls.cc_uid elements

let find env cls = Hashtbl.find_opt (table env) cls.cc_uid

let is_leaf_template env cls = Hashtbl.mem (table env) cls.cc_uid
