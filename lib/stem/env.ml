open Constraint_kernel
open Design

let next_env_id = ref 0

let create ?(name = "stem") () =
  incr next_env_id;
  {
    env_id = !next_env_id;
    env_cnet = Engine.create_network ~name ();
    env_cells = [];
    env_next_uid = 0;
  }

let cnet env = env.env_cnet

let fresh_uid env =
  let uid = env.env_next_uid in
  env.env_next_uid <- uid + 1;
  uid

let register_cell env cls = env.env_cells <- cls :: env.env_cells

let cells env = List.rev env.env_cells

let find_cell env name =
  List.find_opt (fun c -> c.cc_name = name) env.env_cells

let enable_propagation env b =
  if b then Engine.enable env.env_cnet else Engine.disable env.env_cnet

let propagation_enabled env = Engine.is_enabled env.env_cnet

(* Libraries layered over STEM (delay networks, SPICE templates) keep
   per-environment tables through [local], so those tables are collected
   with the environment instead of pinning every design ever built: the
   binding is ephemeron-keyed on the environment, and holds its value
   only while the environment itself is reachable. *)
module Scoped = Ephemeron.K1.Make (struct
  type t = env

  let equal = ( == )

  let hash e = Hashtbl.hash e.env_id
end)

let local make =
  let tbl = Scoped.create 8 in
  fun env ->
    match Scoped.find_opt tbl env with
    | Some x -> x
    | None ->
      let x = make () in
      Scoped.replace tbl env x;
      x
