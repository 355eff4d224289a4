open Types

type 'a plan = { pl_order : 'a cstr list }

exception Cyclic of string

(* Kahn's algorithm over the dependency graph of compilable constraints:
   an edge runs from the producer of a variable to every constraint
   consuming that variable as an input.  The result variable of a
   functional constraint is, by convention (Clib.functional), its first
   argument. *)
let plan_of cstrs =
  let compilable = List.filter (fun c -> c.c_recompute <> None) cstrs in
  let result_of c =
    match c.c_args with
    | result :: _ -> result
    | [] -> invalid_arg "Compile.plan: constraint without arguments"
  in
  let producer : (int, 'a cstr) Hashtbl.t = Hashtbl.create 32 in
  List.iter (fun c -> Hashtbl.replace producer (result_of c).v_id c) compilable;
  let succs : (int, 'a cstr list) Hashtbl.t = Hashtbl.create 32 in
  let indegree : (int, int) Hashtbl.t = Hashtbl.create 32 in
  List.iter (fun c -> Hashtbl.replace indegree c.c_id 0) compilable;
  let add_edge from_c to_c =
    let cur = try Hashtbl.find succs from_c.c_id with Not_found -> [] in
    Hashtbl.replace succs from_c.c_id (to_c :: cur);
    Hashtbl.replace indegree to_c.c_id
      (1 + try Hashtbl.find indegree to_c.c_id with Not_found -> 0)
  in
  List.iter
    (fun c ->
      match c.c_args with
      | _result :: inputs ->
        List.iter
          (fun input ->
            match Hashtbl.find_opt producer input.v_id with
            | Some p when p.c_id <> c.c_id -> add_edge p c
            | Some _ | None -> ())
          inputs
      | [] -> ())
    compilable;
  let ready = Queue.create () in
  List.iter
    (fun c -> if Hashtbl.find indegree c.c_id = 0 then Queue.add c ready)
    compilable;
  let order = ref [] and emitted = ref 0 in
  while not (Queue.is_empty ready) do
    let c = Queue.pop ready in
    order := c :: !order;
    incr emitted;
    List.iter
      (fun succ ->
        let d = Hashtbl.find indegree succ.c_id - 1 in
        Hashtbl.replace indegree succ.c_id d;
        if d = 0 then Queue.add succ ready)
      (try Hashtbl.find succs c.c_id with Not_found -> [])
  done;
  if !emitted <> List.length compilable then
    raise (Cyclic "Compile.plan: functional constraints contain a cycle");
  { pl_order = List.rev !order }

let plan net =
  plan_of (List.filter (fun c -> c.c_enabled) (List.rev net.net_cstrs))

let size p = List.length p.pl_order

let replay p =
  List.iter
    (fun c -> match c.c_recompute with Some f -> f () | None -> ())
    p.pl_order

let order p = p.pl_order
