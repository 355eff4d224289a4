open Types

let ( let* ) = Result.bind

type 'a attached = 'a cstr * (unit, 'a violation) result

let finish ~attach net c =
  if attach then (c, Network.add_constraint net c) else (c, Ok ())

(* Copy the changed variable's value to every other argument. The shared
   inference of equality and compatibility constraints. *)
let copy_inference ctx c changed =
  match changed with
  | None -> Ok ()
  | Some v -> (
    match v.v_value with
    | None -> Ok ()
    | Some x ->
      let rec go = function
        | [] -> Ok ()
        | arg :: rest ->
          if Var.equal arg v then go rest
          else
            let* () =
              Engine.set_by_constraint ctx arg x ~source:c ~record:(Single_var v)
            in
            go rest
      in
      go c.c_args)

let set_values c = List.filter_map (fun v -> v.v_value) c.c_args

let equality ?(attach = true) ?label ?strength net vars =
  let equal =
    match vars with
    | v :: _ -> v.v_equal
    | [] -> invalid_arg "Clib.equality: no arguments"
  in
  let satisfied c =
    match set_values c with
    | [] -> true
    | x :: rest -> List.for_all (equal x) rest
  in
  let c =
    Cstr.make net ~kind:"equality" ?label ?strength ~propagate:copy_inference
      ~satisfied vars
  in
  finish ~attach net c

let compatible ?(attach = true) ?label ?(kind = "compatible") ~compat net vars =
  let satisfied c =
    let rec pairs = function
      | [] -> true
      | x :: rest -> List.for_all (compat x) rest && pairs rest
    in
    pairs (set_values c)
  in
  let c = Cstr.make net ~kind ?label ~propagate:copy_inference ~satisfied vars in
  finish ~attach net c

exception Unset_input

(* The inputs' values in order, in one pass; raises [Unset_input] at the
   first unset one. *)
let[@tail_mod_cons] rec input_values = function
  | [] -> []
  | v :: rest -> (
    match v.v_value with
    | Some x -> x :: input_values rest
    | None -> raise_notrace Unset_input)

let functional ?(attach = true) ?label ?strength ?(two_watch = false) ~kind ~f
    ~result net inputs =
  let computed () =
    match input_values inputs with
    | xs -> f xs
    | exception Unset_input -> None
  in
  let propagate ctx c _changed =
    match computed () with
    | None -> Ok ()
    | Some r -> Engine.set_by_constraint ctx result r ~source:c ~record:All_arguments
  in
  let satisfied _c =
    match (result.v_value, computed ()) with
    | Some actual, Some expected -> result.v_equal actual expected
    | None, _ | _, None -> true
  in
  let in_dependency _c record arg =
    match record with
    | All_arguments -> not (Var.equal arg result)
    | Single_var w -> Var.equal w arg
    | Some_vars ws -> List.exists (Var.equal arg) ws
    | Opaque -> false
  in
  let recompute () =
    match computed () with
    | Some r -> Engine.poke net result r ~just:Application
    | None -> ()
  in
  (* A functional constraint never needs to wake on its own result; with
     [~two_watch:true] it also sleeps through input changes while two or
     more arguments are still unset (it cannot compute until one input
     remains), at the cost of watch rotation. *)
  let activation =
    Cstr.activation
      ~wake:(if two_watch then Two_watch else Watch inputs)
      ~schedule:(On_agenda functional_priority) ~in_dependency ()
  in
  let c =
    Cstr.make net ~kind ?label ~activation ~recompute ?strength ~propagate
      ~satisfied (result :: inputs)
  in
  finish ~attach net c

let predicate ?(attach = true) ?label ~kind ~pred net vars =
  let propagate _ctx _c _changed = Ok () in
  let satisfied c = pred (List.map (fun v -> v.v_value) c.c_args) in
  let c =
    Cstr.make net ~kind ?label
      ~activation:(Cstr.activation ~in_dependency:(fun _ _ _ -> false) ())
      ~propagate ~satisfied vars
  in
  finish ~attach net c

let update ?(attach = true) ?label ~sources ~targets net =
  let is_source v = List.exists (Var.equal v) sources in
  let propagate ctx c changed =
    match changed with
    | Some v when is_source v ->
      let rec go = function
        | [] -> Ok ()
        | t :: rest ->
          let* () = Engine.reset_by_constraint ctx t ~source:c in
          go rest
      in
      go targets
    | Some _ | None -> Ok ()
  in
  let satisfied _c = true in
  let c =
    Cstr.make net ~kind:"update" ?label ~fires_on_reset:true
      ~activation:(Cstr.activation ~in_dependency:(fun _ _ _ -> false) ())
      ~propagate ~satisfied (sources @ targets)
  in
  finish ~attach net c

let one_way ?(attach = true) ?label ?(kind = "one-way") ?strength
    ?(check = fun _ _ -> true) ~f ~from_ ~to_ net =
  let propagate ctx c changed =
    match changed with
    | Some v when Var.equal v from_ -> (
      match from_.v_value with
      | None -> Ok ()
      | Some x -> (
        match f x with
        | None -> Ok ()
        | Some y ->
          Engine.set_by_constraint ctx to_ y ~source:c ~record:(Single_var from_)))
    | Some _ | None -> Ok ()
  in
  let satisfied _c =
    match (from_.v_value, to_.v_value) with
    | Some x, Some y -> check x y
    | None, _ | _, None -> true
  in
  let c = Cstr.make net ~kind ?label ?strength ~propagate ~satisfied [ from_; to_ ] in
  finish ~attach net c
