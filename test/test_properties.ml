(* Deeper property-based tests: global invariants of the propagation
   engine on randomly generated networks and operation sequences, the
   compile/propagate equivalence, dependency-trace duality, the agenda
   discipline, and value-parser round trips. *)

open Constraint_kernel

let ivar net name = Var.create net ~owner:"p" ~name ~equal:Int.equal ~pp:Fmt.int ()

let sum = function [] -> None | xs -> Some (List.fold_left ( + ) 0 xs)

(* ------------------------------------------------------------------ *)
(* Random networks                                                     *)
(* ------------------------------------------------------------------ *)

(* A random equality graph over [n] variables with [m] random edges
   (cycles allowed — consistent equalities), plus [f] uni-addition
   constraints feeding fresh result variables. *)
let random_network ~n ~edges ~sums rand_int =
  let net = Engine.create_network ~name:"random" () in
  let vars = Array.init n (fun i -> ivar net (Printf.sprintf "v%d" i)) in
  for _ = 1 to edges do
    let a = vars.(rand_int n) and b = vars.(rand_int n) in
    if not (Var.equal a b) then ignore (Clib.equality net [ a; b ])
  done;
  let results =
    Array.init sums (fun i ->
        let r = ivar net (Printf.sprintf "sum%d" i) in
        let a = vars.(rand_int n) and b = vars.(rand_int n) in
        let _ = Clib.functional ~kind:"uni-addition" ~f:sum ~result:r net [ a; b ] in
        r)
  in
  (net, vars, results)

let all_satisfied net =
  List.for_all
    (fun c -> (not (Cstr.is_enabled c)) || Cstr.is_satisfied c)
    (List.rev net.Types.net_cstrs)

(* The central safety invariant: no operation — accepted or rejected —
   ever leaves the network in a state with an unsatisfied constraint.
   Rejected operations restore; accepted ones were checked; removals
   erase their dependents. *)
let prop_network_always_consistent =
  QCheck.Test.make ~name:"network is never left inconsistent" ~count:60
    QCheck.(
      quad (int_range 2 12) (int_range 1 16) (int_range 0 4)
        (list_of_size Gen.(int_range 1 25) (pair (int_range 0 11) (int_range (-20) 20))))
    (fun (n, edges, sums, ops) ->
      let seed = ref 7 in
      let rand_int k =
        seed := ((!seed * 1103515245) + 12345) land 0x3fffffff;
        !seed mod k
      in
      let net, vars, _ = random_network ~n ~edges ~sums rand_int in
      List.for_all
        (fun (idx, value) ->
          let v = vars.(idx mod n) in
          let op = (idx + value) mod 4 in
          (match op with
          | 0 -> ignore (Engine.set net v value)
          | 1 -> ignore (Engine.reset net v)
          | 2 -> ignore (Engine.can_be_set_to net v value)
          | _ -> (
            (* remove a random remaining constraint (erases dependents) *)
            match List.rev net.Types.net_cstrs with
            | [] -> ()
            | cstrs ->
              let c = List.nth cstrs (rand_int (List.length cstrs)) in
              Network.remove_constraint net c));
          all_satisfied net)
        ops)

(* compile/propagate agreement on random two-layer DAGs *)
let prop_compile_matches_propagation =
  QCheck.Test.make ~name:"compiled replay = propagated values" ~count:60
    QCheck.(pair (int_range 2 8) (list_of_size Gen.(int_range 2 8) (int_range (-50) 50)))
    (fun (pairs, inputs_vals) ->
      let net = Engine.create_network ~name:"dag" () in
      let inputs =
        List.mapi (fun i _ -> ivar net (Printf.sprintf "i%d" i)) inputs_vals
      in
      let arr = Array.of_list inputs in
      let n = Array.length arr in
      let results =
        List.init pairs (fun i ->
            let r = ivar net (Printf.sprintf "r%d" i) in
            let a = arr.(i mod n) and b = arr.((i * 3 + 1) mod n) in
            let _ =
              Clib.functional ~kind:"uni-addition" ~f:sum ~result:r net [ a; b ]
            in
            r)
      in
      (* drive by propagation *)
      List.iter2
        (fun v x -> ignore (Engine.set net v x))
        inputs inputs_vals;
      let propagated = List.map Var.value results in
      (* erase results, poke inputs, replay the compiled plan *)
      let plan = Compile.plan net in
      List.iter Var.clear results;
      List.iter2 (fun v x -> Var.poke v x ~just:Types.User) inputs inputs_vals;
      Compile.replay plan;
      List.map Var.value results = propagated)

(* dependency duality: w is a consequence of v iff v is an antecedent
   of w (over propagated values) *)
let prop_dependency_duality =
  QCheck.Test.make ~name:"antecedents/consequences duality" ~count:40
    QCheck.(pair (int_range 3 10) (int_range 1 14))
    (fun (n, edges) ->
      let seed = ref 13 in
      let rand_int k =
        seed := ((!seed * 48271) + 11) land 0x3fffffff;
        !seed mod k
      in
      let net, vars, _ = random_network ~n ~edges ~sums:2 rand_int in
      ignore (Engine.set net vars.(0) 5);
      let mem v vs = List.exists (Var.equal v) vs in
      Array.for_all
        (fun v ->
          let conseqs = Dependency.variable_consequences v in
          List.for_all
            (fun w ->
              let ants, _ = Dependency.antecedents w in
              mem v ants)
            conseqs)
        vars)

(* ------------------------------------------------------------------ *)
(* Agenda discipline (model-based)                                     *)
(* ------------------------------------------------------------------ *)

let prop_agenda_priority_fifo =
  QCheck.Test.make ~name:"agenda pops by priority then FIFO" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 30) (int_range 0 40))
    (fun priorities ->
      let net = Engine.create_network ~name:"a" () in
      let v = ivar net "v" in
      let agenda = Agenda.create () in
      (* model: list of (priority, seq) in insertion order *)
      let cstrs =
        List.mapi
          (fun i p ->
            let c =
              Cstr.make net ~kind:(Printf.sprintf "c%d" i)
                ~propagate:(fun _ _ _ -> Ok ())
                ~satisfied:(fun _ -> true)
                [ v ]
            in
            ignore (Agenda.schedule agenda ~priority:p c ~var:None);
            (p, i, c))
          priorities
      in
      let expected =
        List.stable_sort (fun (p1, i1, _) (p2, i2, _) ->
            match compare p1 p2 with 0 -> compare i1 i2 | c -> c)
          cstrs
      in
      let rec drain acc =
        match Agenda.pop agenda with
        | None -> List.rev acc
        | Some e -> drain (e.Types.e_cstr :: acc)
      in
      let popped = drain [] in
      List.length popped = List.length expected
      && List.for_all2 (fun c (_, _, c') -> Cstr.equal c c') popped expected)

(* ------------------------------------------------------------------ *)
(* Wakeup discipline: watched activation vs wake-all                   *)
(* ------------------------------------------------------------------ *)

(* An n-ary sum built directly on [Cstr.make] so the wake spec is the
   only thing that differs between the compared networks. *)
let nary_sum ~wake net inputs result =
  let computed () =
    let vals = List.map (fun v -> v.Types.v_value) inputs in
    if List.exists Option.is_none vals then None
    else Some (List.fold_left (fun acc v -> acc + Option.get v) 0 vals)
  in
  let propagate ctx c _changed =
    match computed () with
    | None -> Ok ()
    | Some r ->
      Engine.set_by_constraint ctx result r ~source:c ~record:Types.All_arguments
  in
  let satisfied _c =
    match (result.Types.v_value, computed ()) with
    | Some actual, Some expected -> actual = expected
    | None, _ | _, None -> true
  in
  let activation =
    Cstr.activation ~wake ~schedule:(On_agenda Types.functional_priority) ()
  in
  let c =
    Cstr.make net ~kind:"nsum" ~activation ~propagate ~satisfied
      (result :: inputs)
  in
  ignore (Network.add_constraint net c);
  c

(* Distinct argument pools for k sums over n shared inputs, derived from
   one deterministic stream so every compared network gets the same
   topology. *)
let sum_topology ~n ~k rand_int =
  List.init k (fun _ ->
      let arity = 2 + rand_int 4 in
      let rec pick acc = function
        | 0 -> acc
        | m ->
          let i = rand_int n in
          if List.mem i acc then pick acc m else pick (i :: acc) (m - 1)
      in
      pick [] (min arity n))

let build_sum_net ~wake ~n ~pools =
  let net = Engine.create_network ~name:"wakeup" () in
  let inputs = Array.init n (fun i -> ivar net (Printf.sprintf "x%d" i)) in
  let results =
    List.mapi
      (fun j pool ->
        let r = ivar net (Printf.sprintf "s%d" j) in
        ignore (nary_sum ~wake net (List.map (fun i -> inputs.(i)) pool) r);
        r)
      pools
  in
  (net, inputs, results)

let apply_ops net (inputs : int Types.var array) ops =
  let n = Array.length inputs in
  List.iter
    (fun (idx, value) ->
      let v = inputs.(idx mod n) in
      match (idx + value) mod 3 with
      | 0 | 1 -> ignore (Engine.set net v value)
      | _ -> ignore (Engine.reset net v))
    ops

let values inputs results =
  Array.to_list (Array.map Var.value inputs) @ List.map Var.value results

(* The tentpole invariant: watching narrows which constraints are woken,
   never the fixpoint reached. Wake-all, explicit watch lists and the
   rotating two-watch discipline must agree on every variable after any
   episode sequence — and the watched runs must never deliver more
   wakeups than wake-all does. *)
let prop_watched_matches_wakeall =
  QCheck.Test.make ~name:"watched/two-watch fixpoints = wake-all" ~count:60
    QCheck.(
      quad (int_range 2 10) (int_range 1 5) (int_range 0 97)
        (list_of_size Gen.(int_range 1 30) (pair (int_range 0 9) (int_range (-9) 9))))
    (fun (n, k, salt, ops) ->
      let mk_rand () =
        let seed = ref (salt + 3) in
        fun m ->
          seed := ((!seed * 1103515245) + 12345) land 0x3fffffff;
          !seed mod m
      in
      let pools = sum_topology ~n ~k (mk_rand ()) in
      let run wake =
        let net, inputs, results = build_sum_net ~wake ~n ~pools in
        apply_ops net inputs ops;
        (values inputs results, (Engine.stats net).st_wakeups, all_satisfied net)
      in
      let base, wake_all_wakeups, ok0 = run Types.Wake_all in
      let watched, watched_wakeups, ok1 =
        (* watch exactly the inputs of each sum: rebuild per-net vars *)
        let net, inputs, results =
          let net = Engine.create_network ~name:"wakeup" () in
          let inputs = Array.init n (fun i -> ivar net (Printf.sprintf "x%d" i)) in
          let results =
            List.mapi
              (fun j pool ->
                let r = ivar net (Printf.sprintf "s%d" j) in
                let args = List.map (fun i -> inputs.(i)) pool in
                ignore (nary_sum ~wake:(Types.Watch args) net args r);
                r)
              pools
          in
          (net, inputs, results)
        in
        apply_ops net inputs ops;
        (values inputs results, (Engine.stats net).st_wakeups, all_satisfied net)
      in
      let two_watch, two_watch_wakeups, ok2 = run Types.Two_watch in
      base = watched && base = two_watch && ok0 && ok1 && ok2
      && watched_wakeups <= wake_all_wakeups
      && two_watch_wakeups <= wake_all_wakeups)

(* Watch rotation under probes: [can_be_set_to] rolls the episode back,
   which must also roll back any watch rotations, so a probe is
   observationally free — the final states still agree with wake-all and
   with a probe-free replay. *)
let prop_rotation_survives_probes =
  QCheck.Test.make ~name:"two-watch rotation unwinds across probes" ~count:60
    QCheck.(
      pair (int_range 3 8)
        (list_of_size Gen.(int_range 1 25)
           (triple (int_range 0 7) (int_range (-9) 9) bool)))
    (fun (n, ops) ->
      let pools = [ List.init n (fun i -> i) ] in
      let run wake ~probe =
        let net, inputs, results = build_sum_net ~wake ~n ~pools in
        List.iter
          (fun (idx, value, probe_first) ->
            let v = inputs.(idx mod n) in
            if probe && probe_first then
              ignore (Engine.can_be_set_to net v (value * 2));
            if value mod 3 = 0 then ignore (Engine.reset net v)
            else ignore (Engine.set net v value))
          ops;
        (values inputs results, all_satisfied net)
      in
      let base, ok0 = run Types.Wake_all ~probe:false in
      let plain, ok1 = run Types.Two_watch ~probe:false in
      let probed, ok2 = run Types.Two_watch ~probe:true in
      base = plain && base = probed && ok0 && ok1 && ok2)

(* Select through an index variable: the data-dependent n-ary case where
   which argument matters changes as values move — rotation must not
   starve the constraint of the wakeups it needs. *)
let prop_watched_select =
  QCheck.Test.make ~name:"watched select tracks index and slots" ~count:80
    QCheck.(
      pair (int_range 2 6)
        (list_of_size Gen.(int_range 1 20) (pair (int_range 0 6) (int_range 0 30))))
    (fun (slots, ops) ->
      let run two_watch =
        let net = Engine.create_network ~name:"sel" () in
        let index = ivar net "idx" in
        let cells = Array.init slots (fun i -> ivar net (Printf.sprintf "c%d" i)) in
        let out = ivar net "out" in
        let f = function
          | idx :: cells -> List.nth_opt cells (idx mod slots)
          | [] -> None
        in
        let _ =
          Clib.functional ~two_watch ~kind:"select" ~f ~result:out net
            (index :: Array.to_list cells)
        in
        List.iter
          (fun (i, x) ->
            if i = 0 then ignore (Engine.set net index x)
            else ignore (Engine.set net cells.((i - 1) mod slots) x))
          ops;
        ( Var.value out,
          Var.value index,
          Array.to_list (Array.map Var.value cells),
          all_satisfied net )
      in
      run false = run true)

(* ------------------------------------------------------------------ *)
(* Dval algebra and parser                                             *)
(* ------------------------------------------------------------------ *)

let gen_numeric =
  QCheck.(
    oneof
      [
        map (fun i -> Dval.Int i) (int_range (-1000) 1000);
        map (fun f -> Dval.Float f) (float_range (-100.0) 100.0);
      ])

let prop_dval_add_commutes =
  QCheck.Test.make ~name:"Dval.add commutes" ~count:200
    QCheck.(pair gen_numeric gen_numeric)
    (fun (a, b) ->
      match (Dval.add a b, Dval.add b a) with
      | Some x, Some y -> Dval.equal x y
      | None, None -> true
      | _ -> false)

let prop_dval_max_assoc =
  QCheck.Test.make ~name:"Dval.maximum order-independent" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 6) gen_numeric)
    (fun xs ->
      match (Dval.maximum xs, Dval.maximum (List.rev xs)) with
      | Some a, Some b -> Dval.equal a b
      | None, None -> true
      | _ -> false)

let prop_dval_compatible_symmetric =
  let nodes = Signal_types.Type_tree.all Signal_types.Standard.data_hierarchy in
  QCheck.Test.make ~name:"Dval.compatible symmetric on types" ~count:200
    QCheck.(pair (oneofl nodes) (oneofl nodes))
    (fun (a, b) ->
      Dval.compatible (Dval.Dtype a) (Dval.Dtype b)
      = Dval.compatible (Dval.Dtype b) (Dval.Dtype a))

let prop_dval_parser_roundtrip_ints =
  QCheck.Test.make ~name:"of_string round-trips ints" ~count:200
    QCheck.(int_range (-100000) 100000)
    (fun i -> Dval.of_string (string_of_int i) = Some (Dval.Int i))

(* Every value, every constructor: the token written into journal,
   snapshot and persist records parses back to the same value, floats
   bit for bit (the infinities and -0 included; %h drops a nan's
   payload, so any nan reads back as nan). *)
let prop_dval_token_roundtrip =
  let open Signal_types in
  let feq x y =
    Int64.bits_of_float x = Int64.bits_of_float y
    || (Float.is_nan x && Float.is_nan y)
  in
  let same a b =
    match (a, b) with
    | Dval.Float x, Dval.Float y -> feq x y
    | Dval.Frange (a1, b1), Dval.Frange (a2, b2) -> feq a1 a2 && feq b1 b2
    | _ -> Dval.equal a b
  in
  let fl = QCheck.Gen.(oneof [ float; oneofl [ nan; infinity; -0.; 1.5 ] ]) in
  let gen =
    QCheck.Gen.(
      oneof
        [
          map (fun i -> Dval.Int i) int;
          map (fun f -> Dval.Float f) fl;
          map (fun b -> Dval.Bool b) bool;
          map (fun s -> Dval.Str s) (string_size (int_range 0 12));
          map (fun s -> Dval.Str (s ^ "..")) (string_size (int_range 0 4));
          map
            (fun (x, y, w, h) ->
              Dval.Rect
                (Geometry.Rect.make (Geometry.Point.make x y) ~width:w
                   ~height:h))
            (quad int int nat nat);
          map (fun n -> Dval.Dtype n)
            (oneofl (Type_tree.all Standard.data_hierarchy));
          map (fun n -> Dval.Etype n)
            (oneofl (Type_tree.all Standard.electrical_hierarchy));
          map (fun (a, b) -> Dval.Irange (a, b)) (pair int int);
          map (fun (a, b) -> Dval.Frange (a, b)) (pair fl fl);
        ])
  in
  QCheck.Test.make ~name:"of_string (to_token v) = Some v" ~count:1000
    (QCheck.make ~print:Dval.to_token gen)
    (fun v ->
      match Dval.of_string (Dval.to_token v) with
      | Some v' -> same v v'
      | None -> false)

let test_dval_parser_cases () =
  let check s expected =
    Alcotest.(check (option string))
      s expected
      (Option.map Dval.to_string (Dval.of_string s))
  in
  check "8" (Some "8");
  check "1.5" (Some "1.5");
  check "true" (Some "true");
  check "rect 0 0 10 20" (Some "[(0, 0) 10x20]");
  check "1..32" (Some "[1..32]");
  check "data:BCDSignal" (Some "data:BCDSignal");
  check "elec:CMOS" (Some "elec:CMOS");
  check "\"hello\"" (Some "\"hello\"");
  check "1.5..2.5" (Some "[1.5..2.5]");
  check "0x1.8p+0..0x1p+1" (Some "[1.5..2]");
  check "\"a..b\"" (Some "\"a..b\"");
  check "data:NoSuchType" None;
  check "rect 0 0 -1 5" None;
  check "garbage!" None

(* ------------------------------------------------------------------ *)
(* Stretching                                                          *)
(* ------------------------------------------------------------------ *)

let gen_rect =
  QCheck.(
    map
      (fun ((x, y), (w, h)) ->
        Geometry.Rect.make (Geometry.Point.make x y) ~width:(w + 1) ~height:(h + 1))
      (pair (pair (int_range (-40) 40) (int_range (-40) 40))
         (pair (int_range 0 40) (int_range 0 40))))

let prop_stretch_corners_to_corners =
  QCheck.Test.make ~name:"stretch maps corners to corners" ~count:200
    QCheck.(pair gen_rect gen_rect)
    (fun (from_, to_) ->
      let open Geometry in
      Point.equal (Stem.Stretch.stretch_point ~from_ ~to_ (Rect.ll from_)) (Rect.ll to_)
      && Point.equal (Stem.Stretch.stretch_point ~from_ ~to_ (Rect.ur from_)) (Rect.ur to_))

let prop_stretch_identity =
  QCheck.Test.make ~name:"stretch onto itself is identity (corner-exact)" ~count:200
    gen_rect
    (fun box ->
      let open Geometry in
      let probe = Rect.center box in
      (* integer scaling by equal extents is exact *)
      Point.equal (Stem.Stretch.stretch_point ~from_:box ~to_:box probe) probe)

let suite =
  let tc = Alcotest.test_case in
  ( "properties",
    [
      QCheck_alcotest.to_alcotest prop_network_always_consistent;
      QCheck_alcotest.to_alcotest prop_compile_matches_propagation;
      QCheck_alcotest.to_alcotest prop_dependency_duality;
      QCheck_alcotest.to_alcotest prop_agenda_priority_fifo;
      QCheck_alcotest.to_alcotest prop_watched_matches_wakeall;
      QCheck_alcotest.to_alcotest prop_rotation_survives_probes;
      QCheck_alcotest.to_alcotest prop_watched_select;
      QCheck_alcotest.to_alcotest prop_dval_add_commutes;
      QCheck_alcotest.to_alcotest prop_dval_max_assoc;
      QCheck_alcotest.to_alcotest prop_dval_compatible_symmetric;
      QCheck_alcotest.to_alcotest prop_dval_parser_roundtrip_ints;
      QCheck_alcotest.to_alcotest prop_dval_token_roundtrip;
      tc "Dval parser cases" `Quick test_dval_parser_cases;
      QCheck_alcotest.to_alcotest prop_stretch_corners_to_corners;
      QCheck_alcotest.to_alcotest prop_stretch_identity;
    ] )
