(* The paper's efficiency claims as exact operation counts.  The thesis
   argues efficiency in inferences, recomputations, checks and erased
   variables, not in seconds: the agenda avoids transient recomputation
   (§4.2.1), hierarchy propagates an internal network once rather than
   once per instance (§5.1), checking is incremental (Ch. 7), dependency
   records make removal local (§4.2.4), and propagation cost follows
   Σ_v |constraints(v)| (§9.2.3).  Each case builds the workload the
   claim is about and asserts the count on both sides of it, so a kernel
   change that moves a count fails here rather than drifting a timing.
   EXPERIMENTS.md names the case that holds each row. *)

open Constraint_kernel

let ivar net name =
  Var.create net ~owner:"w" ~name ~equal:Int.equal ~pp:Fmt.int ()

let sum = function [] -> None | xs -> Some (List.fold_left ( + ) 0 xs)

(* Re-set the network's [source] to a fresh value: one episode. *)
let ticker net source =
  let tick = ref 0 in
  fun () ->
    incr tick;
    ignore (Engine.set net source !tick)

(* Inferences one call of [run] takes. *)
let inferences net run =
  Engine.reset_stats net;
  run ();
  (Engine.stats net).Types.st_inferences

let check_int = Alcotest.(check int)

(* ---------------- E11: cost ∝ Σ_v |constraints(v)| (§9.2.3) -------- *)

(* [n] equalities in a chain; setting the head visits each once. *)
let equality_chain n =
  let net = Engine.create_network ~name:"chain" () in
  let vars = Array.init (n + 1) (fun i -> ivar net (Printf.sprintf "v%d" i)) in
  for i = 0 to n - 1 do
    ignore (Clib.equality net [ vars.(i); vars.(i + 1) ])
  done;
  (net, ticker net vars.(0))

(* One hub shared by [n] binary equalities. *)
let equality_star n =
  let net = Engine.create_network ~name:"star" () in
  let hub = ivar net "hub" in
  for i = 0 to n - 1 do
    ignore (Clib.equality net [ hub; ivar net (Printf.sprintf "s%d" i) ])
  done;
  (net, ticker net hub)

let test_e11_linear () =
  List.iter
    (fun n ->
      let net, run = equality_chain n in
      check_int (Printf.sprintf "chain n=%d" n) n (inferences net run);
      let net, run = equality_star n in
      check_int (Printf.sprintf "star n=%d" n) n (inferences net run))
    [ 10; 100; 1000 ]

(* ---------------- E4: agenda vs eager recomputation (§4.2.1) -------- *)

(* [m] inputs driven from one source through equalities, summed by one
   functional constraint.  Under the agenda the sum runs once per
   episode; the eager variant recomputes after every input change. *)
let fan_in_sum ~eager m =
  let net = Engine.create_network ~name:"fanin" () in
  let src = ivar net "src" in
  let inputs = List.init m (fun i -> ivar net (Printf.sprintf "a%d" i)) in
  let s = ivar net "sum" in
  List.iter (fun a -> ignore (Clib.equality net [ src; a ])) inputs;
  if eager then begin
    (* an immediate (unscheduled) uni-addition *)
    let propagate ctx c changed =
      match changed with
      | Some v when Var.equal v s -> Ok ()
      | _ -> (
        let vals = List.map Var.value inputs in
        if List.exists Option.is_none vals then Ok ()
        else
          match sum (List.map Option.get vals) with
          | None -> Ok ()
          | Some r ->
            Engine.set_by_constraint ctx s r ~source:c
              ~record:Types.All_arguments)
    in
    let satisfied _ =
      let vals = List.map Var.value inputs in
      match (Var.value s, sum (List.filter_map Fun.id vals)) with
      | Some actual, Some expected when List.for_all Option.is_some vals ->
        actual = expected
      | _ -> true
    in
    let c =
      Cstr.make net ~kind:"imm-addition" ~propagate ~satisfied (s :: inputs)
    in
    ignore (Network.add_constraint net c);
    (* eager recomputation revises the sum once per input: lift the
       cyclic-propagation bound so it can run *)
    net.Types.net_max_changes <- m + 2
  end
  else ignore (Clib.functional ~kind:"uni-addition" ~f:sum ~result:s net inputs);
  (net, ticker net src)

let test_e4_agenda () =
  List.iter
    (fun (m, agenda, eager) ->
      let net, run = fan_in_sum ~eager:false m in
      check_int (Printf.sprintf "agenda m=%d" m) agenda (inferences net run);
      let net, run = fan_in_sum ~eager:true m in
      check_int (Printf.sprintf "eager m=%d" m) eager (inferences net run))
    [ (4, 5, 8); (16, 17, 32); (64, 65, 128) ]

(* ---------------- E3: hierarchical vs flat (§5.1, Fig. 5.1) -------- *)

(* [n] instances watched by one predicate each.  [`Hierarchical]: one
   internal chain of length [k] ends in the class variable, and every
   instance hangs off it through an implicit link.  [`Flat]: what a
   non-hierarchical system does, one copy of the chain per instance. *)
let design shape ~k ~n =
  let net = Engine.create_network ~name:"design" () in
  let chain tag =
    let vars =
      Array.init (k + 1) (fun i -> ivar net (Printf.sprintf "c%s_%d" tag i))
    in
    for i = 0 to k - 1 do
      ignore (Clib.equality net [ vars.(i); vars.(i + 1) ])
    done;
    vars
  in
  let instance j (chain : int Types.var array) =
    let inst = ivar net (Printf.sprintf "inst%d" j) in
    (* the class value flows to the instance, offset by j to stand for
       per-instance loading *)
    ignore
      (Clib.one_way net ~kind:"implicit"
         ~f:(fun x -> Some (x + j))
         ~from_:chain.(k) ~to_:inst);
    ignore
      (Clib.predicate net ~kind:"spec"
         ~pred:(function [ Some x ] -> x < max_int | _ -> true)
         [ inst ]);
    chain.(0)
  in
  let heads =
    match shape with
    | `Hierarchical ->
      let shared = chain "" in
      ignore (List.init n (fun j -> instance j shared));
      [ shared.(0) ]
    | `Flat -> List.init n (fun j -> instance j (chain (string_of_int j)))
  in
  let tick = ref 0 in
  let run () =
    incr tick;
    List.iter (fun h -> ignore (Engine.set net h !tick)) heads
  in
  (net, run)

let test_e3_hierarchy () =
  List.iter
    (fun (n, hier, flat) ->
      let net, run = design `Hierarchical ~k:50 ~n in
      check_int (Printf.sprintf "hierarchical n=%d" n) hier (inferences net run);
      let net, run = design `Flat ~k:50 ~n in
      check_int (Printf.sprintf "flat n=%d" n) flat (inferences net run))
    [ (1, 52, 52); (8, 66, 416); (32, 114, 1664) ]

(* ---------------- E12: lazy vs eager properties (Ch. 6) ------------ *)

(* [m] edits to a source invalidate a derived property through an
   update constraint, then the property is read; the eager discipline
   also reads it after every edit.  Returns the recomputations. *)
let property_recomputations ~eager m =
  let env = Stem.Env.create () in
  let net = Stem.Env.cnet env in
  let src = Dclib.variable net ~owner:"w" ~name:"src" () in
  let recomputes = ref 0 in
  let p =
    Stem.Property.make env ~owner:"w" ~name:"derived"
      ~recalc:(fun () ->
        incr recomputes;
        match Var.value src with
        | Some (Dval.Int x) -> Some (Dval.Int (x * 2))
        | _ -> None)
      ()
  in
  ignore (Clib.update net ~sources:[ src ] ~targets:[ Stem.Property.var p ]);
  for i = 1 to m do
    ignore (Engine.set net src (Dval.Int i));
    if eager then ignore (Stem.Property.read env p)
  done;
  ignore (Stem.Property.read env p);
  !recomputes

let test_e12_lazy () =
  List.iter
    (fun m ->
      check_int (Printf.sprintf "lazy m=%d" m) 1
        (property_recomputations ~eager:false m);
      check_int (Printf.sprintf "eager m=%d" m) m
        (property_recomputations ~eager:true m))
    [ 1; 10; 100 ]

(* ---------------- E13: incremental vs batch checking (Ch. 7) ------- *)

(* [cells] independent variables, each under one spec constraint. *)
let spec_population cells =
  let env = Stem.Env.create () in
  let net = Stem.Env.cnet env in
  let vars =
    Array.init cells (fun i ->
        let v = Dclib.variable net ~owner:"w" ~name:(Printf.sprintf "d%d" i) () in
        ignore
          (Dclib.less_equal_const net v (Dval.Float 1e9)
             ~label:(Printf.sprintf "spec%d" i));
        v)
  in
  let edit e =
    ignore (Engine.set net vars.(e mod cells) (Dval.Float (float_of_int e)))
  in
  (env, edit)

let test_e13_incremental () =
  List.iter
    (fun m ->
      (* incrementally each edit checks only its own constraint *)
      let env, edit = spec_population 100 in
      let net = Stem.Env.cnet env in
      Engine.reset_stats net;
      for e = 1 to m do
        edit e
      done;
      check_int (Printf.sprintf "incremental m=%d" m) m
        (Engine.stats net).Types.st_checks;
      (* the traditional flow: no background checking, a full sweep
         after every edit *)
      let env, edit = spec_population 100 in
      let net = Stem.Env.cnet env in
      Engine.disable net;
      let examined = ref 0 in
      for e = 1 to m do
        edit e;
        let n, _ = Checking.Check.batch_check env in
        examined := !examined + n
      done;
      Engine.enable net;
      check_int (Printf.sprintf "batch m=%d" m) (100 * m) !examined)
    [ 1; 10; 100 ]

(* ---------------- E14: directed erasure on removal (§4.2.4) -------- *)

let test_e14_erasure () =
  (* a 200-equality chain from a user-set head, plus 500 user-set
     bystanders that no constraint reaches *)
  let n = 200 and bystanders = 500 in
  let net = Engine.create_network ~name:"erase" () in
  let vars = Array.init (n + 1) (fun i -> ivar net (Printf.sprintf "v%d" i)) in
  let head, _ = Clib.equality net [ vars.(0); vars.(1) ] in
  for i = 1 to n - 1 do
    ignore (Clib.equality net [ vars.(i); vars.(i + 1) ])
  done;
  for i = 0 to bystanders - 1 do
    ignore (Engine.set net (ivar net (Printf.sprintf "b%d" i)) i)
  done;
  ignore (Engine.set net vars.(0) 42);
  let unset () =
    List.length (List.filter (fun v -> Var.value v = None) net.Types.net_vars)
  in
  check_int "dependents of the head constraint" n
    (List.length (Dependency.dependents_of_constraint head));
  (* without dependency records, removal can only reset everything *)
  check_int "a full reset touches every variable" 701
    (List.length net.Types.net_vars);
  check_int "nothing unset before removal" 0 (unset ());
  Network.remove_constraint net head;
  check_int "removal erases exactly the dependents" n (unset ())

(* ---------------- E21: wakeup discipline (DESIGN.md §14) ----------- *)

(* [k] wide sums share two hot inputs plus [n] cold inputs each that
   never get a value, so no sum can ever fire.  Eagerly every hot
   assignment wakes all [k] sums; two-watch parks each sum's watches on
   cold inputs and the hot path delivers no wakeups at all. *)
let wakeup_fanout ~two_watch ~k ~n =
  let net = Engine.create_network ~name:"wakeup-fanout" () in
  let hot1 = ivar net "hot1" and hot2 = ivar net "hot2" in
  for j = 0 to k - 1 do
    let colds = List.init n (fun i -> ivar net (Printf.sprintf "cold%d_%d" j i)) in
    let r = ivar net (Printf.sprintf "sum%d" j) in
    ignore
      (Clib.functional ~two_watch ~kind:"wide-sum" ~f:sum ~result:r net
         (hot1 :: hot2 :: colds))
  done;
  let tick = ref 0 in
  let run () =
    incr tick;
    ignore (Engine.set net hot1 !tick);
    ignore (Engine.set net hot2 (- !tick))
  in
  (net, run)

(* A fully driven [bits]-wide ripple adder (bit sum and carry per
   stage), re-toggling the low input bit each episode: the dense case,
   where two-watch grounds out to watching everything. *)
let wakeup_ripple ~two_watch ~bits =
  let net = Engine.create_network ~name:"wakeup-ripple" () in
  let mk fmt = Array.init bits (fun i -> ivar net (Printf.sprintf fmt i)) in
  let a = mk "a%d" and b = mk "b%d" and s = mk "s%d" in
  let c = Array.init (bits + 1) (fun i -> ivar net (Printf.sprintf "c%d" i)) in
  let bit_sum = function [ x; y; z ] -> Some ((x + y + z) land 1) | _ -> None in
  let carry = function
    | [ x; y; z ] -> Some (if x + y + z >= 2 then 1 else 0)
    | _ -> None
  in
  for i = 0 to bits - 1 do
    let args = [ a.(i); b.(i); c.(i) ] in
    ignore
      (Clib.functional ~two_watch ~kind:"bit-sum" ~f:bit_sum ~result:s.(i) net
         args);
    ignore
      (Clib.functional ~two_watch ~kind:"bit-carry" ~f:carry
         ~result:c.(i + 1) net args)
  done;
  (* a = 0101…, b = 0011…, cin = 0 *)
  Array.iteri (fun i v -> ignore (Engine.set net v (i land 1))) a;
  Array.iteri (fun i v -> ignore (Engine.set net v ((i lsr 1) land 1))) b;
  ignore (Engine.set net c.(0) 0);
  let tick = ref 0 in
  let run () =
    incr tick;
    ignore (Engine.set net a.(0) (!tick land 1))
  in
  (net, run)

(* Run 100 episodes; (wakeups, suppressed, every variable's final
   value by path). *)
let drive (net, run) =
  Engine.reset_stats net;
  for _ = 1 to 100 do
    run ()
  done;
  let s = Engine.stats net in
  ( s.Types.st_wakeups,
    s.Types.st_suppressed,
    List.rev_map (fun v -> (Var.path v, Var.value v)) net.Types.net_vars )

let check_state what eager two_watch =
  Alcotest.(check (list (pair string (option int))))
    (what ^ ": identical final states") eager two_watch

let test_e21_wakeups () =
  let ew, es, estate = drive (wakeup_fanout ~two_watch:false ~k:64 ~n:32) in
  let ww, ws, wstate = drive (wakeup_fanout ~two_watch:true ~k:64 ~n:32) in
  check_int "fanout eager wakeups" 12800 ew;
  check_int "fanout eager suppressed" 0 es;
  check_int "fanout two-watch wakeups" 0 ww;
  check_int "fanout two-watch suppressed" 12800 ws;
  check_state "fanout" estate wstate;
  let ew, es, estate = drive (wakeup_ripple ~two_watch:false ~bits:16) in
  let ww, ws, wstate = drive (wakeup_ripple ~two_watch:true ~bits:16) in
  check_int "ripple eager wakeups" 200 ew;
  check_int "ripple two-watch wakeups" 200 ww;
  check_int "ripple eager suppressed" 0 es;
  check_int "ripple two-watch suppressed" 0 ws;
  check_state "ripple" estate wstate

let suite =
  let tc = Alcotest.test_case in
  ( "paper",
    [
      tc "E11 chain and star take n inferences" `Quick test_e11_linear;
      tc "E4 agenda m+1 vs eager 2m" `Quick test_e4_agenda;
      tc "E3 hierarchical k+2n vs flat n(k+2)" `Quick test_e3_hierarchy;
      tc "E12 lazy 1 vs eager m recomputations" `Quick test_e12_lazy;
      tc "E13 incremental m vs batch 100m" `Quick test_e13_incremental;
      tc "E14 directed erasure vs full reset" `Quick test_e14_erasure;
      tc "E21 two-watch wakeups, same state" `Quick test_e21_wakeups;
    ] )
