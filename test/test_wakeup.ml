(* Unit tests for the PR-7 wakeup discipline: watch-list construction
   and editor rewiring, two-watch rotation and its episode-scoped undo,
   the deprecated [Cstr.make] optional shim, the stratified agenda's
   stats, and the wakeup/suppression counters. *)

open Constraint_kernel

let ivar net name =
  Var.create net ~owner:"w" ~name ~equal:Int.equal ~pp:Fmt.int ()

let check_ok what = function
  | Ok () -> ()
  | Error viol -> Alcotest.failf "%s: %a" what Types.pp_violation viol

let sum = function [] -> None | xs -> Some (List.fold_left ( + ) 0 xs)

let mem_cstr c cs = List.exists (Cstr.equal c) cs

let mem_var v vs = List.exists (Var.equal v) vs

(* --- watch-list construction ------------------------------------- *)

let test_watchers_on_attach () =
  let net = Engine.create_network ~name:"w" () in
  let a = ivar net "a" and b = ivar net "b" and r = ivar net "r" in
  let c, res = Clib.functional ~kind:"sum" ~f:sum ~result:r net [ a; b ] in
  check_ok "attach" res;
  Alcotest.(check bool) "a watches" true (mem_cstr c (Var.watchers a));
  Alcotest.(check bool) "b watches" true (mem_cstr c (Var.watchers b));
  Alcotest.(check bool)
    "result does not watch its own constraint" false
    (mem_cstr c (Var.watchers r));
  (* wake-all constraints watch every argument *)
  let e, res = Clib.equality net [ a; b ] in
  check_ok "equality attach" res;
  Alcotest.(check bool) "eq watches a" true (mem_cstr e (Var.watchers a));
  Alcotest.(check bool) "eq watches b" true (mem_cstr e (Var.watchers b))

let test_two_watch_picks_two () =
  let net = Engine.create_network ~name:"w" () in
  let inputs = List.init 5 (fun i -> ivar net (Printf.sprintf "i%d" i)) in
  let r = ivar net "r" in
  let c, res =
    Clib.functional ~two_watch:true ~kind:"sum" ~f:sum ~result:r net inputs
  in
  check_ok "attach" res;
  Alcotest.(check int) "watches exactly two" 2 (List.length (Cstr.watching c));
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "watched var %s has watcher" (Var.path v))
        true
        (mem_cstr c (Var.watchers v)))
    (Cstr.watching c)

(* --- editor rewiring ---------------------------------------------- *)

let test_editor_rewires_watches () =
  let net = Engine.create_network ~name:"w" () in
  let a = ivar net "a" and b = ivar net "b" and d = ivar net "d" in
  let c, res = Clib.equality net [ a; b ] in
  check_ok "attach" res;
  check_ok "add_argument" (Network.add_argument net c d);
  Alcotest.(check bool) "new arg watches" true (mem_cstr c (Var.watchers d));
  check_ok "remove_argument" (Network.remove_argument net c b);
  Alcotest.(check bool)
    "removed arg no longer watches" false
    (mem_cstr c (Var.watchers b));
  Network.remove_constraint net c;
  Alcotest.(check bool) "gone from a" false (mem_cstr c (Var.watchers a));
  Alcotest.(check bool) "gone from d" false (mem_cstr c (Var.watchers d))

(* --- rotation + episode-scoped undo ------------------------------- *)

let test_rotation_moves_watch () =
  let net = Engine.create_network ~name:"w" () in
  let inputs = Array.init 4 (fun i -> ivar net (Printf.sprintf "i%d" i)) in
  let r = ivar net "r" in
  let c, res =
    Clib.functional ~two_watch:true ~kind:"sum" ~f:sum ~result:r net
      (Array.to_list inputs)
  in
  check_ok "attach" res;
  (* Setting a watched input rotates the watch onto an unset one; the
     set one is released.  (The initial pick may include the unset
     result var — steer clear of it, we want an input.) *)
  let v =
    match List.find_opt (fun w -> not (Var.equal w r)) (Cstr.watching c) with
    | Some v -> v
    | None -> Alcotest.fail "no input watched"
  in
  check_ok "set watched" (Engine.set net v 1);
  Alcotest.(check bool)
    "watch rotated off the set var" false
    (mem_var v (Cstr.watching c));
  Alcotest.(check int) "still two watches" 2 (List.length (Cstr.watching c));
  (* Fill everything: with <2 unset args left the constraint falls back
     to ground (watch everything) and computes. *)
  Array.iter (fun w -> if Var.value w = None then check_ok "fill" (Engine.set net w 2)) inputs;
  Alcotest.(check (option int)) "sum computed" (Some 7) (Var.value r)

let test_probe_restores_watches () =
  let net = Engine.create_network ~name:"w" () in
  let inputs = Array.init 5 (fun i -> ivar net (Printf.sprintf "i%d" i)) in
  let r = ivar net "r" in
  let c, res =
    Clib.functional ~two_watch:true ~kind:"sum" ~f:sum ~result:r net
      (Array.to_list inputs)
  in
  check_ok "attach" res;
  let before = List.map Var.path (Cstr.watching c) in
  let v = List.hd (Cstr.watching c) in
  Alcotest.(check bool) "probe ok" true (Engine.can_be_set_to net v 9);
  let after = List.map Var.path (Cstr.watching c) in
  Alcotest.(check (list string)) "watch set restored after probe" before after;
  (* a failing set must also unwind the rotation *)
  let _p, res =
    Clib.predicate ~kind:"never-42"
      ~pred:(fun vals -> not (List.mem (Some 42) vals))
      net [ List.hd (Array.to_list inputs) ]
  in
  check_ok "predicate attach" res;
  let before = List.map Var.path (Cstr.watching c) in
  (match Engine.set net inputs.(0) 42 with
  | Ok () -> Alcotest.fail "set 42 should violate"
  | Error _ -> ());
  let after = List.map Var.path (Cstr.watching c) in
  Alcotest.(check (list string)) "watch set restored after rollback" before after

(* --- a custom wake predicate ------------------------------------- *)

let test_custom_wake () =
  let net = Engine.create_network ~name:"w" () in
  let a = ivar net "a" and r = ivar net "r" in
  let c =
    Cstr.make net ~kind:"custom"
      ~activation:
        (Cstr.activation
           ~wake:
             (Custom
                (fun _c changed ->
                  match changed with
                  | Some v -> not (Var.equal v r)
                  | None -> true))
           ~schedule:(On_agenda Types.functional_priority) ())
      ~propagate:(fun ctx c _ ->
        match Var.value a with
        | None -> Ok ()
        | Some x ->
          Engine.set_by_constraint ctx r (x * 2) ~source:c
            ~record:(Types.Single_var a))
      ~satisfied:(fun _ ->
        match (Var.value a, Var.value r) with
        | Some x, Some y -> y = 2 * x
        | _ -> true)
      [ a; r ]
  in
  check_ok "attach" (Network.add_constraint net c);
  check_ok "set" (Engine.set net a 21);
  Alcotest.(check (option int)) "custom wake propagates" (Some 42)
    (Var.value r);
  (* a Custom wake is consulted on every touch: both args watched *)
  Alcotest.(check bool) "a watched" true (mem_cstr c (Var.watchers a));
  Alcotest.(check bool) "r watched" true (mem_cstr c (Var.watchers r))

(* --- agenda stats and network totals ------------------------------ *)

let test_agenda_stats () =
  let agenda = Agenda.create () in
  let net = Engine.create_network ~name:"w" () in
  let v = ivar net "v" in
  let mk kind =
    Cstr.make net ~kind
      ~propagate:(fun _ _ _ -> Ok ())
      ~satisfied:(fun _ -> true)
      [ v ]
  in
  let c1 = mk "c1" and c2 = mk "c2" and c3 = mk "c3" in
  ignore (Agenda.schedule agenda ~priority:Types.functional_priority c1 ~var:None);
  ignore (Agenda.schedule agenda ~priority:Types.functional_priority c2 ~var:None);
  ignore (Agenda.schedule agenda ~priority:Types.checking_priority c3 ~var:None);
  (* duplicates — same (cstr, var) key — never enqueue twice, even at a
     different priority *)
  ignore (Agenda.schedule agenda ~priority:Types.functional_priority c1 ~var:None);
  ignore (Agenda.schedule agenda ~priority:Types.checking_priority c2 ~var:None);
  Alcotest.(check int) "depth counts entries" 3 (Agenda.length agenda);
  let stats = Agenda.stats agenda in
  Alcotest.(check int) "two strata" 2 (List.length stats);
  let fnl =
    List.find
      (fun s -> s.Agenda.sa_priority = Types.functional_priority)
      stats
  in
  Alcotest.(check string) "label" "functional" fnl.Agenda.sa_label;
  Alcotest.(check int) "pushed" 2 fnl.Agenda.sa_pushed;
  Alcotest.(check int) "hwm" 2 fnl.Agenda.sa_hwm;
  (* checking stratum pops first *)
  (match Agenda.pop agenda with
  | Some e -> Alcotest.(check bool) "checking first" true (Cstr.equal e.Types.e_cstr c3)
  | None -> Alcotest.fail "pop");
  let rec drain () = match Agenda.pop agenda with Some _ -> drain () | None -> () in
  drain ();
  let fnl = List.find (fun s -> s.Agenda.sa_priority = Types.functional_priority) (Agenda.stats agenda) in
  Alcotest.(check int) "popped = pushed after drain" fnl.Agenda.sa_pushed fnl.Agenda.sa_popped;
  Alcotest.(check int) "empty" 0 (Agenda.length agenda)

let test_network_agenda_totals () =
  let net = Engine.create_network ~name:"w" () in
  let a = ivar net "a" and b = ivar net "b" and r = ivar net "r" in
  let _c, res = Clib.functional ~kind:"sum" ~f:sum ~result:r net [ a; b ] in
  check_ok "attach" res;
  check_ok "set a" (Engine.set net a 1);
  check_ok "set b" (Engine.set net b 2);
  Alcotest.(check (option int)) "sum" (Some 3) (Var.value r);
  let totals = Engine.agenda_totals net in
  match List.assoc_opt Types.functional_priority totals with
  | None -> Alcotest.fail "no functional stratum in totals"
  | Some t ->
    Alcotest.(check bool) "pushed > 0" true (t.Types.at_pushed > 0);
    Alcotest.(check int) "popped = pushed" t.Types.at_pushed t.Types.at_popped;
    Alcotest.(check bool) "hwm >= 1" true (t.Types.at_hwm >= 1)

(* --- wakeup / suppression counters -------------------------------- *)

let test_suppression_counters () =
  let wide two_watch =
    let net = Engine.create_network ~name:"w" () in
    let inputs = List.init 16 (fun i -> ivar net (Printf.sprintf "i%d" i)) in
    let r = ivar net "r" in
    let _c, res = Clib.functional ~two_watch ~kind:"sum" ~f:sum ~result:r net inputs in
    check_ok "attach" res;
    (* poke the same two inputs repeatedly: under two-watch the watch
       rotates off them and the constraint sleeps *)
    for round = 1 to 5 do
      check_ok "set" (Engine.set net (List.nth inputs 0) round);
      check_ok "set" (Engine.set net (List.nth inputs 1) round)
    done;
    Engine.stats net
  in
  let base = wide false and watched = wide true in
  Alcotest.(check int) "wake-all suppresses nothing" 0 base.Types.st_suppressed;
  Alcotest.(check bool)
    "two-watch suppresses wakeups" true
    (watched.Types.st_suppressed > 0);
  Alcotest.(check bool)
    "two-watch wakes less" true
    (watched.Types.st_wakeups < base.Types.st_wakeups)

let test_two_watch_functional_end_to_end () =
  let net = Engine.create_network ~name:"w" () in
  let inputs = Array.init 6 (fun i -> ivar net (Printf.sprintf "i%d" i)) in
  let r = ivar net "r" in
  let _c, res =
    Clib.functional ~two_watch:true ~kind:"sum" ~f:sum ~result:r net
      (Array.to_list inputs)
  in
  check_ok "attach" res;
  Array.iteri (fun i v -> check_ok "set" (Engine.set net v (i + 1))) inputs;
  Alcotest.(check (option int)) "sum of 1..6" (Some 21) (Var.value r);
  (* resetting an input leaves the stale sum in place (only
     update-constraints cascade erasure) but the constraint stays
     satisfied — computed() is None — and the next input change
     recomputes over the stale propagated value *)
  check_ok "reset" (Engine.reset net inputs.(2));
  Alcotest.(check (option int)) "stale but satisfied" (Some 21) (Var.value r);
  check_ok "re-set" (Engine.set net inputs.(2) 10);
  Alcotest.(check (option int)) "recomputed" (Some 28) (Var.value r)

let suite =
  let tc = Alcotest.test_case in
  ( "wakeup",
    [
      tc "watchers built on attach" `Quick test_watchers_on_attach;
      tc "two-watch picks two unset args" `Quick test_two_watch_picks_two;
      tc "editor rewires watch lists" `Quick test_editor_rewires_watches;
      tc "rotation moves the watch" `Quick test_rotation_moves_watch;
      tc "probe/rollback restores watches" `Quick test_probe_restores_watches;
      tc "custom wake predicate" `Quick test_custom_wake;
      tc "agenda stats per stratum" `Quick test_agenda_stats;
      tc "network agenda totals" `Quick test_network_agenda_totals;
      tc "suppression counters" `Quick test_suppression_counters;
      tc "two-watch functional end to end" `Quick test_two_watch_functional_end_to_end;
    ] )
