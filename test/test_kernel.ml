(* Tests for the constraint-propagation kernel (Ch. 4), instantiated at
   integer values.  The scenarios follow the thesis figures: Fig. 4.5
   (simple propagation), Fig. 4.9 (cyclic violation), §4.2.1 (agenda
   scheduling), §4.2.4 (dependency analysis), §4.2.5 (network editing). *)

open Constraint_kernel

(* ------------------------------------------------------------------ *)
(* Int-valued helpers                                                  *)
(* ------------------------------------------------------------------ *)

let mknet () = Engine.create_network ~name:"test" ()

let mkvar ?owner:(o = "t") ?overwrite net name =
  Var.create net ~owner:o ~name ~equal:Int.equal ~pp:Fmt.int ?overwrite ()

let sum = function [] -> None | xs -> Some (List.fold_left ( + ) 0 xs)

let maxi = function [] -> None | x :: xs -> Some (List.fold_left max x xs)

let uni_sum net result inputs =
  Clib.functional ~kind:"uni-addition" ~f:sum ~result net inputs

let uni_max net result inputs =
  Clib.functional ~kind:"uni-maximum" ~f:maxi ~result net inputs

let ok = function Ok () -> true | Error _ -> false

let value v = Var.value v

let check_val msg expected v =
  Alcotest.(check (option int)) msg expected (value v)

let check_ok msg r = Alcotest.(check bool) msg true (ok r)

let check_violation msg r = Alcotest.(check bool) msg false (ok r)

(* ------------------------------------------------------------------ *)
(* Basic propagation                                                   *)
(* ------------------------------------------------------------------ *)

let test_equality_propagation () =
  let net = mknet () in
  let a = mkvar net "a" and b = mkvar net "b" and c = mkvar net "c" in
  let _ = Clib.equality net [ a; b; c ] in
  check_ok "set a" (Engine.set net a 5);
  check_val "b follows" (Some 5) b;
  check_val "c follows" (Some 5) c;
  Alcotest.(check bool) "b is dependent" true (Var.is_dependent b);
  Alcotest.(check bool) "a is user" true (Var.is_user_set a)

let test_fig_4_5 () =
  (* V1 = V2 (equality); V4 = max(V2, V3).  Set V3=5, V1=7, then V1=9. *)
  let net = mknet () in
  let v1 = mkvar net "v1" and v2 = mkvar net "v2" in
  let v3 = mkvar net "v3" and v4 = mkvar net "v4" in
  let _ = Clib.equality net [ v1; v2 ] in
  let _ = uni_max net v4 [ v2; v3 ] in
  check_ok "set v3" (Engine.set net v3 5);
  check_ok "set v1" (Engine.set net v1 7);
  check_val "v2 = 7" (Some 7) v2;
  check_val "v4 = max(7,5) = 7" (Some 7) v4;
  let events = ref [] in
  Engine.add_sink net
    (Types.sink ~name:"transcript" (fun te ->
         match te.Types.te_event with
         | (Types.T_assign _ | Types.T_activate _ | Types.T_schedule _) as ev ->
           events := Fmt.str "%a" Editor.pp_trace_event ev :: !events
         | _ -> ()));
  check_ok "set v1 = 9" (Engine.set net v1 9);
  check_val "v2 = 9" (Some 9) v2;
  check_val "v4 = 9" (Some 9) v4;
  (* the equality fires at once; the maximum waits on the agenda *)
  Alcotest.(check (list string))
    "propagation transcript"
    [
      "t.v1 <- 9 (external)";
      "activate equality#0 by t.v1";
      "t.v2 <- 9 (equality#0)";
      "schedule uni-maximum#1 on agenda 10";
      "activate uni-maximum#1";
      "t.v4 <- 9 (uni-maximum#1)";
    ]
    (List.rev !events)

let test_chain_propagation () =
  let net = mknet () in
  let n = 50 in
  let vars = List.init n (fun i -> mkvar net (Printf.sprintf "x%d" i)) in
  let rec link = function
    | a :: (b :: _ as rest) ->
      ignore (Clib.equality net [ a; b ]);
      link rest
    | [ _ ] | [] -> ()
  in
  link vars;
  (match vars with
  | first :: _ -> check_ok "set head" (Engine.set net first 42)
  | [] -> ());
  List.iter (fun v -> check_val "chain value" (Some 42) v) vars

let test_termination_on_agreement () =
  (* re-assigning the same value must not re-propagate *)
  let net = mknet () in
  let a = mkvar net "a" and b = mkvar net "b" in
  let _ = Clib.equality net [ a; b ] in
  check_ok "first" (Engine.set net a 1);
  let before = (Engine.stats net).st_inferences in
  check_ok "same again" (Engine.set net a 1);
  Alcotest.(check int) "no new inference" before (Engine.stats net).st_inferences

(* ------------------------------------------------------------------ *)
(* Violations and restore                                              *)
(* ------------------------------------------------------------------ *)

let test_fig_4_9_cyclic_violation () =
  (* v2 = v1 + 1; v3 = v2 + 3; v1 = v3 + 2 — unsatisfiable cycle. *)
  let net = mknet () in
  let v1 = mkvar net "v1" and v2 = mkvar net "v2" and v3 = mkvar net "v3" in
  let k1 = mkvar net "k1" and k3 = mkvar net "k3" and k2 = mkvar net "k2" in
  check_ok "k1" (Engine.set net k1 1);
  check_ok "k3" (Engine.set net k3 3);
  check_ok "k2" (Engine.set net k2 2);
  let mk_add result inputs = Clib.equality net [] |> ignore; ignore (result, inputs) in
  ignore mk_add;
  (* additions propagate immediately so the cycle actually spins *)
  let imm_add label result a b =
    let propagate ctx c changed =
      match changed with
      | Some v when Var.equal v result -> Ok ()
      | _ -> (
        match (Var.value a, Var.value b) with
        | Some x, Some y ->
          Engine.set_by_constraint ctx result (x + y) ~source:c
            ~record:Types.All_arguments
        | _ -> Ok ())
    in
    let satisfied _ =
      match (Var.value a, Var.value b, Var.value result) with
      | Some x, Some y, Some r -> r = x + y
      | _ -> true
    in
    let c =
      Cstr.make net ~kind:"imm-addition" ~label ~propagate ~satisfied [ result; a; b ]
    in
    ignore (Network.add_constraint net c)
  in
  imm_add "v2=v1+k1" v2 v1 k1;
  imm_add "v3=v2+k3" v3 v2 k3;
  imm_add "v1=v3+k2" v1 v3 k2;
  let r = Engine.set net v1 10 in
  check_violation "cycle detected" r;
  (* the wavefront reaches the user-pinned head first, so the overwrite
     rule, not the change-count bound, reports the cycle *)
  (match r with
  | Error v ->
    Alcotest.(check bool) "overwrite rule cited" true
      (Astring_contains.contains
         (Fmt.str "%a" Types.pp_violation v)
         "user-specified value cannot be overwritten")
  | Ok () -> ());
  (* one-value-change rule: everything restored *)
  check_val "v1 restored" None v1;
  check_val "v2 restored" None v2;
  check_val "v3 restored" None v3

let test_user_value_blocks_propagation () =
  let net = mknet () in
  let a = mkvar net "a" and b = mkvar net "b" in
  check_ok "pin b" (Engine.set net b 3);
  let _c, r = Clib.equality net [ a; b ] in
  check_ok "adding over one pinned value ok" r;
  check_val "a got b's value" (Some 3) a;
  let r = Engine.set net a 7 in
  check_violation "conflicting user set rejected" r;
  check_val "a restored" (Some 3) a;
  check_val "b untouched" (Some 3) b

let test_restore_is_exact () =
  let net = mknet () in
  let a = mkvar net "a" and b = mkvar net "b" and c = mkvar net "c" in
  let _ = Clib.equality net [ a; b ] in
  let _ = Clib.equality net [ b; c ] in
  check_ok "pin c as user" (Engine.set net c 9);
  (* propagation from a will reach c and conflict; a and b must roll back *)
  let r = Engine.set net a 1 in
  check_violation "conflict" r;
  check_val "a rolled back" (Some 9) a;
  (* a had been set to 9 by the earlier propagation from c *)
  check_val "b rolled back" (Some 9) b;
  check_val "c intact" (Some 9) c;
  Alcotest.(check bool) "b justification restored" true (Var.is_dependent b)

let test_violation_handler_called () =
  let net = mknet () in
  let a = mkvar net "a" and b = mkvar net "b" in
  let fired = ref 0 in
  Engine.set_violation_handler net (fun _ -> incr fired);
  check_ok "pin" (Engine.set net b 1);
  let _ = Clib.equality net [ a; b ] in
  ignore (Engine.set net a 2);
  Alcotest.(check int) "handler fired once" 1 !fired

let test_predicate_violation () =
  let net = mknet () in
  let a = mkvar net "a" in
  let pred = function [ Some x ] -> x <= 120 | _ -> true in
  let _ = Clib.predicate ~kind:"less-than" ~pred net [ a ] in
  check_ok "within bound" (Engine.set net a 100);
  check_violation "beyond bound" (Engine.set net a 121);
  check_val "restored to previous" (Some 100) a

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

let test_functional_agenda_dedup () =
  (* x feeds a and b via equalities; s = a + b.  One episode must run the
     sum inference once, not twice. *)
  let net = mknet () in
  let x = mkvar net "x" and a = mkvar net "a" and b = mkvar net "b" in
  let s = mkvar net "s" in
  let _ = Clib.equality net [ x; a ] in
  let _ = Clib.equality net [ x; b ] in
  let _ = uni_sum net s [ a; b ] in
  Engine.reset_stats net;
  check_ok "set x" (Engine.set net x 3);
  check_val "s = 6" (Some 6) s;
  Alcotest.(check int) "sum scheduled once" 1 (Engine.stats net).st_scheduled

let test_functional_not_rescheduled_by_result () =
  let net = mknet () in
  let a = mkvar net "a" and s = mkvar net "s" in
  let _ = uni_sum net s [ a ] in
  check_ok "set a" (Engine.set net a 4);
  check_val "s = 4" (Some 4) s;
  (* setting the result variable directly only checks, never recomputes
     backwards; a consistent value is accepted *)
  check_ok "consistent result accepted" (Engine.set net s 4);
  (* an inconsistent user value on the result is a violation *)
  check_violation "inconsistent result rejected" (Engine.set net s 5)

let test_agenda_priorities () =
  let a = Agenda.create () in
  let net = mknet () in
  let v = mkvar net "v" in
  let mk kind =
    Cstr.make net ~kind ~propagate:(fun _ _ _ -> Ok ()) ~satisfied:(fun _ -> true) [ v ]
  in
  let c1 = mk "low" and c2 = mk "high" and c3 = mk "low2" in
  ignore (Agenda.schedule a ~priority:100 c1 ~var:None);
  ignore (Agenda.schedule a ~priority:10 c2 ~var:None);
  ignore (Agenda.schedule a ~priority:100 c3 ~var:None);
  Alcotest.(check bool) "dedup" false (Agenda.schedule a ~priority:10 c2 ~var:None);
  Alcotest.(check int) "length" 3 (Agenda.length a);
  let pop_kind () =
    match Agenda.pop a with Some e -> Cstr.kind e.Types.e_cstr | None -> "-"
  in
  Alcotest.(check string) "highest first" "high" (pop_kind ());
  Alcotest.(check string) "then fifo" "low" (pop_kind ());
  Alcotest.(check string) "then fifo 2" "low2" (pop_kind ());
  Alcotest.(check bool) "empty" true (Agenda.is_empty a)

let test_disable_switch () =
  let net = mknet () in
  let a = mkvar net "a" and b = mkvar net "b" in
  let _ = Clib.equality net [ a; b ] in
  Engine.disable net;
  check_ok "plain store" (Engine.set net a 5);
  check_val "no propagation while off" None b;
  Engine.enable net;
  check_ok "set again" (Engine.set net a 6);
  check_val "propagates when on" (Some 6) b

let test_disable_kind_and_constraint () =
  let net = mknet () in
  let a = mkvar net "a" and b = mkvar net "b" and c = mkvar net "c" in
  let eq_ab, _ = Clib.equality net [ a; b ] in
  let _ = Clib.equality net [ b; c ] in
  Cstr.set_enabled eq_ab false;
  check_ok "set b" (Engine.set net b 2);
  check_val "a skipped (constraint disabled)" None a;
  check_val "c propagated" (Some 2) c;
  Cstr.set_enabled eq_ab true;
  Engine.disable_kind net "equality";
  check_ok "set b again" (Engine.set net b 5);
  check_val "kind disabled: c unchanged" (Some 2) c;
  Engine.enable_kind net "equality"

(* ------------------------------------------------------------------ *)
(* Dependency analysis                                                 *)
(* ------------------------------------------------------------------ *)

let test_antecedents_and_consequences () =
  let net = mknet () in
  let a = mkvar net "a" and b = mkvar net "b" in
  let s = mkvar net "s" and t = mkvar net "t" in
  let _ = uni_sum net s [ a; b ] in
  let _ = Clib.equality net [ s; t ] in
  check_ok "a" (Engine.set net a 1);
  check_ok "b" (Engine.set net b 2);
  check_val "s" (Some 3) s;
  check_val "t" (Some 3) t;
  let ants, _ = Dependency.antecedents t in
  let names = List.map Var.name ants in
  Alcotest.(check (list string)) "antecedents of t" [ "t"; "s"; "a"; "b" ] names;
  let cons = Dependency.variable_consequences a in
  Alcotest.(check (list string)) "consequences of a" [ "s"; "t" ]
    (List.map Var.name cons)

let test_can_be_set_to () =
  let net = mknet () in
  let a = mkvar net "a" and b = mkvar net "b" in
  let _ = Clib.equality net [ a; b ] in
  check_ok "pin b" (Engine.set net b 5);
  Alcotest.(check bool) "compatible tentative" true (Engine.can_be_set_to net a 5);
  Alcotest.(check bool) "conflicting tentative" false (Engine.can_be_set_to net a 6);
  check_val "a untouched by test" (Some 5) a;
  check_val "b untouched by test" (Some 5) b

(* ------------------------------------------------------------------ *)
(* Update constraints and resets                                       *)
(* ------------------------------------------------------------------ *)

let test_update_constraint_erases () =
  let net = mknet () in
  let src = mkvar net "src" and derived = mkvar net "derived" in
  let _ = Clib.update ~sources:[ src ] ~targets:[ derived ] net in
  Var.poke derived 99 ~just:Types.Application;
  check_ok "touch src" (Engine.set net src 1);
  check_val "derived erased" None derived

let test_update_cascade_on_reset () =
  let net = mknet () in
  let a = mkvar net "a" and b = mkvar net "b" and c = mkvar net "c" in
  let _ = Clib.update ~sources:[ a ] ~targets:[ b ] net in
  let _ = Clib.update ~sources:[ b ] ~targets:[ c ] net in
  Var.poke a 1 ~just:Types.Application;
  Var.poke b 2 ~just:Types.Application;
  Var.poke c 3 ~just:Types.Application;
  check_ok "reset a" (Engine.reset net a);
  check_val "a erased" None a;
  check_val "b erased via update" None b;
  check_val "c erased transitively" None c

(* ------------------------------------------------------------------ *)
(* Network editing                                                     *)
(* ------------------------------------------------------------------ *)

let test_add_constraint_precedence () =
  (* user value wins over application value when an equality is added *)
  let net = mknet () in
  let a = mkvar net "a" and b = mkvar net "b" in
  check_ok "user a" (Engine.set net a 5);
  check_ok "app b" (Engine.set ~just:Types.Application net b 3);
  let _c, r = Clib.equality net [ a; b ] in
  check_ok "reinitialisation succeeds" r;
  check_val "user value propagated" (Some 5) a;
  check_val "app value overwritten" (Some 5) b

let test_add_constraint_conflicting_users () =
  let net = mknet () in
  let a = mkvar net "a" and b = mkvar net "b" in
  check_ok "user a" (Engine.set net a 5);
  check_ok "user b" (Engine.set net b 6);
  let _c, r = Clib.equality net [ a; b ] in
  check_violation "two pinned values conflict" r;
  check_val "a kept" (Some 5) a;
  check_val "b kept" (Some 6) b

let test_remove_constraint_erases_dependents () =
  let net = mknet () in
  let a = mkvar net "a" and b = mkvar net "b" and c = mkvar net "c" in
  let eq1, _ = Clib.equality net [ a; b ] in
  let _ = Clib.equality net [ b; c ] in
  check_ok "set a" (Engine.set net a 7);
  check_val "c propagated" (Some 7) c;
  Network.remove_constraint net eq1;
  check_val "a kept (user)" (Some 7) a;
  check_val "b erased" None b;
  check_val "c erased (transitive dependent)" None c

let test_remove_argument_reinitializes () =
  let net = mknet () in
  let a = mkvar net "a" and b = mkvar net "b" and c = mkvar net "c" in
  let eq, _ = Clib.equality net [ a; b; c ] in
  check_ok "set a" (Engine.set net a 4);
  check_val "b" (Some 4) b;
  check_ok "remove b from eq" (Network.remove_argument net eq b);
  check_val "b erased" None b;
  check_val "c re-propagated from a" (Some 4) c;
  Alcotest.(check int) "eq now binary" 2 (List.length (Cstr.args eq))

let test_add_argument () =
  let net = mknet () in
  let a = mkvar net "a" and b = mkvar net "b" and c = mkvar net "c" in
  let eq, _ = Clib.equality net [ a; b ] in
  check_ok "set a" (Engine.set net a 2);
  check_ok "extend eq with c" (Network.add_argument net eq c);
  check_val "c initialised" (Some 2) c

(* ------------------------------------------------------------------ *)
(* Editor smoke tests                                                  *)
(* ------------------------------------------------------------------ *)

let test_editor_output () =
  let net = mknet () in
  let a = mkvar net "a" and b = mkvar net "b" in
  let _ = Clib.equality net [ a; b ] in
  check_ok "set" (Engine.set net a 1);
  let s = Fmt.str "%a" Editor.inspect_var a in
  Alcotest.(check bool) "inspect mentions path" true
    (Astring_contains.contains s "t.a");
  let s = Fmt.str "%a" Editor.trace_antecedents b in
  Alcotest.(check bool) "trace mentions source" true
    (Astring_contains.contains s "equality");
  let s = Fmt.str "%a" Editor.dump_network net in
  Alcotest.(check bool) "dump mentions counts" true
    (Astring_contains.contains s "2 variables")

(* ------------------------------------------------------------------ *)
(* qcheck properties                                                   *)
(* ------------------------------------------------------------------ *)

(* property: on an equality chain of length n, setting the head makes
   every variable equal; a user pin elsewhere with a different value
   yields a violation and leaves all values exactly as before. *)
let prop_chain_all_equal =
  QCheck.Test.make ~name:"equality chain saturates" ~count:50
    QCheck.(pair (int_range 2 30) (int_range (-1000) 1000))
    (fun (n, x) ->
      let net = mknet () in
      let vars = List.init n (fun i -> mkvar net (Printf.sprintf "v%d" i)) in
      let rec link = function
        | a :: (b :: _ as rest) ->
          ignore (Clib.equality net [ a; b ]);
          link rest
        | _ -> ()
      in
      link vars;
      match vars with
      | first :: _ ->
        ok (Engine.set net first x)
        && List.for_all (fun v -> value v = Some x) vars
      | [] -> true)

let prop_violation_restores_exactly =
  QCheck.Test.make ~name:"violation restores every value" ~count:50
    QCheck.(triple (int_range 2 20) (int_range 0 100) (int_range 101 200))
    (fun (n, good, bad) ->
      let net = mknet () in
      let vars = List.init n (fun i -> mkvar net (Printf.sprintf "v%d" i)) in
      let rec link = function
        | a :: (b :: _ as rest) ->
          ignore (Clib.equality net [ a; b ]);
          link rest
        | _ -> ()
      in
      link vars;
      let last = List.nth vars (n - 1) in
      match vars with
      | first :: _ ->
        ignore (Engine.set net last good);
        let snapshot = List.map value vars in
        let r = Engine.set net first bad in
        (not (ok r)) && List.map value vars = snapshot
      | [] -> true)

let prop_functional_sum_correct =
  QCheck.Test.make ~name:"uni-addition computes the sum" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 8) (int_range (-50) 50))
    (fun xs ->
      let net = mknet () in
      let inputs = List.mapi (fun i _ -> mkvar net (Printf.sprintf "i%d" i)) xs in
      let s = mkvar net "s" in
      let _ = uni_sum net s inputs in
      List.iter2 (fun v x -> ignore (Engine.set net v x)) inputs xs;
      value s = Some (List.fold_left ( + ) 0 xs))

let prop_can_be_set_to_never_mutates =
  QCheck.Test.make ~name:"can_be_set_to leaves no trace" ~count:50
    QCheck.(pair (int_range 2 10) (int_range (-100) 100))
    (fun (n, x) ->
      let net = mknet () in
      let vars = List.init n (fun i -> mkvar net (Printf.sprintf "v%d" i)) in
      let rec link = function
        | a :: (b :: _ as rest) ->
          ignore (Clib.equality net [ a; b ]);
          link rest
        | _ -> ()
      in
      link vars;
      ignore (Engine.set net (List.nth vars (n - 1)) 7);
      let snapshot = List.map value vars in
      (match vars with
      | first :: _ -> ignore (Engine.can_be_set_to net first x)
      | [] -> ());
      List.map value vars = snapshot)

let suite =
  let tc = Alcotest.test_case in
  ( "kernel",
    [
      tc "equality propagation" `Quick test_equality_propagation;
      tc "fig 4.5 simple network" `Quick test_fig_4_5;
      tc "long equality chain" `Quick test_chain_propagation;
      tc "termination on agreement" `Quick test_termination_on_agreement;
      tc "fig 4.9 cyclic violation" `Quick test_fig_4_9_cyclic_violation;
      tc "user value blocks propagation" `Quick test_user_value_blocks_propagation;
      tc "restore is exact" `Quick test_restore_is_exact;
      tc "violation handler called" `Quick test_violation_handler_called;
      tc "predicate violation" `Quick test_predicate_violation;
      tc "functional agenda dedup" `Quick test_functional_agenda_dedup;
      tc "result var does not reschedule" `Quick test_functional_not_rescheduled_by_result;
      tc "agenda priorities" `Quick test_agenda_priorities;
      tc "CPSwitch disable" `Quick test_disable_switch;
      tc "disable kind / constraint" `Quick test_disable_kind_and_constraint;
      tc "dependency analysis" `Quick test_antecedents_and_consequences;
      tc "can_be_set_to" `Quick test_can_be_set_to;
      tc "update constraint erases" `Quick test_update_constraint_erases;
      tc "update cascade on reset" `Quick test_update_cascade_on_reset;
      tc "add constraint precedence" `Quick test_add_constraint_precedence;
      tc "add constraint conflict" `Quick test_add_constraint_conflicting_users;
      tc "remove constraint erases" `Quick test_remove_constraint_erases_dependents;
      tc "remove argument" `Quick test_remove_argument_reinitializes;
      tc "add argument" `Quick test_add_argument;
      tc "editor output" `Quick test_editor_output;
      QCheck_alcotest.to_alcotest prop_chain_all_equal;
      QCheck_alcotest.to_alcotest prop_violation_restores_exactly;
      QCheck_alcotest.to_alcotest prop_functional_sum_correct;
      QCheck_alcotest.to_alcotest prop_can_be_set_to_never_mutates;
    ] )
