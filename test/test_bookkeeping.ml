(* The kernel's episode bookkeeping: the path index, per-variable
   episode stamps and the undo trail, per-constraint agenda membership,
   resolved disabled-kind flags, and what an episode allocates. *)

open Constraint_kernel

let mknet () = Engine.create_network ~name:"book" ()

let ivar net name =
  Var.create net ~owner:"b" ~name ~equal:Int.equal ~pp:Fmt.int ()

let ok = function Ok () -> true | Error _ -> false

(* ---------------- path index ---------------- *)

let test_path_index () =
  let net = mknet () in
  let x = ivar net "x" in
  let y =
    Var.create net ~owner:"b.c" ~name:"y" ~equal:Int.equal ~pp:Fmt.int ()
  in
  Alcotest.(check bool) "path rendered once" true (Var.path x == Var.path x);
  Alcotest.(check (option string)) "owner.name" (Some "b.x")
    (Option.map Var.path (Editor.find_var net "b.x"));
  Alcotest.(check bool) "dotted owner" true
    (Option.map Var.id (Editor.find_var net "b.c.y") = Some (Var.id y));
  Alcotest.(check bool) "absent" true (Editor.find_var net "b.z" = None);
  (* a second variable under the same path shadows the first *)
  let x' = ivar net "x" in
  Alcotest.(check bool) "latest wins" true
    (Option.map Var.id (Editor.find_var net "b.x") = Some (Var.id x'));
  Alcotest.(check bool) "the first is still a variable" true
    (List.exists (Var.equal x) net.Types.net_vars)

(* ---------------- nested same-network episode ---------------- *)

(* (a) An outer episode writes [c], a change hook runs a committed
   nested episode on the same network that writes [c] again, the outer
   episode then overwrites [c] once more and finally violates.  [c] is
   on the outer trail twice (the nested episode re-stamped it); the
   rollback must still restore every variable's value and justification
   to the very objects it held before the outer episode. *)
let test_nested_episode_rollback () =
  let net = mknet () in
  let a = ivar net "a" and b = ivar net "b" and c = ivar net "c" in
  let k =
    Cstr.make net ~kind:"fan"
      ~propagate:(fun ctx k changed ->
        match changed with
        | Some v when Var.equal v a -> (
          let x = Var.value_exn a in
          let set v y =
            Engine.set_by_constraint ctx v y ~source:k
              ~record:(Types.Single_var a)
          in
          match set c (x + 100) with
          | Error _ as e -> e
          | Ok () -> (
            match set b x with Error _ as e -> e | Ok () -> set c (x + 200)))
        | _ -> Ok ())
      ~satisfied:(fun _ -> true)
      [ a; b; c ]
  in
  ignore (Network.add_constraint net k);
  let cap =
    Cstr.make net ~kind:"cap"
      ~propagate:(fun _ _ _ -> Ok ())
      ~satisfied:(fun _ ->
        match Var.value b with Some x -> x <= 10 | None -> true)
      [ b ]
  in
  ignore (Network.add_constraint net cap);
  Alcotest.(check bool) "first set commits" true (ok (Engine.set net a 1));
  Alcotest.(check (option int)) "c from the fan" (Some 201) (Var.value c);
  let snap v = (v.Types.v_value, v.Types.v_just) in
  let before = List.map snap [ a; b; c ] in
  let nested = ref 0 in
  Var.set_on_change b (fun _ ->
      if !nested = 0 then begin
        incr nested;
        match Engine.set ~just:Types.Application net c 5 with
        | Ok () -> ()
        | Error v ->
          Alcotest.failf "nested episode failed: %a" Types.pp_violation v
      end);
  Alcotest.(check bool) "outer episode violates" false (ok (Engine.set net a 13));
  Alcotest.(check int) "the nested episode ran" 1 !nested;
  List.iter2
    (fun name ((v0, j0), (v1, j1)) ->
      Alcotest.(check bool) (name ^ ": value restored") true (v0 == v1);
      Alcotest.(check bool) (name ^ ": justification restored") true (j0 == j1))
    [ "a"; "b"; "c" ]
    (List.combine before (List.map snap [ a; b; c ]));
  Alcotest.(check (list string)) "network consistent" []
    (Network.check_integrity net)

(* ---------------- the N-change rule ---------------- *)

(* (b) A two-variable cycle that keeps bumping: x -> y = x + 1 -> x =
   y + 1 -> ...; it never settles.  The rule fires on the first
   proposal that would change a variable more than [net_max_changes]
   times, so the offending variable was assigned exactly
   [net_max_changes] times. *)
let test_n_change_exact () =
  List.iter
    (fun n ->
      let net = mknet () in
      net.Types.net_max_changes <- n;
      let x = ivar net "x" and y = ivar net "y" in
      (* two one-way constraints: a constraint is never woken by its
         own assignment, so one constraint alone would not cycle *)
      let bump ~from_ ~to_ =
        let c =
          Cstr.make net ~kind:"bump"
            ~propagate:(fun ctx c changed ->
              match changed with
              | Some v when Var.equal v from_ ->
                Engine.set_by_constraint ctx to_ (Var.value_exn v + 1)
                  ~source:c ~record:(Types.Single_var v)
              | _ -> Ok ())
            ~satisfied:(fun _ -> true)
            [ from_; to_ ]
        in
        ignore (Network.add_constraint net c)
      in
      bump ~from_:x ~to_:y;
      bump ~from_:y ~to_:x;
      let assigned = Hashtbl.create 2 in
      Engine.add_sink net
        (Types.sink ~name:"count" (fun te ->
             match te.Types.te_event with
             | Types.T_assign (v, _, _) ->
               Hashtbl.replace assigned (Var.path v)
                 (1
                 + Option.value ~default:0
                     (Hashtbl.find_opt assigned (Var.path v)))
             | _ -> ()));
      match Engine.set ~just:Types.Application net x 0 with
      | Ok () -> Alcotest.failf "max %d: the cycle must violate" n
      | Error viol ->
        let path = Option.get viol.Types.viol_var_path in
        Alcotest.(check int)
          (Printf.sprintf "max %d: %s assigned exactly max times" n path)
          n
          (Hashtbl.find assigned path);
        Alcotest.(check bool) "message names the bound" true
          (Astring_contains.contains viol.Types.viol_message
             (Printf.sprintf "changed %d times" n)))
    [ 1; 2; 3; 7; 100 ]

(* ---------------- agenda membership ---------------- *)

let test_agenda_membership () =
  let net = mknet () in
  let v = ivar net "v" and w = ivar net "w" in
  let mk keyed =
    Cstr.make net ~kind:"k"
      ~activation:
        (Cstr.activation ~schedule:(Types.On_agenda 10) ~keyed_by_var:keyed ())
      ~propagate:(fun _ _ _ -> Ok ())
      ~satisfied:(fun _ -> true)
      [ v; w ]
  in
  let f = mk false and g = mk true in
  let a = Agenda.create () in
  let sched c var = Agenda.schedule a ~priority:10 c ~var in
  Alcotest.(check bool) "unkeyed queued" true (sched f None);
  Alcotest.(check bool) "unkeyed deduplicated" false (sched f None);
  Alcotest.(check bool) "keyed by v" true (sched g (Some v));
  Alcotest.(check bool) "keyed by w" true (sched g (Some w));
  Alcotest.(check bool) "keyed by v again" false (sched g (Some v));
  Alcotest.(check int) "length counts entries" 3 (Agenda.length a);
  (* another agenda sees none of this agenda's marks *)
  let b = Agenda.create () in
  Alcotest.(check bool) "independent agenda" true
    (Agenda.schedule b ~priority:10 f ~var:None);
  ignore (Agenda.pop a);
  Alcotest.(check bool) "requeued after pop" true (sched f None);
  Alcotest.(check int) "length after pop and push" 3 (Agenda.length a);
  Agenda.clear a;
  Alcotest.(check int) "cleared" 0 (Agenda.length a);
  Alcotest.(check bool) "marks stale after clear" true (sched g (Some v))

(* ---------------- disabled kinds ---------------- *)

let test_disabled_kind_flag () =
  let net = mknet () in
  let a = ivar net "a" and b = ivar net "b" and c = ivar net "c" in
  Engine.disable_kind net "equality";
  (* created while its kind is disabled: the flag is set at creation *)
  let eq, _ = Clib.equality net [ a; b ] in
  Alcotest.(check bool) "a propagates nothing" true (ok (Engine.set net a 1));
  Alcotest.(check (option int)) "b untouched" None (Var.value b);
  ignore (Engine.set net b 2);
  Alcotest.(check int) "unsatisfied skips the disabled kind" 0
    (List.length (Editor.unsatisfied net));
  Engine.enable_kind net "equality";
  Alcotest.(check int) "re-enabled: the conflict shows" 1
    (List.length (Editor.unsatisfied net));
  Network.remove_constraint net eq;
  let _ = Clib.equality net [ b; c ] in
  Alcotest.(check (option int)) "later constraints start enabled" (Some 2)
    (Var.value c)

(* ---------------- allocation ---------------- *)

(* (c) Minor words of one episode on a chain of uni_addition links,
   split into a fixed part and a per-step part from a 1-link and a
   1,000-link chain.  A count, so deterministic for a given compiler
   (OCaml 5.1.1 here); the bounds leave headroom over what the kernel
   does today (105 fixed, 38 per step; the per-step bound is 1.5x that)
   and sit well under what it did with per-episode hash tables (313
   fixed, 140 per step), with a two-pass functional input list (49 per
   step) or with a fresh [Propagated] justification per step (43 per
   step).  A board on the chain is held to the same per-step bound: its
   log writes each event as a row and allocates nothing per step. *)
let test_episode_allocation () =
  let chain ?(board = false) n =
    let net = Engine.create_network ~name:"chain" () in
    let vs =
      Array.init (n + 1) (fun i ->
          Dclib.variable net ~owner:"chain" ~name:(string_of_int i) ())
    in
    for i = 1 to n do
      ignore (Dclib.uni_addition net ~result:vs.(i) [ vs.(i - 1) ])
    done;
    if board then ignore (Obs.Board.attach net);
    (net, vs.(0))
  in
  let k = ref 0 in
  let episode (net, head) =
    incr k;
    let s0 = (Engine.stats net).Types.st_inferences in
    let w0 = Gc.minor_words () in
    let r = Engine.set net head (Dval.Int !k) in
    let w = Gc.minor_words () -. w0 in
    if not (ok r) then Alcotest.fail "chain episode violated";
    (w, (Engine.stats net).Types.st_inferences - s0)
  in
  let measure ~board what =
    let short = chain ~board 1 and long = chain ~board 1000 in
    (* warm: strata registered, totals tables populated, the log's
       tables grown *)
    for _ = 1 to 3 do
      ignore (episode short);
      ignore (episode long)
    done;
    let w1, s1 = episode short in
    let wn, sn = episode long in
    Alcotest.(check int) (what ^ ": one step per link") 1000 sn;
    let per_step = (wn -. w1) /. float_of_int (sn - s1) in
    let fixed = w1 -. (per_step *. float_of_int s1) in
    if per_step > 57. then
      Alcotest.failf "%s: %.1f words per step (max 57)" what per_step;
    fixed
  in
  let fixed = measure ~board:false "bare" in
  if fixed > 150. then
    Alcotest.failf "%.1f fixed words per episode (max 150)" fixed;
  ignore (measure ~board:true "with a board")

let suite =
  let tc = Alcotest.test_case in
  ( "bookkeeping",
    [
      tc "path index" `Quick test_path_index;
      tc "nested episode rollback" `Quick test_nested_episode_rollback;
      tc "N-change rule fires at the bound" `Quick test_n_change_exact;
      tc "agenda membership" `Quick test_agenda_membership;
      tc "disabled kind flag" `Quick test_disabled_kind_flag;
      tc "episode allocation" `Quick test_episode_allocation;
    ] )
