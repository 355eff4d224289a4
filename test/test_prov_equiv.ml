(* Provenance equivalence: a board's provenance store answers [why],
   [blame], [episodes] and [live_spans] exactly as a reference recorder
   does.  The recorder below is fed by a plain sink and keeps every
   assign, reset and episode event in lists; it implements the store's
   documented semantics directly — antecedents read from the new
   justification at emit time, spans of non-committed episodes dead with
   the latest index restored, the newest [Provenance.capacity] spans and
   1,024 episodes retained, cross-network causes through one scope.

   Streams are seeded and random, over two spec nets: [sum] and [max]
   with two and three inputs, a capped total that forces rollbacks, and
   a bridge hook that pushes one net's partial sum into the other, so
   the second net's episodes are caused by the first's. *)

open Constraint_kernel
module P = Obs.Provenance

(* ---------------- the reference recorder ---------------- *)

type rspan = {
  r_id : int;
  r_ep : int;
  r_seq : int;
  r_var : Dval.t Types.var;
  r_value : string option;
  r_just : string;
  r_source : string;
  r_ants : int list;
  r_cross : Types.parent_ref option;
  r_prior : int;
  mutable r_dead : bool;
}

type repisode = {
  re_id : int;
  re_label : string;
  re_parent : Types.parent_ref option;
  mutable re_outcome : Types.episode_outcome option;
}

type rstore = {
  rs_net : Dval.t Types.network;
  rs_spans : (int, rspan) Hashtbl.t; (* every span ever recorded *)
  mutable rs_next : int;
  rs_latest : (int, int) Hashtbl.t; (* v_id -> latest live span id *)
  mutable rs_frames : (int * Types.parent_ref option * int) list;
  rs_episodes : (int, repisode) Hashtbl.t;
  mutable rs_last_epi : int;
}

let latest_of rs v = Option.value ~default:0 (Hashtbl.find_opt rs.rs_latest v.Types.v_id)

let record rs ep seq v value src =
  let ants =
    match v.Types.v_just with
    | Types.Propagated { source; record } ->
      List.filter_map
        (fun arg ->
          if (not (Var.equal arg v)) && source.c_in_dependency source record arg
          then match latest_of rs arg with 0 -> None | id -> Some id
          else None)
        source.c_args
    | _ -> []
  in
  let cross =
    match rs.rs_frames with (e, p, _) :: _ when e = ep -> p | _ -> None
  in
  let id = rs.rs_next in
  rs.rs_next <- id + 1;
  Hashtbl.replace rs.rs_spans id
    { r_id = id; r_ep = ep; r_seq = seq; r_var = v;
      r_value = Option.map Dval.to_string value;
      r_just = Obs.Jsonl.just_string v.v_just; r_source = src; r_ants = ants;
      r_cross = cross; r_prior = latest_of rs v; r_dead = false };
  Hashtbl.replace rs.rs_latest v.v_id id

let held rs id = id >= 1 && id < rs.rs_next && id >= rs.rs_next - P.capacity

let on_event rs ep seq (ev : Dval.t Types.trace_event) =
  match ev with
  | T_assign (v, _, src) -> record rs ep seq v v.v_value src
  | T_reset (v, src) -> record rs ep seq v None src
  | T_episode_start (id, label, parent) ->
    rs.rs_frames <- (id, parent, rs.rs_next) :: rs.rs_frames;
    Hashtbl.replace rs.rs_episodes id
      { re_id = id; re_label = label; re_parent = parent; re_outcome = None };
    rs.rs_last_epi <- id
  | T_episode_end sp -> (
    (match Hashtbl.find_opt rs.rs_episodes sp.es_id with
    | Some e -> e.re_outcome <- Some sp.es_outcome
    | None -> ());
    match rs.rs_frames with
    | (e, _, first) :: rest when e = sp.es_id ->
      rs.rs_frames <- rest;
      if sp.es_outcome <> Types.E_committed then
        for id = rs.rs_next - 1 downto first do
          if held rs id then begin
            let s = Hashtbl.find rs.rs_spans id in
            if s.r_ep = e then begin
              s.r_dead <- true;
              Hashtbl.replace rs.rs_latest s.r_var.v_id s.r_prior
            end
          end
        done
    | _ -> ())
  | _ -> ()

let recorder net =
  let rs =
    { rs_net = net; rs_spans = Hashtbl.create 1024; rs_next = 1;
      rs_latest = Hashtbl.create 16; rs_frames = [];
      rs_episodes = Hashtbl.create 64; rs_last_epi = 0 }
  in
  Engine.add_sink net
    Types.{ snk_name = "reference"; snk_emit = on_event rs };
  rs

(* ---------------- the reference queries ---------------- *)

let to_span rs s =
  { P.sp_id = s.r_id; sp_net = rs.rs_net.net_name; sp_episode = s.r_ep;
    sp_seq = s.r_seq; sp_var = s.r_var.v_path; sp_value = s.r_value;
    sp_just = s.r_just; sp_source = s.r_source; sp_antecedents = s.r_ants;
    sp_cross = s.r_cross; sp_dead = s.r_dead }

let find rs id =
  if held rs id then Some (to_span rs (Hashtbl.find rs.rs_spans id)) else None

let latest rs path =
  match Editor.find_var rs.rs_net path with
  | Some v -> find rs (latest_of rs v)
  | None -> None

let live rs =
  List.filter_map
    (fun id ->
      match find rs id with Some sp when not sp.sp_dead -> Some sp | _ -> None)
    (List.init (rs.rs_next - 1) (fun i -> i + 1))

let episodes rs =
  List.filter_map
    (fun id ->
      match Hashtbl.find_opt rs.rs_episodes id with
      | Some e when id > rs.rs_last_epi - 1024 ->
        Some
          { P.epi_net = rs.rs_net.net_name; epi_id = id; epi_label = e.re_label;
            epi_parent = e.re_parent; epi_outcome = e.re_outcome }
      | _ -> None)
    (List.init rs.rs_last_epi (fun i -> i + 1))

let store_of scope name =
  List.find_opt (fun rs -> rs.rs_net.net_name = name) scope

let why scope rs path =
  let seen = Hashtbl.create 32 in
  let out = ref [] in
  let rec visit depth (sp : P.span) =
    if not (Hashtbl.mem seen (sp.sp_net, sp.sp_id)) then begin
      Hashtbl.add seen (sp.sp_net, sp.sp_id) ();
      out := { P.ws_depth = depth; ws_span = sp } :: !out;
      match sp.sp_antecedents with
      | _ :: _ as ants ->
        let home = store_of scope sp.sp_net in
        List.iter
          (fun id ->
            match Option.bind home (fun h -> find h id) with
            | Some a -> visit (depth + 1) a
            | None -> ())
          ants
      | [] -> (
        match sp.sp_cross with
        | Some { pr_net; pr_cause = Some cause; _ } -> (
          match store_of scope pr_net with
          | Some parent -> (
            match latest parent cause with
            | Some psp -> visit (depth + 1) psp
            | None -> ())
          | None -> ())
        | _ -> ())
    end
  in
  (match latest rs path with
  | Some sp when not sp.sp_dead -> visit 0 sp
  | _ -> ());
  List.rev !out

let blame scope rs path =
  match latest rs path with
  | None -> []
  | Some root ->
    let tainted = Hashtbl.create 32 and causes = Hashtbl.create 8 in
    Hashtbl.add tainted (root.sp_net, root.sp_id) ();
    Hashtbl.add causes (root.sp_net, root.sp_var) ();
    let stores =
      List.sort (fun a b -> compare a.rs_net.net_name b.rs_net.net_name) scope
    in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun st ->
          List.iter
            (fun (sp : P.span) ->
              if not (Hashtbl.mem tainted (sp.sp_net, sp.sp_id)) then begin
                let by_edge =
                  List.exists
                    (fun id -> Hashtbl.mem tainted (sp.sp_net, id))
                    sp.sp_antecedents
                in
                let by_cross =
                  match sp.sp_cross with
                  | Some { pr_net; pr_cause = Some cause; _ } ->
                    sp.sp_antecedents = [] && Hashtbl.mem causes (pr_net, cause)
                  | _ -> false
                in
                if by_edge || by_cross then begin
                  Hashtbl.add tainted (sp.sp_net, sp.sp_id) ();
                  Hashtbl.replace causes (sp.sp_net, sp.sp_var) ();
                  changed := true
                end
              end)
            (live st))
        stores;
    done;
    let local, remote =
      List.partition (fun st -> st.rs_net.net_name = root.sp_net) stores
    in
    List.concat_map
      (fun st ->
        List.filter
          (fun (sp : P.span) ->
            Hashtbl.mem tainted (sp.sp_net, sp.sp_id)
            && not (sp.sp_net = root.sp_net && sp.sp_id = root.sp_id))
          (live st))
      (local @ remote)

(* ---------------- the nets and streams ---------------- *)

let spec_a =
  {|var in.a
var in.b
var in.c
var in.d
var mid.s2
var mid.s3
var mid.m2
var mid.m3
var out.t
sum mid.s2 in.a in.b
sum mid.s3 in.a in.b in.c
max mid.m2 in.c in.d
max mid.m3 in.a in.c in.d
sum out.t mid.s3 mid.m2
cap out.t 40
|}

let spec_b = {|var x.p
var x.q
var y.r
sum y.r x.p x.q
cap y.r 30
|}

let build id spec =
  match Serve.Wstore.build_spec ~id spec with
  | net, [] -> net
  | _, _ :: _ -> Alcotest.fail "spec declares no initial values"

let var net path = Option.get (Editor.find_var net path)

let paths net = List.rev_map (fun v -> v.Types.v_path) net.Types.net_vars

(* A fresh pair: boards on both nets in one provenance scope, a
   recorder on each, and [mid.s2]'s changes pushed into [x.p] — from
   inside the first net's episode, so the second net's episode names it
   as parent and [mid.s2] as cause. *)
let pair () =
  let a = build "equiv-a" spec_a and b = build "equiv-b" spec_b in
  let scope = P.scope () in
  let pa =
    Obs.Board.provenance
      (Obs.Board.attach ~pp_value:Dval.to_string ~scope a)
  in
  let pb =
    Obs.Board.provenance
      (Obs.Board.attach ~pp_value:Dval.to_string ~scope b)
  in
  let ra = recorder a and rb = recorder b in
  let s2 = var a "mid.s2" and p = var b "x.p" in
  s2.v_on_change <-
    (fun v ->
      ignore
        (match v.v_value with
        | Some x -> Engine.set ~just:Types.Application b p x
        | None -> Engine.reset b p));
  (a, b, pa, pb, ra, rb)

let step rng a b =
  let int n = Random.State.int rng n in
  let value () = Dval.Int (int 16) in
  let pick net l = var net (List.nth l (int (List.length l))) in
  let ins_a = [ "in.a"; "in.b"; "in.c"; "in.d" ] and ins_b = [ "x.q"; "x.p" ] in
  match int 20 with
  | 0 | 1 -> ignore (Engine.reset a (pick a ins_a))
  | 2 -> ignore (Engine.explain_set a (pick a ins_a) (value ()))
  | 3 -> Engine.poke a (pick a ins_a) (value ()) ~just:Types.Application
  | 4 | 5 | 6 -> ignore (Engine.set b (pick b ins_b) (value ()))
  | _ -> ignore (Engine.set a (pick a ins_a) (value ()))

let check_equal msg (a, b, pa, pb, ra, rb) =
  let scope = [ ra; rb ] in
  List.iter
    (fun (net, p, rs) ->
      let name = net.Types.net_name in
      if P.live_spans p <> live rs then
        Alcotest.failf "%s: %s live_spans differ" msg name;
      if P.episodes p <> episodes rs then
        Alcotest.failf "%s: %s episodes differ" msg name;
      List.iter
        (fun path ->
          if P.why p path <> why scope rs path then
            Alcotest.failf "%s: why %s.%s differs" msg name path;
          if P.blame p path <> blame scope rs path then
            Alcotest.failf "%s: blame %s.%s differs" msg name path)
        (paths net))
    [ (a, pa, ra); (b, pb, rb) ]

let run_stream ~seed ~ops ~every =
  let ((a, b, _, _, _, _) as env) = pair () in
  let rng = Random.State.make [| seed |] in
  for i = 1 to ops do
    step rng a b;
    if i mod every = 0 then check_equal (Printf.sprintf "seed %d op %d" seed i) env
  done;
  check_equal (Printf.sprintf "seed %d end" seed) env;
  env

let test_short_streams () =
  List.iter
    (fun seed ->
      let _, _, pa, _, _, _ = run_stream ~seed ~ops:300 ~every:25 in
      Alcotest.(check bool) "some episode rolled back" true
        (List.exists
           (fun e -> e.P.epi_outcome = Some Types.E_rolled_back)
           (P.episodes pa)))
    [ 1; 2; 3; 4 ]

(* Long enough that both span rings and the episode ring wrap. *)
let test_past_eviction () =
  let _, _, pa, pb, _, _ = run_stream ~seed:11 ~ops:8000 ~every:2000 in
  Alcotest.(check bool) "the first net evicted spans" true (P.evicted pa > 0);
  Alcotest.(check bool) "the second net recorded cross-caused spans" true
    (List.exists (fun sp -> sp.P.sp_cross <> None) (P.live_spans pb))

let suite =
  ( "prov-equiv",
    [
      Alcotest.test_case "seeded streams match a recording" `Quick
        test_short_streams;
      Alcotest.test_case "streams past eviction match a recording" `Slow
        test_past_eviction;
    ] )
