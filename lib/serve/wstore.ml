(* The write store: hosted, writable constraint networks behind the
   HTTP write API, with optional crash-safe durability.

   Durability layering (the write-ahead discipline):

     set request --> Engine.set (episode commits)
                 --> journal append (framed JSONL, fsync per policy)
                 --> 200 acknowledgement

   so an acknowledged set is on disk before the client hears about it.
   Snapshots fold the journal into a temp+rename'd file of the net's
   user/application-entered values ([Stem.Persist.write_atomic]), then
   truncate the journal; recovery is snapshot + journal tail, with
   every set re-entered through [Engine.set] so all derived values are
   re-propagated rather than trusted from disk.  Apt's commutativity
   result (PAPERS.md) is what makes this sound: replaying the set
   episodes in file order reconverges to the same fixpoint the live
   network had.

   Concurrency: the engine keeps one process-global ambient episode
   stack (cross-network trace correlation), so episodes from two
   threads must never interleave.  Every [Engine.set] in this module
   runs under one global episode mutex — write throughput is bounded
   by episode cost, which the admission layer's step budget keeps
   finite. *)

open Constraint_kernel

let pp_value = Dval.to_string

let value_of_token = Dval.of_string

let just_of_string = function
  | "user" | "" -> Some Types.User
  | "application" -> Some Types.Application
  | _ -> None

(* ---------------- spec DSL ----------------

   A line-oriented network description, parse errors line-numbered:

     var PATH [= VALUE]      variable (PATH = owner.name; value is an
                             initial application-entered set)
     eq PATH PATH+           equality
     sum RESULT PATH+        RESULT = sum of inputs
     max RESULT PATH+        RESULT = max of inputs
     min RESULT PATH+        RESULT = min of inputs
     add A B SUM             bidirectional A + B = SUM
     le A B                  A <= B
     cap PATH VALUE          PATH <= VALUE
     floor PATH VALUE        PATH >= VALUE
     range PATH LO..HI       range membership

   [#] starts a comment. *)

exception Spec_error of int * string

let split_path lineno p =
  match String.rindex_opt p '.' with
  | Some i when i > 0 && i < String.length p - 1 ->
    (String.sub p 0 i, String.sub p (i + 1) (String.length p - i - 1))
  | _ ->
    raise
      (Spec_error (lineno, Printf.sprintf "bad variable path %S (owner.name)" p))

let build_spec ~id text =
  let net = Engine.create_network ~name:id () in
  let inits = ref [] in
  let var_of lineno p =
    match Editor.find_var net p with
    | Some v -> v
    | None -> raise (Spec_error (lineno, "unknown variable " ^ p))
  in
  let value_of lineno s =
    match value_of_token s with
    | Some v -> v
    | None -> raise (Spec_error (lineno, "bad value " ^ s))
  in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line = String.trim line in
      if line = "" || line.[0] = '#' then ()
      else
        let fields =
          String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
        in
        match fields with
        | "var" :: path :: rest ->
          let owner, name = split_path lineno path in
          if Editor.find_var net path <> None then
            raise (Spec_error (lineno, "duplicate variable " ^ path));
          ignore (Dclib.variable net ~owner ~name ());
          (match rest with
          | [] -> ()
          | "=" :: tokens ->
            inits :=
              (path, value_of lineno (String.concat " " tokens)) :: !inits
          | _ -> raise (Spec_error (lineno, "expected: var PATH [= VALUE]")))
        | "eq" :: (_ :: _ :: _ as paths) ->
          ignore (Dclib.equality net (List.map (var_of lineno) paths))
        | "sum" :: result :: (_ :: _ as inputs) ->
          ignore
            (Dclib.uni_addition net ~result:(var_of lineno result)
               (List.map (var_of lineno) inputs))
        | "max" :: result :: (_ :: _ as inputs) ->
          ignore
            (Dclib.uni_maximum net ~result:(var_of lineno result)
               (List.map (var_of lineno) inputs))
        | "min" :: result :: (_ :: _ as inputs) ->
          ignore
            (Dclib.uni_minimum net ~result:(var_of lineno result)
               (List.map (var_of lineno) inputs))
        | [ "add"; a; b; sum ] ->
          ignore
            (Dclib.addition ~a:(var_of lineno a) ~b:(var_of lineno b)
               ~sum:(var_of lineno sum) net)
        | [ "le"; a; b ] ->
          ignore (Dclib.less_equal net (var_of lineno a) (var_of lineno b))
        | "cap" :: path :: tokens when tokens <> [] ->
          ignore
            (Dclib.less_equal_const net (var_of lineno path)
               (value_of lineno (String.concat " " tokens)))
        | "floor" :: path :: tokens when tokens <> [] ->
          ignore
            (Dclib.greater_equal_const net (var_of lineno path)
               (value_of lineno (String.concat " " tokens)))
        | [ "range"; path; r ] ->
          ignore (Dclib.in_range net (var_of lineno path) (value_of lineno r))
        | directive :: _ ->
          raise (Spec_error (lineno, "unknown directive " ^ directive))
        | [] -> ())
    lines;
  (net, List.rev !inits)

(* ---------------- the global episode lock ---------------- *)

let episode_mu = Mutex.create ()

let with_episode_lock f =
  Mutex.lock episode_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock episode_mu) f

(* ---------------- hosted entries ---------------- *)

type entry = {
  e_id : string;
  e_tenant : string;
  e_spec : string;
  e_net : Dval.t Types.network;
  e_board : Dval.t Obs.Board.t;
  e_journal : Journal.t option;
  e_dir : string option;
  e_snapshot_every : int;
  e_owned : bool;  (* created here (vs adopted): drop detaches obs *)
  mutable e_acked : int;  (* sets acknowledged over this entry's lifetime *)
  mutable e_since_snapshot : int;
  mutable e_tracer : Obs.Tracing.t option;  (* whose kernel sink is on *)
}

let id e = e.e_id

let tenant e = e.e_tenant

let net e = e.e_net

let board e = e.e_board

let prov e = Obs.Board.provenance e.e_board

let acked e = e.e_acked

let journal e = e.e_journal

(* ---------------- the served-network registry ----------------

   One table lists every network the telemetry server publishes: the
   hosted ones (writable, with an [entry]) and the read-only exposed
   ones.  Hosting a network serves it in the same step, dropping it
   withdraws it.  The existential hides each network's value type, so
   heterogeneous networks share the table. *)

type served =
  | Served : {
      name : string;
      net : 'a Types.network;
      board : 'a Obs.Board.t;
    }
      -> served

type slot = {
  served : served;
  host : entry option;
  stream : bool -> unit;  (* attach/detach the /events feed sink *)
}

(* One hub: every served network publishes into it, every /events
   subscriber (of any server) drains from it. *)
let hub = Stream.create ()

let reg_mu = Mutex.create ()

let registry : (string, slot) Hashtbl.t = Hashtbl.create 8

let with_registry f =
  Mutex.lock reg_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg_mu) f

let find ~id =
  match with_registry (fun () -> Hashtbl.find_opt registry id) with
  | Some { host; _ } -> host
  | None -> None

let slots () =
  with_registry (fun () -> Hashtbl.fold (fun _ s acc -> s :: acc) registry [])

let list () =
  List.filter_map (fun s -> s.host) (slots ())
  |> List.sort (fun a b -> compare a.e_id b.e_id)

(* One board under two names — the shell exposes its session net under
   the net's own name and hosts it under an id — is one network: while
   it is hosted, its read-only exposure is shadowed, so it is listed
   once, under the hosted id, and feeds /events once.  Boards of
   different value types compare through their metrics registries. *)
let shadowed_locked { served = Served s; host; _ } =
  host = None
  && Hashtbl.fold
       (fun _ other acc ->
         acc
         ||
         match other with
         | { host = Some _; served = Served h; _ } ->
           Obs.Board.metrics h.board == Obs.Board.metrics s.board
         | { host = None; _ } -> false)
       registry false

let served () =
  with_registry (fun () ->
      Hashtbl.fold
        (fun _ s acc -> if shadowed_locked s then acc else s.served :: acc)
        registry [])
  |> List.sort (fun (Served a) (Served b) -> compare a.name b.name)

(* The /events sink is attached only while someone is streaming: a
   served-but-unwatched network pays nothing per event, not even sink
   dispatch.  Lines are formatted lazily on the reader's thread. *)
let slot_of ?host ?pp_value ~name ~board net =
  let sink_name = "serve.events." ^ name in
  let sink =
    {
      Types.snk_name = sink_name;
      snk_emit =
        (fun ep seq ev ->
          Stream.publish hub ~net:name (fun () ->
              Obs.Jsonl.json_of_event ~net:name ?pp_value
                { Types.te_episode = ep; te_seq = seq; te_event = ev }));
    }
  in
  let live = ref false in
  let stream on =
    if on && not !live then Engine.add_sink net sink
    else if !live && not on then ignore (Engine.remove_sink net sink_name);
    live := on
  in
  { served = Served { name; net; board }; host; stream }

(* Every visible slot's feed sink is on exactly while someone streams;
   run after each registry change, since hosting or dropping a board
   shadows or reveals its exposure. *)
let sync_streams_locked streaming =
  Hashtbl.iter
    (fun _ s -> s.stream (streaming && not (shadowed_locked s)))
    registry

(* Withdrawal undoes what serving wired: the feed sink and a server's
   history sampling of the board. *)
let withdraw_locked name =
  match Hashtbl.find_opt registry name with
  | None -> ()
  | Some { served = Served s; stream; _ } ->
    stream false;
    Obs.Board.set_history s.board None;
    Hashtbl.remove registry name;
    sync_streams_locked (Stream.active hub)

let serve_locked name slot =
  withdraw_locked name;
  Hashtbl.replace registry name slot;
  (* a subscriber may already be streaming when the net appears *)
  sync_streams_locked (Stream.active hub)

let expose ?name ?pp_value ~board net =
  let name = Option.value name ~default:net.Types.net_name in
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some { host = Some _; _ } -> invalid_arg ("expose: hosted " ^ name)
      | _ -> serve_locked name (slot_of ?pp_value ~name ~board net))

let unexpose name =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some { host = None; _ } ->
        withdraw_locked name;
        true
      | _ -> false)

(* Swing every served net's sink on the 0<->1 subscriber edges.  The
   hook runs outside the hub lock, so taking [reg_mu] here cannot
   deadlock against a thread that holds [reg_mu] and asks the hub for
   its state. *)
let () =
  Stream.set_on_transition hub (fun streaming ->
      with_registry (fun () -> sync_streams_locked streaming))

(* ---------------- durability configuration ---------------- *)

type durability = {
  d_dir : string option;
  d_fsync : Journal.fsync_policy;
  d_snapshot_every : int;
}

let durability =
  ref { d_dir = None; d_fsync = Journal.Always; d_snapshot_every = 256 }

let configure ?dir ?fsync ?snapshot_every () =
  let d = !durability in
  durability :=
    {
      d_dir = (match dir with Some _ -> dir | None -> d.d_dir);
      d_fsync = Option.value fsync ~default:d.d_fsync;
      d_snapshot_every =
        Option.value snapshot_every ~default:d.d_snapshot_every;
    }

let valid_id id =
  id <> ""
  && String.length id <= 64
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> true
         | _ -> false)
       id

let snap_path dir id = Filename.concat dir (id ^ ".snap")

let jnl_path dir id = Filename.concat dir (id ^ ".jnl")

(* ---------------- records ---------------- *)

let set_record ~path ~value ~just =
  Obs.Jsonl.(
    to_string
      (J_obj
         [
           ("v", J_int schema_version);
           ("t", J_str "wal_set");
           ("var", J_str path);
           ("value", J_str (Dval.to_token value));
           ("just", J_str (just_string just));
         ]))

let spec_record ~id ~tenant ~spec =
  Obs.Jsonl.(
    to_string
      (J_obj
         [
           ("v", J_int schema_version);
           ("t", J_str "wal_spec");
           ("net", J_str id);
           ("tenant", J_str tenant);
           ("spec", J_str spec);
         ]))

(* The snapshot is exactly the externally-entered state: every
   user/application-justified value, one wal_set line each.  Derived
   values are deliberately absent — recovery re-propagates them, and
   [Obs.Replay.diff_live] checks the re-derivation. *)
let snapshot_text e =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (spec_record ~id:e.e_id ~tenant:e.e_tenant ~spec:e.e_spec);
  Buffer.add_char buf '\n';
  List.iter
    (fun v ->
      match (Var.value v, Var.justification v) with
      | Some x, ((Types.User | Types.Application) as just) ->
        Buffer.add_string buf (set_record ~path:(Var.path v) ~value:x ~just);
        Buffer.add_char buf '\n'
      | _ -> ())
    (List.rev e.e_net.Types.net_vars);
  Buffer.contents buf

exception Snapshot_failed of string

(* Snapshot then truncate the journal.  Crash between the two is safe:
   the journal's sets are already in the snapshot, and re-entering an
   identical set is idempotent at the fixpoint.  [Journal.reset] syncs
   the directory both share before it truncates.  A failed write leaves
   the journal as it was: it still holds every set since the last
   snapshot. *)
let snapshot e =
  match e.e_dir with
  | None -> ()
  | Some dir ->
    (match
       Stem.Persist.write_atomic ~fsync:true (snap_path dir e.e_id)
         (snapshot_text e)
     with
    | () -> ()
    | exception Sys_error msg -> raise (Snapshot_failed msg)
    | exception Unix.Unix_error (err, fn, _) ->
      raise (Snapshot_failed (fn ^ ": " ^ Unix.error_message err)));
    e.e_since_snapshot <- 0;
    Option.iter Journal.reset e.e_journal

(* ---------------- set application ---------------- *)

type set_error =
  | Unknown_var of string
  | Violation of { message : string; over_budget : bool }
  | Not_durable of string

let set_error_message = function
  | Unknown_var p -> "unknown variable " ^ p
  | Violation { message; _ } -> message
  | Not_durable msg -> "not durable: " ^ msg

(* The one decoder of a set line — an HTTP batch item, a journal record
   or a snapshot record — from its parsed fields.  A missing "just"
   means a user set. *)
let decode_set fields =
  match (Obs.Jsonl.str fields "var", Obs.Jsonl.str fields "value") with
  | None, _ -> Error "missing \"var\""
  | _, None -> Error "missing \"value\""
  | Some path, Some token -> (
    match value_of_token token with
    | None -> Error (Printf.sprintf "unparseable value %S" token)
    | Some value -> (
      let j = Option.value (Obs.Jsonl.str fields "just") ~default:"user" in
      match just_of_string j with
      | None -> Error (Printf.sprintf "bad justification %S" j)
      | Some just -> Ok (path, value, just)))

(* The one way a decoded set enters a network, live or replayed: find
   the variable, run the episode.  The caller holds the episode lock.
   With a [trace], the episode runs under the request's ambient trace
   context so the tracing kernel sink parents the episode span (and its
   propagate/drain/check children) under that request. *)
let enter trace net ~path ~value ~just =
  match Editor.find_var net path with
  | None -> Error (Unknown_var path)
  | Some v -> (
    let run () = Engine.set ~just net v value in
    let result =
      match trace with
      | None -> run ()
      | Some (t, ctx) -> Obs.Tracing.with_ambient t ctx run
    in
    match result with
    | Ok () -> Ok ()
    | Error viol ->
      Error
        (Violation
           {
             message = Fmt.str "%a" Types.pp_violation viol;
             over_budget = Engine.over_budget viol;
           }))

(* The tracer of a traced write gets its kernel sink on the net before
   the episode runs, whenever the net was hosted. *)
let ensure_trace_sink e = function
  | Some (t, _) when not (Option.fold ~none:false ~some:(( == ) t) e.e_tracer)
    ->
    Engine.add_sink e.e_net (Obs.Tracing.kernel_sink t ~net:e.e_id);
    e.e_tracer <- Some t
  | _ -> ()

let detach_tracer e =
  if Option.is_some e.e_tracer then begin
    ignore (Engine.remove_sink e.e_net Obs.Tracing.kernel_sink_name);
    e.e_tracer <- None
  end

let untrace t =
  with_episode_lock (fun () ->
      List.iter
        (fun e ->
          match e.e_tracer with
          | Some t' when t' == t -> detach_tracer e
          | _ -> ())
        (list ()))

(* One set: engine episode, then journal append, then Ok — the ack
   ordering the durability guarantee rests on.  The append happens
   under the episode lock, so journal order is episode order.  A failed
   fsync (here or in the snapshot's journal reset) answers
   [Not_durable] instead of an ack; once the journal is poisoned, sets
   are refused before their episode runs. *)
let apply_set ?trace e ~path ~value ~just =
  with_episode_lock (fun () ->
      match Option.bind e.e_journal Journal.failure with
      | Some msg -> Error (Not_durable msg)
      | None -> (
        ensure_trace_sink e trace;
        match enter trace e.e_net ~path ~value ~just with
        | Error _ as err -> err
        | Ok () -> (
          match
            (match e.e_journal with
            | Some j -> Journal.append ?trace j (set_record ~path ~value ~just)
            | None -> ());
            e.e_since_snapshot <- e.e_since_snapshot + 1;
            if
              e.e_dir <> None
              && e.e_snapshot_every > 0
              && e.e_since_snapshot >= e.e_snapshot_every
            then snapshot e
          with
          | () ->
            e.e_acked <- e.e_acked + 1;
            Ok ()
          | exception (Journal.Failed msg | Snapshot_failed msg) ->
            Error (Not_durable msg))))

let state e =
  List.rev_map
    (fun v ->
      ( Var.path v,
        Option.map Dval.to_token (Var.value v),
        Obs.Jsonl.just_string (Var.justification v) ))
    e.e_net.Types.net_vars
  |> List.sort compare

(* ---------------- create / adopt / drop ---------------- *)

(* The one release path of an entry this module built: journal closed,
   observability detached.  Adopted entries own none of it. *)
let release e =
  if e.e_owned then begin
    Option.iter Journal.close e.e_journal;
    Obs.Board.detach e.e_net
  end

(* Host and serve in one step, or release the entry if the id is taken
   (a concurrent create).  A read-only exposure of the same name gives
   way to the hosted network. *)
let register e =
  match
    with_registry (fun () ->
        match Hashtbl.find_opt registry e.e_id with
        | Some { host = Some _; _ } -> false
        | _ ->
          serve_locked e.e_id
            (slot_of ~host:e ~pp_value ~name:e.e_id ~board:e.e_board e.e_net);
          true)
  with
  | true -> Ok e
  | false ->
    release e;
    Error ("network exists: " ^ e.e_id)

let make_entry ~id ~tenant ~spec ~net ~journal ~dir ~step_budget =
  Engine.set_step_budget net (Some step_budget);
  {
    e_id = id;
    e_tenant = tenant;
    e_spec = spec;
    e_net = net;
    e_board = Obs.Board.attach ~pp_value net;
    e_journal = journal;
    e_dir = dir;
    e_snapshot_every = !durability.d_snapshot_every;
    e_owned = true;
    e_acked = 0;
    e_since_snapshot = 0;
    e_tracer = None;
  }

let create ?(tenant = "anon")
    ?(step_budget = Admission.default_config.Admission.ac_step_budget) ~id
    ~spec () =
  if not (valid_id id) then
    Error "bad network id (want [A-Za-z0-9_-]{1,64})"
  else if find ~id <> None then Error ("network exists: " ^ id)
  else
    match build_spec ~id spec with
    | exception Spec_error (lineno, msg) ->
      Error (Printf.sprintf "spec line %d: %s" lineno msg)
    | net, inits -> (
      let dir = !durability.d_dir in
      let journal =
        Option.map
          (fun dir ->
            fst (Journal.open_append ~fsync:!durability.d_fsync
                   (jnl_path dir id)))
          dir
      in
      let e = make_entry ~id ~tenant ~spec ~net ~journal ~dir ~step_budget in
      (* initial values are ordinary application sets: through the
         episode machinery, journaled like any other write *)
      let init_err =
        List.find_map
          (fun (path, value) ->
            match apply_set e ~path ~value ~just:Types.Application with
            | Ok () -> None
            | Error err ->
              Some (Printf.sprintf "initial set %s: %s" path
                      (set_error_message err)))
          inits
      in
      match init_err with
      | Some msg ->
        release e;
        Error msg
      | None -> (
        (* a durable net is recoverable from its very first moment:
           write the spec-only snapshot before anyone can crash us *)
        match (match dir with Some _ -> snapshot e | None -> ()) with
        | () -> register e
        | exception (Journal.Failed msg | Snapshot_failed msg) ->
          release e;
          Error ("not durable: " ^ msg)))

(* Adopt an externally-owned network (the shell session's): write API
   only, no durability, observability stays owned by the caller. *)
let adopt ?(tenant = "anon") ~id ~net ~board () =
  if not (valid_id id) then
    Error "bad network id (want [A-Za-z0-9_-]{1,64})"
  else
    register
      {
        e_id = id;
        e_tenant = tenant;
        e_spec = "";
        e_net = net;
        e_board = board;
        e_journal = None;
        e_dir = None;
        e_snapshot_every = 0;
        e_owned = false;
        e_acked = 0;
        e_since_snapshot = 0;
        e_tracer = None;
      }

(* Final snapshot, flush, close; the on-disk files stay (drop+load
   round-trips).  Adopted entries are just released. *)
let drop ~id =
  match
    with_registry (fun () ->
        match Hashtbl.find_opt registry id with
        | Some { host = Some e; _ } ->
          withdraw_locked id;
          Some e
        | _ -> None)
  with
  | None -> false
  | Some e ->
    (* released even when the final snapshot raises [Snapshot_failed]
       or its journal reset [Journal.Failed], which then reaches the
       caller *)
    Fun.protect
      ~finally:(fun () -> release e)
      (fun () ->
        with_episode_lock (fun () ->
            detach_tracer e;
            if e.e_owned then snapshot e));
    true

(* Graceful drain: flush every journal and write every final snapshot.
   Returns the ids drained, for the shutdown banner; a net whose journal
   fails its final sync is still released, but warned about on stderr
   and left out. *)
let close_all () =
  List.filter
    (fun id ->
      match drop ~id with
      | _ -> true
      | exception (Journal.Failed msg | Snapshot_failed msg) ->
        Printf.eprintf "stem: network %s not drained: %s\n%!" id msg;
        false)
    (List.map (fun e -> e.e_id) (list ()))

(* ---------------- recovery ---------------- *)

type recovery = {
  rc_entry : entry;
  rc_snapshot_sets : int;
  rc_journal_replayed : int;
  rc_warnings : (string * int * string) list;
      (* (source, record/line number, message) *)
  rc_verified : bool;
  rc_divergences : Obs.Replay.divergence list;
}

(* Recovery: load snapshot -> rebuild from spec -> re-enter snapshot
   sets -> replay journal tail, tolerating a torn final record.  With
   [verify], a from-creation JSONL trace is captured across the whole
   rebuild and replayed through [Obs.Replay]; an empty [diff_live]
   against the recovered network proves the recovered state is exactly
   re-derivable from its own episode stream. *)
let recover ?(verify = false) ~dir ~id () =
  let spath = snap_path dir id in
  if not (valid_id id) then Error "bad network id"
  else if find ~id <> None then Error ("network already hosted: " ^ id)
  else if not (Sys.file_exists spath) then
    Error ("no snapshot for network " ^ id ^ " in " ^ dir)
  else begin
    let warnings = ref [] in
    let warn src n msg = warnings := (src, n, msg) :: !warnings in
    let lines, snap_warnings = Obs.Jsonl.load_file_lenient spath in
    List.iter (fun (n, msg) -> warn "snapshot" n msg) snap_warnings;
    match lines with
    | [] -> Error ("empty snapshot for network " ^ id)
    | (first_no, first) :: rest -> (
      match
        (Obs.Jsonl.str first "t", Obs.Jsonl.str first "spec",
         Obs.Jsonl.str first "tenant")
      with
      | Some "wal_spec", Some spec, tenant_opt -> (
        let tenant = Option.value tenant_opt ~default:"anon" in
        match build_spec ~id spec with
        | exception Spec_error (lineno, msg) ->
          Error
            (Printf.sprintf "snapshot line %d: spec line %d: %s" first_no
               lineno msg)
        | net, _inits ->
          (* inits are ignored here: the snapshot's wal_set lines
             already carry them (they were applied as application sets
             at creation) *)
          let trace_buf = Buffer.create 4096 in
          let trace_sink_name = "wstore.recovery-trace" in
          if verify then
            Engine.add_sink net
              (Obs.Jsonl.buffer_sink ~name:trace_sink_name ~pp_value trace_buf);
          (* read the journal BEFORE opening it for append: open_append
             truncates the torn tail, and the torn-record warning must
             reach the recovery report first *)
          let records, jwarnings = Journal.read (jnl_path dir id) in
          List.iter (fun (n, msg) -> warn "journal" n msg) jwarnings;
          let journal, _rescan_warnings =
            Journal.open_append ~fsync:!durability.d_fsync (jnl_path dir id)
          in
          let e =
            make_entry ~id ~tenant ~spec ~net ~journal:(Some journal)
              ~dir:(Some dir)
              ~step_budget:Admission.default_config.Admission.ac_step_budget
          in
          let replay src n fields =
            match Obs.Jsonl.str fields "t" with
            | Some "wal_set" -> (
              match decode_set fields with
              | Error msg -> warn src n msg
              | Ok (path, value, just) -> (
                let enter_set () = enter None net ~path ~value ~just in
                match with_episode_lock enter_set with
                | Ok () -> ()
                | Error err -> warn src n (set_error_message err)))
            | Some t -> warn src n ("unexpected record kind " ^ t)
            | None -> warn src n "record without t field"
          in
          List.iter (fun (n, fields) -> replay "snapshot" n fields) rest;
          List.iteri
            (fun i line ->
              match Obs.Jsonl.parse_line line with
              | Ok fields -> replay "journal" (i + 1) fields
              | Error msg -> warn "journal" (i + 1) msg)
            records;
          let divergences, verified =
            if verify then begin
              let r = Obs.Replay.of_string (Buffer.contents trace_buf) in
              Obs.Replay.to_end r;
              let d = Obs.Replay.diff_live r ~pp_value net in
              ignore (Engine.remove_sink net trace_sink_name);
              (d, true)
            end
            else ([], false)
          in
          (* the journal content is live again: checkpoint it into a
             fresh snapshot so the journal restarts empty *)
          match with_episode_lock (fun () -> snapshot e) with
          | exception (Journal.Failed msg | Snapshot_failed msg) ->
            release e;
            Error ("not durable: " ^ msg)
          | () ->
            Result.map
              (fun e ->
                {
                  rc_entry = e;
                  rc_snapshot_sets =
                    List.length
                      (List.filter
                         (fun (_, f) -> Obs.Jsonl.str f "t" = Some "wal_set")
                         rest);
                  rc_journal_replayed = List.length records;
                  rc_warnings = List.rev !warnings;
                  rc_verified = verified;
                  rc_divergences = divergences;
                })
              (register e))
      | _ ->
        Error
          (Printf.sprintf "snapshot line %d: expected a wal_spec record"
             first_no))
  end

(* Recover every network in a data directory (server startup).  Stray
   temp files from a save that died between write and rename are
   removed — the kill-mid-write leftover the snapshot discipline makes
   harmless. *)
let recover_dir ?(verify = false) dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then ([], [])
  else begin
    let cleaned = ref [] in
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".tmp" then begin
          (try Sys.remove (Filename.concat dir f) with Sys_error _ -> ());
          cleaned := ("removed stray temp file " ^ f) :: !cleaned
        end)
      (Sys.readdir dir);
    let ids =
      Sys.readdir dir |> Array.to_list
      |> List.filter_map (fun f ->
             if Filename.check_suffix f ".snap" then
               Some (Filename.chop_suffix f ".snap")
             else None)
      |> List.sort compare
    in
    let recoveries, errors =
      List.fold_left
        (fun (rs, es) id ->
          match recover ~verify ~dir ~id () with
          | Ok r -> (r :: rs, es)
          | Error msg -> (rs, (id ^ ": " ^ msg) :: es))
        ([], []) ids
    in
    (List.rev recoveries, List.rev !cleaned @ List.rev errors)
  end
