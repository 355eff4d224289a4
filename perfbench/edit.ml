(* The edit workloads: acknowledged writes (and provenance reads) over
   TCP against an in-process server, closed loop, one client thread. *)

open Constraint_kernel
module W = Serve.Wstore
module Http = Serve.Http

let check = Report.check

let fail = Report.fail

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path

(* ---------------- requests ---------------- *)

let id_of (w : Gen.workload) net =
  let id, _, _ = w.nets.(net) in
  id

let tenant_of (w : Gen.workload) net =
  let _, t, _ = w.nets.(net) in
  t

let path_of w = function
  | Gen.Set { net; _ } -> Printf.sprintf "/nets/%s/set" (id_of w net)
  | Gen.Why { net; var } -> Printf.sprintf "/nets/%s/why?var=%s" (id_of w net) var

let net_of = function Gen.Set { net; _ } | Gen.Why { net; _ } -> net

let body_of = function
  | Gen.Set { items; _ } -> Gen.set_body items
  | Gen.Why _ -> ""

let post ~port w net path body =
  Serve.Client.post ~timeout:30.0 ~port
    ~headers:[ ("x-tenant", tenant_of w net) ]
    ~body path

(* Does the response say what the generator predicted? *)
let response_ok req (rs : Serve.Client.response) =
  match req with
  | Gen.Set { items; expect; _ } ->
    let applied = if expect = 200 then List.length items else 0 in
    rs.rs_status = expect
    && contains rs.rs_body (Printf.sprintf "\"applied\":%d," applied)
    && contains rs.rs_body
         (Printf.sprintf "\"failed\":%d," (List.length items - applied))
  | Gen.Why _ -> rs.rs_status = 200 && contains rs.rs_body "\"chain\":[{"

(* Send one request; [Some latency_s] when the response was as
   predicted.  Either way the request counts as attempted. *)
let send o ~port w model req =
  let t0 = Report.now () in
  let r = post ~port w (net_of req) (path_of w req) (body_of req) in
  let dt = Report.now () -. t0 in
  o.Report.attempted <- o.Report.attempted + 1;
  match r with
  | Ok rs when response_ok req rs ->
    Gen.ack model req;
    Some dt
  | Ok rs ->
    fail o "%s -> %d %s" (path_of w req) rs.rs_status rs.rs_body;
    None
  | Error msg ->
    fail o "%s -> %s" (path_of w req) msg;
    None

(* ---------------- hosted state ---------------- *)

(* The [vars] rows of a [GET /nets/:id/state] body as (var, value). *)
let parse_state body =
  let key = "{\"var\":\"" in
  let n = String.length body and k = String.length key in
  let rec scan i acc =
    if i + k > n then List.rev acc
    else if String.sub body i k <> key then scan (i + 1) acc
    else
      let j = String.index_from body (i + k) '"' in
      let var = String.sub body (i + k) (j - i - k) in
      let vkey = ",\"value\":" in
      let v0 = j + 1 + String.length vkey in
      let value =
        if body.[v0] = '"' then
          let v1 = String.index_from body (v0 + 1) '"' in
          int_of_string_opt (String.sub body (v0 + 1) (v1 - v0 - 1))
        else None
      in
      scan v0 ((var, value) :: acc)
  in
  List.sort compare (scan 0 [])

let check_state o ~port w model net =
  let id = id_of w net in
  let expected =
    List.map (fun (k, v) -> (k, Some v)) (Gen.expected w model net)
  in
  match
    Serve.Client.get ~timeout:30.0 ~port
      (Printf.sprintf "/nets/%s/state?tenant=%s" id (tenant_of w net))
  with
  | Ok rs when rs.rs_status = 200 ->
    check o (parse_state rs.rs_body = expected) "final state of %s differs" id
  | Ok rs -> check o false "state of %s -> %d" id rs.rs_status
  | Error msg -> check o false "state of %s -> %s" id msg

(* ---------------- server rounds ---------------- *)

type round = {
  sv : Serve.t;
  port : int;
  dir : string;
  model : Gen.model;
}

(* Start a server, create every net over HTTP, run the warm-up part of
   the stream.  [chunk] > 0 prints minor words per request for each
   chunk of the warm-up (the allocation levelling check). *)
let setup o ~dir ~warm ~chunk ?(on_create = fun _ -> ()) (w : Gen.workload) =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  W.configure ~dir ~fsync:Serve.Journal.Never ();
  let sv = Serve.start ~port:0 ~workers:2 () in
  let port = Serve.port sv in
  Array.iteri
    (fun net (id, _, spec) ->
      let r = post ~port w net (Printf.sprintf "/nets?id=%s" id) spec in
      (match r with
      | Ok rs -> check o (rs.rs_status = 201) "create %s -> %d" id rs.rs_status
      | Error msg -> check o false "create %s -> %s" id msg);
      on_create id)
    w.nets;
  let model = Gen.model w in
  let per_chunk = ref [] in
  let mw = ref (Gc.minor_words ()) in
  for k = 0 to warm - 1 do
    ignore (send o ~port w model w.stream.(k));
    if chunk > 0 && (k + 1) mod chunk = 0 then begin
      let m = Gc.minor_words () in
      per_chunk := ((m -. !mw) /. float_of_int chunk) :: !per_chunk;
      mw := m
    end
  done;
  ({ sv; port; dir; model }, List.rev !per_chunk)

let teardown o r (w : Gen.workload) =
  Array.iteri
    (fun net (id, _, _) ->
      match post ~port:r.port w net (Printf.sprintf "/nets/%s/drop" id) "" with
      | Ok rs -> check o (rs.rs_status = 200) "drop %s -> %d" id rs.rs_status
      | Error msg -> check o false "drop %s -> %s" id msg)
    w.nets;
  Serve.stop r.sv;
  rm_rf r.dir;
  Gc.compact ()

(* After timing: drop every net (final snapshot, journal closed), then
   recover it with the replay differential check.  The recovered state
   must equal the last acknowledged one. *)
let durability o r (w : Gen.workload) =
  Serve.stop r.sv;
  Array.iter
    (fun (id, _, _) ->
      match W.find ~id with
      | None -> check o false "net %s missing before drop" id
      | Some e -> (
        let acked = W.state e in
        ignore (W.drop ~id);
        ignore (Serve.unexpose id);
        match W.recover ~verify:true ~dir:r.dir ~id () with
        | Error msg -> check o false "recover %s: %s" id msg
        | Ok rc ->
          check o
            (rc.W.rc_verified
            && rc.W.rc_divergences = []
            && W.state rc.W.rc_entry = acked)
            "recover %s: verified=%b divergences=%d same_state=%b" id
            rc.W.rc_verified
            (List.length rc.W.rc_divergences)
            (W.state rc.W.rc_entry = acked);
          ignore (W.drop ~id)))
    w.nets;
  rm_rf r.dir

(* ---------------- the timed phase ---------------- *)

type timed = {
  writes : Report.sample;  (** set-request latency, s *)
  reads : Report.sample;  (** why-request latency, s *)
  per_req : float array;  (** latency by stream index (0 = not timed) *)
  mutable ops : int;  (** acknowledged set items plus answered reads *)
}

let timed (w : Gen.workload) =
  {
    writes = Report.sample ();
    reads = Report.sample ();
    per_req = Array.make (Array.length w.stream) 0.0;
    ops = 0;
  }

(* Send stream request [k] and record its latency. *)
let send_timed o r (w : Gen.workload) t k =
  let req = w.stream.(k) in
  match send o ~port:r.port w r.model req with
  | None -> ()
  | Some dt -> (
    t.per_req.(k) <- dt;
    match req with
    | Gen.Set { items; expect; _ } ->
      Report.add t.writes dt;
      if expect = 200 then t.ops <- t.ops + List.length items
    | Gen.Why _ ->
      Report.add t.reads dt;
      t.ops <- t.ops + 1)

(* The timed requests, closed loop: each is sent when the previous one
   has been answered and not before its slot in an even spread over
   [seconds]. *)
let run_timed ~seconds o r (w : Gen.workload) ~from =
  let t = timed w in
  Gc.compact ();
  let t0 = Report.now () in
  let n = Array.length w.stream - from in
  for k = from to Array.length w.stream - 1 do
    Report.pace ~t0 ~seconds ~n (k - from);
    send_timed o r w t k
  done;
  t

let wakeups (w : Gen.workload) =
  Array.fold_left
    (fun acc (id, _, _) ->
      match W.find ~id with
      | Some e -> acc + (Engine.stats (W.net e)).Types.st_wakeups
      | None -> acc)
    0 w.nets

(* ---------------- direct calls over a socketpair ---------------- *)

(* The bytes [Serve.Client.post] sends for [req]. *)
let request_bytes w req =
  let body = body_of req in
  Printf.sprintf
    "POST %s HTTP/1.1\r\nhost: 127.0.0.1:0\r\nconnection: close\r\nuser-agent: stem-scrape\r\nx-tenant: %s\r\ncontent-length: %d\r\n\r\n%s"
    (path_of w req)
    (tenant_of w (net_of req))
    (String.length body) body

let read_exactly fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off < n then
      match Unix.read fd buf off (n - off) with
      | 0 -> ()
      | k -> go (off + k)
  in
  go 0

type parts = {
  parse : float array;  (** by stream index, s *)
  admit : float array;
  apply : float array;  (** summed over the request's items *)
  lookup : float array;
  episode : float array;
  alloc : Report.sample;  (** minor words per request *)
  journal : Report.sample;  (** apply - lookup - episode, per item *)
  snapshot : Report.sample;  (** the same, on items that snapshotted *)
  why : Report.sample;
  spans : Report.spans;
}

type direct = {
  d_dir : string;
  d_entries : W.entry array;
  d_eps : Episodes.t;
  d_adm : Serve.Admission.t;
  d_cli : Unix.file_descr;
  d_srv : Unix.file_descr;
  d_conn : Http.conn;
  parts : parts;
}

(* A second copy of the workload's nets, hosted without a server (ids
   suffixed [-d]), for feeding the stream through the public calls the
   server's handlers make. *)
let direct_open ~dir (w : Gen.workload) =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  W.configure ~dir ~fsync:Serve.Journal.Never ();
  let eps = Episodes.create () in
  let entries =
    Array.map
      (fun (id, tenant, spec) ->
        match W.create ~tenant ~id:(id ^ "-d") ~spec () with
        | Ok e ->
          Engine.add_sink (W.net e) (Episodes.sink eps);
          e
        | Error msg -> failwith ("create " ^ id ^ "-d: " ^ msg))
      w.nets
  in
  let cli, srv = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let len = Array.length w.stream in
  let z () = Array.make len 0.0 in
  {
    d_dir = dir;
    d_entries = entries;
    d_eps = eps;
    d_adm = Serve.Admission.create ();
    d_cli = cli;
    d_srv = srv;
    d_conn = Http.conn srv;
    parts =
      {
        parse = z ();
        admit = z ();
        apply = z ();
        lookup = z ();
        episode = z ();
        alloc = Report.sample ();
        journal = Report.sample ();
        snapshot = Report.sample ();
        why = Report.sample ();
        spans = Report.spans ();
      };
  }

let direct_close d =
  Unix.close d.d_cli;
  Unix.close d.d_srv;
  Array.iter (fun e -> ignore (W.drop ~id:(W.id e))) d.d_entries;
  rm_rf d.d_dir

(* Stream request [k], as the bytes [Serve.Client.post] sends, over a
   socketpair through [Http.read_request]/[read_body],
   [Admission.admit]/[finish], [Editor.find_var], [Wstore.apply_set] and
   [Obs.Provenance.why], each bracketed by a benchmark span.  Only
   [timed] requests are recorded. *)
let direct_request o d (w : Gen.workload) k ~timed =
  let p = d.parts and sp = d.parts.spans and eps = d.d_eps in
  let req = w.stream.(k) in
  let e = d.d_entries.(net_of req) in
  Http.write_all d.d_cli (request_bytes w req);
  let mw0 = Gc.minor_words () in
  let mark = sp.Report.len in
  let root = Report.opening sp ~name:"request" ~parent:0 in
  let t0 = Report.now () in
  let rq =
    match Http.read_request d.d_conn with
    | Ok rq -> (
      match Http.read_body d.d_conn rq with
      | Ok () -> rq
      | Error _ -> failwith "read_body")
    | Error _ -> failwith "read_request"
  in
  let t1 = Report.now () in
  ignore (Report.span sp ~name:"serve.http.parse" ~parent:root ~start:t0 ~stop:t1);
  p.parse.(k) <- t1 -. t0;
  let status =
    match req with
    | Gen.Set { expect; _ } -> (
      let tenant = Option.value (Http.header rq "x-tenant") ~default:"" in
      let a0 = Report.now () in
      let decision = Serve.Admission.admit d.d_adm ~tenant in
      let a1 = Report.now () in
      ignore (Report.span sp ~name:"serve.admission.admit" ~parent:root ~start:a0 ~stop:a1);
      match decision with
      | Serve.Admission.Admitted ticket ->
        let d0 = Report.now () in
        let items =
          List.filter_map
            (fun line ->
              match Obs.Jsonl.parse_line line with
              | Error _ -> None
              | Ok f -> (
                match
                  ( Obs.Jsonl.str f "var",
                    Option.bind (Obs.Jsonl.str f "value") W.value_of_token,
                    W.just_of_string
                      (Option.value (Obs.Jsonl.str f "just") ~default:"user") )
                with
                | Some path, Some value, Some just -> Some (path, value, just)
                | _ -> None))
            (List.filter
               (fun l -> String.trim l <> "")
               (String.split_on_char '\n' rq.Http.rq_body))
        in
        ignore
          (Report.span sp ~name:"serve.decode" ~parent:root ~start:d0
             ~stop:(Report.now ()));
        let failed = ref 0 in
        List.iter
          (fun (path, value, just) ->
            let l0 = Report.now () in
            ignore (Editor.find_var (W.net e) path);
            let l1 = Report.now () in
            eps.Episodes.last <- 0.0;
            let r = W.apply_set e ~path ~value ~just in
            let l2 = Report.now () in
            ignore (Report.span sp ~name:"serve.wstore.lookup" ~parent:root ~start:l0 ~stop:l1);
            let ap = Report.span sp ~name:"serve.wstore.apply" ~parent:root ~start:l1 ~stop:l2 in
            ignore
              (Report.span sp ~name:"core.episode" ~parent:ap ~start:l1
                 ~stop:(l1 +. eps.Episodes.last));
            if Result.is_error r then incr failed;
            p.lookup.(k) <- p.lookup.(k) +. (l1 -. l0);
            p.apply.(k) <- p.apply.(k) +. (l2 -. l1);
            p.episode.(k) <- p.episode.(k) +. eps.Episodes.last;
            if timed then begin
              let rest = (l2 -. l1) -. (l1 -. l0) -. eps.Episodes.last in
              let snapped =
                match W.journal e with
                | Some j -> Serve.Journal.size j = 0
                | None -> false
              in
              Report.add (if snapped then p.snapshot else p.journal) rest
            end)
          items;
        let f0 = Report.now () in
        Serve.Admission.finish d.d_adm ticket ~over_budget:false;
        let f1 = Report.now () in
        ignore (Report.span sp ~name:"serve.admission.finish" ~parent:root ~start:f0 ~stop:f1);
        p.admit.(k) <- (a1 -. a0) +. (f1 -. f0);
        let status = if !failed > 0 then 422 else 200 in
        check o (status = expect) "direct %s -> %d" (path_of w req) status;
        status
      | _ ->
        check o false "direct %s rejected by admission" (path_of w req);
        429)
    | Gen.Why { var; _ } ->
      let y0 = Report.now () in
      let chain = Obs.Provenance.why (W.prov e) var in
      let y1 = Report.now () in
      ignore (Report.span sp ~name:"obs.provenance.why" ~parent:root ~start:y0 ~stop:y1);
      if timed then Report.add p.why (y1 -. y0);
      check o (chain <> []) "direct why %s: empty chain" var;
      200
  in
  let resp = Http.response_string ~status ~body:"{}" () in
  let r0 = Report.now () in
  Http.write_all d.d_srv resp;
  ignore
    (Report.span sp ~name:"serve.http.respond" ~parent:root ~start:r0
       ~stop:(Report.now ()));
  Report.close sp root;
  if timed then Report.add p.alloc (Gc.minor_words () -. mw0)
  else sp.Report.len <- mark;
  read_exactly d.d_cli (String.length resp)

(* The same set stream on bare spec networks (no store, no sinks):
   minor words allocated inside [Engine.set] per inference step. *)
let kernel_alloc (w : Gen.workload) ~from =
  let nets =
    Array.map
      (fun (id, _, spec) ->
        let net, inits = W.build_spec ~id spec in
        List.iter
          (fun (path, value) ->
            match Editor.find_var net path with
            | Some v -> ignore (Engine.set ~just:Types.Application net v value)
            | None -> ())
          inits;
        let vars = Hashtbl.create 64 in
        List.iter (fun v -> Hashtbl.replace vars (Var.path v) v) net.Types.net_vars;
        (net, vars))
      w.nets
  in
  let words = Array.make 1 0.0 in
  let steps () =
    Array.fold_left
      (fun acc (net, _) -> acc + (Engine.stats net).Types.st_inferences)
      0 nets
  in
  let s0 = ref 0 in
  Array.iteri
    (fun k req ->
      if k = from then s0 := steps ();
      match req with
      | Gen.Set { net; items; _ } ->
        let net, vars = nets.(net) in
        List.iter
          (fun (path, v) ->
            let var = Hashtbl.find vars path in
            let value = Dval.Int v in
            let mw0 = Gc.minor_words () in
            ignore (Engine.set net var value);
            if k >= from then words.(0) <- words.(0) +. (Gc.minor_words () -. mw0))
          items
      | Gen.Why _ -> ())
    w.stream;
  let n = steps () - !s0 in
  if n = 0 then 0.0 else words.(0) /. float_of_int n
