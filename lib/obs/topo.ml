(* Heat-annotated topology export: the constraint–variable graph as
   DOT/graphviz, plus structural statistics.

   The network is bipartite — variable nodes (ellipses) and constraint
   nodes (boxes) with an undirected edge per argument.  When a profiler
   is supplied, constraint nodes are filled on a white→red ramp by
   their kind's activation count (the board's profiler attributes
   activity per [c_kind], so all instances of a kind share one heat
   level — the per-kind resolution the profiler deliberately keeps to
   stay cheap); when a metrics registry is supplied, the graph label
   carries the episode-latency quantiles.  Quarantined constraints are
   drawn dashed grey with the reason, disabled ones dashed.

   The structural stats answer the editor's planning questions without
   rendering anything: fan-in/out distributions, the depth of the
   current derivation DAG (longest justification chain — acyclic by
   construction), and cycle participation in the *structural* graph
   (nodes surviving iterated leaf-peeling, i.e. the 2-core: exactly the
   nodes on some undirected cycle — what made Fig. 4.9's cyclic
   additions interesting). *)

open Constraint_kernel
open Constraint_kernel.Types

type stats = {
  tp_vars : int;
  tp_cstrs : int;
  tp_edges : int; (* sum of constraint arities *)
  tp_var_fan_max : int; (* most constraints on one variable *)
  tp_var_fan_mean : float;
  tp_cstr_arity_max : int;
  tp_cstr_arity_mean : float;
  tp_depth : int; (* longest derivation chain (justification DAG) *)
  tp_cyclic_vars : int; (* variables on some structural cycle *)
  tp_cyclic_cstrs : int;
  tp_quarantined : int;
  tp_disabled : int;
}

(* ---------------- structural analysis ---------------- *)

(* Longest justification chain: depth 0 for user/unset values, 1 + max
   over direct antecedents for propagated ones.  The derivation graph
   is acyclic by construction (a propagated value's antecedents were
   installed before it), so plain memoized recursion terminates. *)
let derivation_depth vars =
  let memo = Hashtbl.create 64 in
  let rec depth v =
    match Hashtbl.find_opt memo v.v_id with
    | Some d -> d
    | None ->
      Hashtbl.add memo v.v_id 0;
      (* cycle guard: a (never-expected) cycle reads as depth 0 *)
      let d =
        match Dependency.direct_antecedents v with
        | [] -> 0
        | ants -> 1 + List.fold_left (fun m a -> max m (depth a)) 0 ants
      in
      Hashtbl.replace memo v.v_id d;
      d
  in
  List.fold_left (fun m v -> max m (depth v)) 0 vars

(* The 2-core of the bipartite structural graph: iteratively peel
   degree-<=1 nodes; whatever survives lies on an undirected cycle. *)
let two_core vars cstrs =
  let vdeg = Hashtbl.create 64 and cdeg = Hashtbl.create 64 in
  let vadj = Hashtbl.create 64 in
  (* var id -> cstr ids *)
  List.iter (fun v -> Hashtbl.replace vdeg v.v_id 0) vars;
  List.iter
    (fun c ->
      Hashtbl.replace cdeg c.c_id (List.length c.c_args);
      List.iter
        (fun v ->
          Hashtbl.replace vdeg v.v_id
            (1 + Option.value ~default:0 (Hashtbl.find_opt vdeg v.v_id));
          Hashtbl.replace vadj v.v_id
            (c.c_id
            :: Option.value ~default:[] (Hashtbl.find_opt vadj v.v_id)))
        c.c_args)
    cstrs;
  let cargs = Hashtbl.create 64 in
  List.iter
    (fun c -> Hashtbl.replace cargs c.c_id (List.map (fun v -> v.v_id) c.c_args))
    cstrs;
  let queue = Queue.create () in
  let push_if_leaf tbl tag id =
    match Hashtbl.find_opt tbl id with
    | Some d when d <= 1 ->
      Hashtbl.remove tbl id;
      Queue.push (tag, id) queue
    | _ -> ()
  in
  List.iter (fun v -> push_if_leaf vdeg `V v.v_id) vars;
  List.iter (fun c -> push_if_leaf cdeg `C c.c_id) cstrs;
  while not (Queue.is_empty queue) do
    match Queue.pop queue with
    | `V, vid ->
      List.iter
        (fun cid ->
          match Hashtbl.find_opt cdeg cid with
          | Some d ->
            if d - 1 <= 1 then begin
              Hashtbl.remove cdeg cid;
              Queue.push (`C, cid) queue
            end
            else Hashtbl.replace cdeg cid (d - 1)
          | None -> ())
        (Option.value ~default:[] (Hashtbl.find_opt vadj vid))
    | `C, cid ->
      List.iter
        (fun vid ->
          match Hashtbl.find_opt vdeg vid with
          | Some d ->
            if d - 1 <= 1 then begin
              Hashtbl.remove vdeg vid;
              Queue.push (`V, vid) queue
            end
            else Hashtbl.replace vdeg vid (d - 1)
          | None -> ())
        (Option.value ~default:[] (Hashtbl.find_opt cargs cid))
  done;
  (Hashtbl.length vdeg, Hashtbl.length cdeg)

let stats net =
  let vars = List.rev net.net_vars and cstrs = List.rev net.net_cstrs in
  let nv = List.length vars and nc = List.length cstrs in
  let arities = List.map (fun c -> List.length c.c_args) cstrs in
  let edges = List.fold_left ( + ) 0 arities in
  let fans = List.map (fun v -> List.length v.v_cstrs) vars in
  let maxl = List.fold_left max 0 in
  let meanl xs n =
    if n = 0 then 0. else float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int n
  in
  let cyc_v, cyc_c = two_core vars cstrs in
  {
    tp_vars = nv;
    tp_cstrs = nc;
    tp_edges = edges;
    tp_var_fan_max = maxl fans;
    tp_var_fan_mean = meanl fans nv;
    tp_cstr_arity_max = maxl arities;
    tp_cstr_arity_mean = meanl arities nc;
    tp_depth = derivation_depth vars;
    tp_cyclic_vars = cyc_v;
    tp_cyclic_cstrs = cyc_c;
    tp_quarantined =
      List.length (List.filter (fun c -> c.c_quarantined <> None) cstrs);
    tp_disabled = List.length (List.filter (fun c -> not c.c_enabled) cstrs);
  }

(* ---------------- DOT export ---------------- *)

(* User-supplied cell/constraint names end up inside quoted DOT
   strings: quotes and backslashes are escaped, newlines become the \n
   label escape ('\r' is DOT's right-justified line break, so it gets
   its own escape), and any other non-printable control byte renders as
   a literal "\xNN" placeholder (double backslash: DOT passes the
   unknown escape through) instead of corrupting the output stream. *)
let dot_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 || Char.code c = 0x7f ->
        Buffer.add_string buf (Printf.sprintf "\\x%02x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* 9-level white→red heat ramp (graphviz "reds9" colour scheme). *)
let heat_level ~max_acts acts =
  if max_acts <= 0 || acts <= 0 then 0
  else 1 + int_of_float (8.0 *. float_of_int acts /. float_of_int max_acts)

let to_dot ?profiler ?metrics ?(values = true) ?(max_nodes = 500) net =
  let vars = List.rev net.net_vars and cstrs = List.rev net.net_cstrs in
  let heat =
    match profiler with
    | None -> fun _ -> (0, 0)
    | Some p ->
      let by_kind = Hashtbl.create 16 in
      List.iter
        (fun e -> Hashtbl.replace by_kind e.Profiler.e_kind e.Profiler.e_activations)
        (Profiler.entries p);
      let max_acts = Hashtbl.fold (fun _ a m -> max a m) by_kind 0 in
      fun kind ->
        let acts = Option.value ~default:0 (Hashtbl.find_opt by_kind kind) in
        (acts, heat_level ~max_acts acts)
  in
  let latency_note =
    match metrics with
    | None -> ""
    | Some m -> (
      match Metrics.find m "episode.latency_us" with
      | Some (Metrics.Histogram h) when Metrics.samples h > 0 ->
        Printf.sprintf "\\nepisode latency µs: p50=%.1f p95=%.1f p99=%.1f"
          (Metrics.quantile h 0.5) (Metrics.quantile h 0.95)
          (Metrics.quantile h 0.99)
      | _ -> "")
  in
  let s = stats net in
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "graph stem {\n";
  pf "  graph [label=\"net '%s' — %d vars, %d constraints, depth %d, %d cyclic%s\", labelloc=\"b\", fontname=\"Helvetica\"];\n"
    (dot_escape net.net_name) s.tp_vars s.tp_cstrs s.tp_depth
    (s.tp_cyclic_vars + s.tp_cyclic_cstrs)
    latency_note (* already DOT-safe: fixed text + numbers + \n escapes *);
  pf "  node [fontname=\"Helvetica\", fontsize=10];\n";
  let budget = ref max_nodes in
  let elided = ref 0 in
  List.iter
    (fun v ->
      if !budget > 0 then begin
        decr budget;
        let label =
          if values then
            match v.v_value with
            | Some x ->
              Printf.sprintf "%s\\n= %s"
                (dot_escape (Var.path v))
                (dot_escape (Fmt.str "%a" v.v_pp x))
            | None -> Printf.sprintf "%s\\n= NIL" (dot_escape (Var.path v))
          else dot_escape (Var.path v)
        in
        pf "  \"v%d\" [shape=ellipse, label=\"%s\"];\n" v.v_id label
      end
      else incr elided)
    vars;
  List.iter
    (fun c ->
      if !budget > 0 then begin
        decr budget;
        let acts, level = heat c.c_kind in
        let fill =
          if level > 0 then
            Printf.sprintf ", style=filled, fillcolor=\"/reds9/%d\"%s" level
              (if level >= 6 then ", fontcolor=white" else "")
          else ""
        in
        let extra =
          match c.c_quarantined with
          | Some reason ->
            Printf.sprintf "\\nQUARANTINED: %s" (dot_escape reason)
          | None -> if c.c_enabled then "" else "\\n(disabled)"
        in
        let style =
          if c.c_quarantined <> None || not c.c_enabled then
            ", style=dashed, color=gray40"
          else ""
        in
        let heat_note = if acts > 0 then Printf.sprintf "\\nact=%d" acts else "" in
        pf "  \"c%d\" [shape=box, label=\"%s%s%s\"%s%s];\n" c.c_id
          (dot_escape c.c_source_label) heat_note extra fill style
      end
      else incr elided)
    cstrs;
  (* edges only between rendered nodes *)
  let rendered_v = Hashtbl.create 64 and rendered_c = Hashtbl.create 64 in
  let vb = ref max_nodes in
  List.iter
    (fun v -> if !vb > 0 then (decr vb; Hashtbl.replace rendered_v v.v_id ()))
    vars;
  List.iter
    (fun c -> if !vb > 0 then (decr vb; Hashtbl.replace rendered_c c.c_id ()))
    cstrs;
  List.iter
    (fun c ->
      if Hashtbl.mem rendered_c c.c_id then
        List.iter
          (fun v ->
            if Hashtbl.mem rendered_v v.v_id then
              pf "  \"c%d\" -- \"v%d\";\n" c.c_id v.v_id)
          c.c_args)
    cstrs;
  if !elided > 0 then
    pf "  \"elided\" [shape=plaintext, label=\"… %d node(s) elided\"];\n" !elided;
  pf "}\n";
  Buffer.contents buf
