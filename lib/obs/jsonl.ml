(* The JSON writer of lib/obs, lib/serve and the CLI; JSONL trace
   export on top of it (one flat object per trace event); and a small
   parser for flat objects of scalars — trace lines, journal records,
   set lines.  Hand-rolled: the project takes no JSON library
   dependency, and these shapes are all it needs. *)

open Constraint_kernel.Types

(* ---------------- encoding ---------------- *)

let needs_escape s =
  let n = String.length s in
  let rec go i =
    i < n
    && (match String.unsafe_get s i with
       | '"' | '\\' -> true
       | c when Char.code c < 0x20 -> true
       | _ -> go (i + 1))
  in
  go 0

let add_escaped buf s =
  if not (needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

let escape s =
  if not (needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    add_escaped buf s;
    Buffer.contents buf
  end

(* ---------------- the writer ----------------

   Every JSON document the library serves or stores is written here:
   one string escape, one number format and one float rule.  Finite
   floats print in the shortest of %.15g/%.17g that reads back to the
   same value; JSON has no non-finite numbers, so those print as the
   strings "nan", "inf" and "-inf". *)

type json =
  | J_str of string
  | J_int of int
  | J_float of float
  | J_bool of bool
  | J_null
  | J_arr of json list
  | J_obj of (string * json) list

let add_str buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

let add_float buf v =
  if Float.is_finite v then begin
    let s = Printf.sprintf "%.15g" v in
    Buffer.add_string buf
      (if float_of_string s = v then s else Printf.sprintf "%.17g" v)
  end
  else if Float.is_nan v then Buffer.add_string buf "\"nan\""
  else Buffer.add_string buf (if v > 0. then "\"inf\"" else "\"-inf\"")

let framed buf op cl item xs =
  Buffer.add_char buf op;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      item x)
    xs;
  Buffer.add_char buf cl

let rec write buf = function
  | J_str s -> add_str buf s
  | J_int i -> Buffer.add_string buf (string_of_int i)
  | J_float f -> add_float buf f
  | J_bool b -> Buffer.add_string buf (if b then "true" else "false")
  | J_null -> Buffer.add_string buf "null"
  | J_arr vs -> framed buf '[' ']' (write buf) vs
  | J_obj kvs ->
    framed buf '{' '}'
      (fun (k, v) ->
        add_str buf k;
        Buffer.add_char buf ':';
        write buf v)
      kvs

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

let to_ndjson = function
  | J_arr xs ->
    let buf = Buffer.create 256 in
    List.iter
      (fun x ->
        write buf x;
        Buffer.add_char buf '\n')
      xs;
    Buffer.contents buf
  | v -> to_string v ^ "\n"

let opt f = function None -> J_null | Some x -> f x

let outcome_string = function
  | E_committed -> "committed"
  | E_rolled_back -> "rolled_back"
  | E_probe_ok -> "probe_ok"
  | E_probe_rejected -> "probe_rejected"

let outcome_of_string = function
  | "committed" -> Some E_committed
  | "rolled_back" -> Some E_rolled_back
  | "probe_ok" -> Some E_probe_ok
  | "probe_rejected" -> Some E_probe_rejected
  | _ -> None

(* Schema v2 adds: a "v" version field on every line; "just" and "deps"
   (semicolon-joined antecedent paths, captured at emit time) on assign
   lines; "pnet"/"pep"/"cause" parent-correlation fields on
   episode_start lines; an optional "net" field naming the emitting
   network (written by the telemetry server's /events stream, where
   several networks share one connection); and the "alert" record kind
   (watchdog firing/cleared transitions — see [Watchdog.alert_json]),
   which replay treats like any other non-value-moving event. v1 lines
   simply lack those fields, so the parser below reads both. *)
let schema_version = 2

let just_string = function
  | Default -> "default"
  | User -> "user"
  | Application -> "application"
  | Update -> "update"
  | Tentative -> "tentative"
  | Propagated _ -> "propagated"

(* [some k f x]: the field [(k, f v)] when [x = Some v], else none. *)
let some k f = function None -> [] | Some x -> [ (k, f x) ]

let text s = J_str s

let event_fields ~pp_value ev =
  let var v = J_str (Constraint_kernel.Var.path v) in
  let cstr c = J_str (c.c_kind ^ "#" ^ string_of_int c.c_id) in
  match ev with
  | T_assign (v, x, src) ->
    (* v_just is already updated when the engine traces the assignment,
       so the antecedent set read here is exact even if the variable is
       overwritten later in the episode. *)
    let deps =
      match Constraint_kernel.Dependency.direct_antecedents v with
      | [] -> None
      | ds -> Some (String.concat ";" (List.map Constraint_kernel.Var.path ds))
    in
    ( "assign",
      [
        ("var", var v);
        ("value", J_str (pp_value x));
        ("src", J_str src);
        ("just", J_str (just_string v.v_just));
      ]
      @ some "deps" text deps )
  | T_reset (v, reason) -> ("reset", [ ("var", var v); ("why", J_str reason) ])
  | T_activate (c, by) -> ("activate", ("cstr", cstr c) :: some "by" var by)
  | T_schedule (c, prio) ->
    ("schedule", [ ("cstr", cstr c); ("prio", J_int prio) ])
  | T_check (c, ok) -> ("check", [ ("cstr", cstr c); ("ok", J_bool ok) ])
  | T_violation viol ->
    ( "violation",
      (("msg", J_str viol.viol_message) :: some "kind" text viol.viol_cstr_kind)
      @ some "var" text viol.viol_var_path
      @ some "exn" text viol.viol_exn )
  | T_restore v -> ("restore", [ ("var", var v) ])
  | T_quarantine (c, reason) ->
    ("quarantine", [ ("cstr", cstr c); ("reason", J_str reason) ])
  | T_episode_start (id, label, parent) ->
    ( "episode_start",
      [ ("id", J_int id); ("label", J_str label) ]
      @
      match parent with
      | None -> []
      | Some p ->
        [ ("pnet", J_str p.pr_net); ("pep", J_int p.pr_episode) ]
        @ some "cause" text p.pr_cause )
  | T_episode_end sp ->
    let us x = J_float (x *. 1e6) in
    ( "episode_end",
      [
        ("id", J_int sp.es_id);
        ("label", J_str sp.es_label);
        ("outcome", J_str (outcome_string sp.es_outcome));
        ("us", us (span_total sp));
        ("prop_us", us sp.es_timings.ph_propagate);
        ("drain_us", us sp.es_timings.ph_drain);
        ("check_us", us sp.es_timings.ph_check);
        ("restore_us", us sp.es_timings.ph_restore);
        ("steps", J_int sp.es_steps);
        ("agenda", J_int sp.es_agenda_hwm);
      ] )

let write_event ?net ~pp_value buf ep seq ev =
  let t, fields = event_fields ~pp_value ev in
  write buf
    (J_obj
       ([ ("seq", J_int seq); ("ep", J_int ep); ("v", J_int schema_version) ]
       @ some "net" text net
       @ (("t", J_str t) :: fields)))

let default_pp_value _ = "<opaque>"

let json_of_event ?net ?(pp_value = default_pp_value) te =
  let buf = Buffer.create 128 in
  write_event ?net ~pp_value buf te.te_episode te.te_seq te.te_event;
  Buffer.contents buf

(* ---------------- sinks ---------------- *)

let channel_sink ?(name = "jsonl") ?(pp_value = default_pp_value) oc =
  let scratch = Buffer.create 256 in
  let emit ep seq ev =
    Buffer.clear scratch;
    write_event ~pp_value scratch ep seq ev;
    Buffer.add_char scratch '\n';
    Buffer.output_buffer oc scratch
  in
  { snk_name = name; snk_emit = emit }

let buffer_sink ?(name = "jsonl") ?(pp_value = default_pp_value) buf =
  let emit ep seq ev =
    write_event ~pp_value buf ep seq ev;
    Buffer.add_char buf '\n'
  in
  { snk_name = name; snk_emit = emit }

(* ---------------- parsing ---------------- *)

(* Minimal parser for the flat objects we emit: {"k":scalar,...}. *)
let parse_line line =
  let n = String.length line in
  let pos = ref 0 in
  let error msg = Error (Printf.sprintf "%s at %d in %S" msg !pos line) in
  let skip_ws () =
    while !pos < n && (match line.[!pos] with ' ' | '\t' -> true | _ -> false)
    do incr pos done
  in
  let expect c =
    skip_ws ();
    if !pos < n && line.[!pos] = c then (incr pos; true) else false
  in
  let parse_string () =
    (* caller consumed the opening quote *)
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then Error "unterminated string"
      else
        match line.[!pos] with
        | '"' -> incr pos; Ok (Buffer.contents buf)
        | '\\' ->
          if !pos + 1 >= n then Error "dangling escape"
          else begin
            (match line.[!pos + 1] with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
              if !pos + 5 < n then begin
                let hex = String.sub line (!pos + 2) 4 in
                (match int_of_string_opt ("0x" ^ hex) with
                | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
                | _ -> Buffer.add_string buf ("\\u" ^ hex));
                pos := !pos + 4
              end
            | c -> Buffer.add_char buf c);
            pos := !pos + 2;
            go ()
          end
        | c -> Buffer.add_char buf c; incr pos; go ()
    in
    go ()
  in
  let parse_scalar () =
    skip_ws ();
    if !pos >= n then error "unexpected end"
    else if line.[!pos] = '"' then begin
      incr pos;
      match parse_string () with Ok s -> Ok (J_str s) | Error e -> Error e
    end
    else begin
      let start = !pos in
      while
        !pos < n
        && (match line.[!pos] with
           | ',' | '}' | ' ' | '\t' -> false
           | _ -> true)
      do incr pos done;
      let tok = String.sub line start (!pos - start) in
      match tok with
      | "true" -> Ok (J_bool true)
      | "false" -> Ok (J_bool false)
      | "null" -> Ok J_null
      | _ -> (
        match int_of_string_opt tok with
        | Some i -> Ok (J_int i)
        | None -> (
          match float_of_string_opt tok with
          | Some f -> Ok (J_float f)
          | None -> error (Printf.sprintf "bad scalar %S" tok)))
    end
  in
  if not (expect '{') then error "expected '{'"
  else begin
    let rec fields acc =
      skip_ws ();
      if expect '}' then Ok (List.rev acc)
      else if not (expect '"') then error "expected key"
      else
        match parse_string () with
        | Error e -> Error e
        | Ok key ->
          if not (expect ':') then error "expected ':'"
          else (
            match parse_scalar () with
            | Error e -> Error e
            | Ok v ->
              let acc = (key, v) :: acc in
              skip_ws ();
              if expect ',' then fields acc
              else if expect '}' then Ok (List.rev acc)
              else error "expected ',' or '}'")
    in
    fields []
  end

let str fields k =
  match List.assoc_opt k fields with Some (J_str s) -> Some s | _ -> None

let int fields k =
  match List.assoc_opt k fields with
  | Some (J_int i) -> Some i
  | Some (J_float f) -> Some (int_of_float f)
  | _ -> None

let float fields k =
  match List.assoc_opt k fields with
  | Some (J_float f) -> Some f
  | Some (J_int i) -> Some (float_of_int i)
  | _ -> None

let parse_lines s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map parse_line

let load_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line ->
          if String.trim line = "" then go acc
          else go (parse_line line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* ---------------- lenient loading ----------------

   A trace file written by a crashing process routinely ends in a
   truncated line, and hand-edited traces accumulate garbage; the
   lenient loaders keep every parseable line and report the rest as
   (line number, message) warnings instead of failing the whole load.
   Line numbers are 1-based and count blank lines, so they match what
   an editor shows. *)

let version fields = match int fields "v" with Some v -> v | None -> 1

let lenient_fold feed =
  let oks = ref [] and warns = ref [] in
  let line_no = ref 0 in
  feed (fun line ->
      incr line_no;
      if String.trim line <> "" then
        match parse_line line with
        | Ok fields -> oks := (!line_no, fields) :: !oks
        | Error e -> warns := (!line_no, e) :: !warns
        | exception exn -> warns := (!line_no, Printexc.to_string exn) :: !warns);
  (List.rev !oks, List.rev !warns)

let parse_lines_lenient s =
  lenient_fold (fun f -> List.iter f (String.split_on_char '\n' s))

let load_file_lenient path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      lenient_fold (fun f ->
          let rec go () =
            match input_line ic with
            | line -> f line; go ()
            | exception End_of_file -> ()
          in
          go ()))
