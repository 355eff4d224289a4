open Constraint_kernel
open Design
module Point = Geometry.Point
module Rect = Geometry.Rect
module Transform = Geometry.Transform

exception Parse_error of int * string

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let orientation_name o = Fmt.str "%a" Transform.pp_orientation o

let orientation_of_name name =
  List.find_opt (fun o -> orientation_name o = name) Transform.all_orientations

let pp_pins ppf pins =
  Fmt.list ~sep:(Fmt.any ",")
    (fun ppf (p : Point.t) -> Fmt.pf ppf "%d:%d" p.Point.x p.Point.y)
    ppf pins

(* Records are space-separated, so only space-free tokens fit. *)
let value_token = function
  | Dval.Str _ | Dval.Rect _ ->
    invalid_arg "Persist: value kind not representable as a token"
  | v -> Dval.to_token v

let save_signal buf ss =
  Buffer.add_string buf
    (Printf.sprintf "signal %s %s" ss.ss_name (direction_name ss.ss_dir));
  (match Var.value ss.ss_data with
  | Some (Dval.Dtype n) ->
    Buffer.add_string buf (" data=" ^ Signal_types.Type_tree.name n)
  | _ -> ());
  (match Var.value ss.ss_elec with
  | Some (Dval.Etype n) ->
    Buffer.add_string buf (" elec=" ^ Signal_types.Type_tree.name n)
  | _ -> ());
  (match Var.value ss.ss_width with
  | Some (Dval.Int w) -> Buffer.add_string buf (Printf.sprintf " width=%d" w)
  | _ -> ());
  (match ss.ss_res with
  | Some r -> Buffer.add_string buf (Fmt.str " res=%h" r)
  | None -> ());
  (match ss.ss_cap with
  | Some c -> Buffer.add_string buf (Fmt.str " cap=%h" c)
  | None -> ());
  if ss.ss_pins <> [] then
    Buffer.add_string buf (Fmt.str " pins=%a" pp_pins ss.ss_pins);
  Buffer.add_char buf '\n'

let save_cell buf cls =
  Buffer.add_string buf (Printf.sprintf "cell %s" cls.cc_name);
  if cls.cc_generic then Buffer.add_string buf " generic=true";
  (match cls.cc_super with
  | Some s -> Buffer.add_string buf (" super=" ^ s.cc_name)
  | None -> ());
  Buffer.add_char buf '\n';
  if cls.cc_doc <> "" then
    Buffer.add_string buf (Printf.sprintf "doc %S\n" cls.cc_doc);
  List.iter (save_signal buf) cls.cc_signals;
  List.iter
    (fun ps ->
      Buffer.add_string buf (Printf.sprintf "param %s" ps.ps_name);
      (match Var.value ps.ps_range with
      | Some range -> Buffer.add_string buf (" range=" ^ value_token range)
      | None -> ());
      (match ps.ps_default with
      | Some d -> Buffer.add_string buf (" default=" ^ value_token d)
      | None -> ());
      Buffer.add_char buf '\n')
    cls.cc_params;
  (* designer-entered class bounding box only: computed ones replay *)
  (match (Var.value (Property.var cls.cc_bbox), Var.is_user_set (Property.var cls.cc_bbox)) with
  | Some (Dval.Rect r), true ->
    let ll = Rect.ll r in
    Buffer.add_string buf
      (Printf.sprintf "bbox %d %d %d %d\n" ll.Point.x ll.Point.y (Rect.width r)
         (Rect.height r))
  | _ -> ());
  List.iter
    (fun cd ->
      Buffer.add_string buf (Printf.sprintf "delay %s %s" cd.cd_from cd.cd_to);
      (match (Var.value cd.cd_var, Var.is_user_set cd.cd_var) with
      | Some v, true -> Buffer.add_string buf (" estimate=" ^ value_token v)
      | _ -> ());
      (match cd.cd_spec with
      | Some s -> Buffer.add_string buf (Fmt.str " spec=%h" s)
      | None -> ());
      Buffer.add_char buf '\n')
    cls.cc_delays;
  List.iter
    (fun inst ->
      let t = inst.inst_transform in
      Buffer.add_string buf
        (Printf.sprintf "subcell %s %s orient=%s at=%d:%d\n" inst.inst_name
           inst.inst_of.cc_name
           (orientation_name t.Transform.orient)
           t.Transform.offset.Point.x t.Transform.offset.Point.y))
    cls.cc_structure.st_subcells;
  List.iter
    (fun net ->
      Buffer.add_string buf (Printf.sprintf "net %s" net.en_name);
      List.iter
        (fun m ->
          Buffer.add_string buf
            (match m with
            | Own_pin s -> " self." ^ s
            | Sub_pin (i, s) -> Printf.sprintf " %s.%s" i.inst_name s))
        net.en_members;
      Buffer.add_char buf '\n')
    cls.cc_structure.st_nets;
  Buffer.add_string buf "end\n"

let save env =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "stemdb 1\n";
  List.iter (save_cell buf) (Env.cells env);
  Buffer.contents buf

(* Crash-safe write: render to a temp file in the target directory,
   then rename over the destination.  A crash mid-write leaves the
   previous file intact; the stray temp file is removed on any exit
   path.  [fsync] forces the bytes to disk before the rename, so the
   rename can never install a file whose content is still only in the
   page cache (the write-ahead snapshot layer in [Serve.Wstore] needs
   that ordering; the cell-library save keeps the cheaper default). *)
let write_atomic ?(fsync = false) path text =
  let tmp =
    Filename.temp_file ~temp_dir:(Filename.dirname path) ".stemdb" ".tmp"
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      Out_channel.with_open_bin tmp (fun oc ->
          Out_channel.output_string oc text;
          Out_channel.flush oc;
          if fsync then Unix.fsync (Unix.descr_of_out_channel oc));
      Sys.rename tmp path)

let save_to_file env path = write_atomic path (save env)

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

let split_fields line =
  String.split_on_char ' ' line |> List.filter (fun w -> w <> "")

(* key=value attributes after the positional fields *)
let attrs fields =
  List.filter_map
    (fun f ->
      match String.index_opt f '=' with
      | Some i ->
        Some (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1))
      | None -> None)
    fields

let parse_float lineno what s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> raise (Parse_error (lineno, Printf.sprintf "bad %s %S" what s))

let parse_int lineno what s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> raise (Parse_error (lineno, Printf.sprintf "bad %s %S" what s))

let parse_pins lineno s =
  String.split_on_char ',' s
  |> List.map (fun pair ->
         match String.split_on_char ':' pair with
         | [ x; y ] -> Point.make (parse_int lineno "pin x" x) (parse_int lineno "pin y" y)
         | _ -> raise (Parse_error (lineno, "bad pin " ^ pair)))

let parse_value lineno s =
  (* value tokens use LO..HI for ranges (no brackets) *)
  match Dval.of_string s with
  | Some v -> v
  | None -> raise (Parse_error (lineno, "bad value " ^ s))

let parse_direction lineno = function
  | "input" -> Input
  | "output" -> Output
  | "inout" -> Inout
  | d -> raise (Parse_error (lineno, "bad direction " ^ d))

let load text =
  let env = Env.create ~name:"loaded" () in
  let violations = ref [] in
  let note = function Ok () -> () | Error v -> violations := v :: !violations in
  let current : cell_class option ref = ref None in
  let need_cell lineno =
    match !current with
    | Some c -> c
    | None -> raise (Parse_error (lineno, "directive outside a cell block"))
  in
  let find_class lineno name =
    match Env.find_cell env name with
    | Some c -> c
    | None -> raise (Parse_error (lineno, "unknown cell " ^ name))
  in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      try
        let line = String.trim line in
        if line = "" || line.[0] = '#' then ()
        else
          let fields = split_fields line in
          let a = attrs fields in
          match fields with
        | "stemdb" :: _ -> ()
        | [ "end" ] -> current := None
        | "cell" :: name :: _ ->
          let super =
            Option.map (find_class lineno) (List.assoc_opt "super" a)
          in
          let generic = List.assoc_opt "generic" a = Some "true" in
          current := Some (Cell.create env ~name ?super ~generic ())
        | "doc" :: _ ->
          let cls = need_cell lineno in
          (try Scanf.sscanf line "doc %S" (fun d -> cls.cc_doc <- d)
           with Scanf.Scan_failure _ | End_of_file ->
             raise (Parse_error (lineno, "bad doc line")))
        | "signal" :: name :: dir :: _ ->
          let cls = need_cell lineno in
          let dir = parse_direction lineno dir in
          let get k = List.assoc_opt k a in
          let data =
            Option.map
              (fun n ->
                match Signal_types.Type_tree.find_opt
                        Signal_types.Standard.data_hierarchy n with
                | Some node -> node
                | None -> raise (Parse_error (lineno, "unknown data type " ^ n)))
              (get "data")
          in
          let elec =
            Option.map
              (fun n ->
                match Signal_types.Type_tree.find_opt
                        Signal_types.Standard.electrical_hierarchy n with
                | Some node -> node
                | None -> raise (Parse_error (lineno, "unknown electrical type " ^ n)))
              (get "elec")
          in
          let width = Option.map (parse_int lineno "width") (get "width") in
          let res = Option.map (parse_float lineno "res") (get "res") in
          let cap = Option.map (parse_float lineno "cap") (get "cap") in
          let pins = Option.map (parse_pins lineno) (get "pins") in
          (* signals may re-declare inherited ones: skip those *)
          if find_signal_opt cls name = None then
            ignore (Cell.add_signal env cls ~name ~dir ?data ?elec ?width ?res ?cap ?pins ())
        | "param" :: name :: _ ->
          let cls = need_cell lineno in
          if find_param_opt cls name = None then begin
            let range =
              match List.assoc_opt "range" a with
              | Some r -> parse_value lineno r
              | None -> raise (Parse_error (lineno, "param without range"))
            in
            let default = Option.map (parse_value lineno) (List.assoc_opt "default" a) in
            ignore (Cell.add_param env cls ~name ~range ?default ())
          end
        | [ "bbox"; x; y; w; h ] ->
          let cls = need_cell lineno in
          note
            (Cell.set_class_bbox env cls
               (Rect.make
                  (Point.make (parse_int lineno "x" x) (parse_int lineno "y" y))
                  ~width:(parse_int lineno "w" w)
                  ~height:(parse_int lineno "h" h)))
        | "delay" :: from_ :: to_ :: _ ->
          let cls = need_cell lineno in
          let estimate =
            Option.map
              (fun s ->
                match parse_value lineno s with
                | Dval.Float f -> f
                | Dval.Int i -> float_of_int i
                | _ -> raise (Parse_error (lineno, "bad estimate")))
              (List.assoc_opt "estimate" a)
          in
          let spec = Option.map (parse_float lineno "spec") (List.assoc_opt "spec" a) in
          ignore (Cell.declare_delay env cls ~from_ ~to_ ?estimate ?spec ())
        | "subcell" :: name :: of_name :: _ ->
          let cls = need_cell lineno in
          let of_ = find_class lineno of_name in
          let orient =
            match List.assoc_opt "orient" a with
            | None -> Transform.R0
            | Some o -> (
              match orientation_of_name o with
              | Some o -> o
              | None -> raise (Parse_error (lineno, "bad orientation " ^ o)))
          in
          let offset =
            match List.assoc_opt "at" a with
            | None -> Point.origin
            | Some s -> (
              match String.split_on_char ':' s with
              | [ x; y ] ->
                Point.make (parse_int lineno "at x" x) (parse_int lineno "at y" y)
              | _ -> raise (Parse_error (lineno, "bad placement " ^ s)))
          in
          ignore
            (Cell.instantiate env ~parent:cls ~of_ ~name
               ~transform:(Transform.make ~orient offset)
               ())
        | "net" :: name :: members ->
          let cls = need_cell lineno in
          let net = Cell.add_net env cls ~name in
          List.iter
            (fun m ->
              match String.index_opt m '.' with
              | None -> raise (Parse_error (lineno, "bad member " ^ m))
              | Some i ->
                let owner = String.sub m 0 i
                and signal = String.sub m (i + 1) (String.length m - i - 1) in
                let member =
                  if owner = "self" then Own_pin signal
                  else
                    match
                      List.find_opt
                        (fun inst -> inst.inst_name = owner)
                        cls.cc_structure.st_subcells
                    with
                    | Some inst -> Sub_pin (inst, signal)
                    | None ->
                      raise (Parse_error (lineno, "unknown subcell " ^ owner))
                in
                note (Enet.connect env net member))
            members
          | directive :: _ ->
            raise (Parse_error (lineno, "unknown directive " ^ directive))
          | [] -> ()
      with
      | Parse_error _ as e -> raise e
      | e ->
        (* any stray exception from a directive handler still reports
           the offending line *)
        raise
          (Parse_error
             (lineno, "error applying directive: " ^ Printexc.to_string e)))
    lines;
  (env, List.rev !violations)

let load_from_file path =
  load (In_channel.with_open_text path In_channel.input_all)
