type reply =
  | Reply of { status : int; headers : (string * string) list; body : string }
  | Stream_reply of (Unix.file_descr -> Http.request -> unit)

type t = {
  mutable rt_routes : (string * string * (Http.request -> reply)) list;
      (* reverse registration order *)
}

let create () = { rt_routes = [] }

let add t ~meth ~path handler = t.rt_routes <- (meth, path, handler) :: t.rt_routes

let text ?(status = 200) ?(content_type = "text/plain; charset=utf-8") body =
  Reply { status; headers = [ ("content-type", content_type) ]; body }

let json ?(status = 200) ?(headers = []) body =
  Reply { status; headers = ("content-type", "application/json") :: headers; body }

let ndjson ?(status = 200) body =
  Reply { status; headers = [ ("content-type", "application/x-ndjson") ]; body }

(* Route paths may contain [:name] segments, each binding one path
   segment ([/nets/:id/state] matches [/nets/alu/state] with
   [("id", "alu")]).  Literal segments must match exactly; there is no
   wildcard tail.  Returns the bindings on a match. *)
let match_pattern pattern path =
  if not (String.contains pattern ':') then
    if pattern = path then Some [] else None
  else
    let psegs = String.split_on_char '/' pattern in
    let segs = String.split_on_char '/' path in
    if List.length psegs <> List.length segs then None
    else
      let rec go acc = function
        | [], [] -> Some (List.rev acc)
        | p :: ps, s :: ss ->
          if String.length p > 0 && p.[0] = ':' then
            go ((String.sub p 1 (String.length p - 1), s) :: acc) (ps, ss)
          else if p = s then go acc (ps, ss)
          else None
        | _ -> None
      in
      go [] (psegs, segs)

let dispatch t rq =
  let meth = rq.Http.rq_method and path = rq.Http.rq_path in
  let rec find meth = function
    | [] -> None
    | (m, p, h) :: rest -> (
      if m <> meth then find meth rest
      else
        match match_pattern p path with
        | Some params -> Some (p, params, h)
        | None -> find meth rest)
  in
  let routes = List.rev t.rt_routes in
  let hit =
    match find meth routes with
    | Some _ as hit -> hit
    | None ->
      (* HEAD is answered by the GET handler; the server suppresses the
         body at write time, keeping the computed content-length *)
      if meth = "HEAD" then find "GET" routes else None
  in
  match hit with
  | Some (pattern, params, h) ->
    rq.Http.rq_params <- params;
    rq.Http.rq_route <- pattern;
    h rq
  | None ->
    let allowed =
      List.filter_map
        (fun (m, p, _) ->
          if match_pattern p path <> None then Some m else None)
        routes
    in
    let allowed =
      if List.mem "GET" allowed then "HEAD" :: allowed else allowed
    in
    if allowed = [] then
      text ~status:404 (Printf.sprintf "no such endpoint: %s\n" path)
    else
      Reply
        {
          status = 405;
          headers =
            [
              ("content-type", "text/plain; charset=utf-8");
              ("allow", String.concat ", " (List.sort_uniq compare allowed));
            ];
          body = Printf.sprintf "method %s not allowed for %s\n" meth path;
        }
