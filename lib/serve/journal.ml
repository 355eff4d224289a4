(* Crash-safe append-only record log: the write-ahead journal under
   the write-side service.  Each record is one length-prefixed,
   CRC-guarded frame holding a schema-v2 JSONL payload; the reader is
   deliberately forgiving about exactly the two corruptions a crash
   can produce — a torn final frame (the process died mid-append) and
   a bit-flipped payload (detected by the CRC) — and strict about
   everything else. *)

type fsync_policy = Always | Interval of float | Never

let pp_fsync ppf = function
  | Always -> Fmt.string ppf "always"
  | Never -> Fmt.string ppf "never"
  | Interval s -> Fmt.pf ppf "interval:%g" s

let fsync_of_string = function
  | "always" -> Some Always
  | "never" -> Some Never
  | s -> (
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "interval" -> (
      match
        float_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
      with
      | Some f when f > 0.0 -> Some (Interval f)
      | _ -> None)
    | _ -> None)

(* ---------------- framing ---------------- *)

(* The CRC-32 framing discipline lives in [Obs.Framing] (the
   time-series segment files share it, so they also share its crash
   semantics); the journal re-exports the pieces its callers use. *)

let crc32 = Obs.Framing.crc32

let frame = Obs.Framing.frame

(* Scan a raw journal image.  Returns the kept payloads (in order),
   [(record number, message)] warnings (1-based, counting frames as the
   reader meets them — the journal's "line numbers"), and the byte
   offset just past the last structurally whole frame (where appends
   may safely resume). *)
let scan data =
  let records, warnings, valid_end = Obs.Framing.scan data in
  (List.map snd records, warnings, valid_end)

let read_file = Obs.Framing.read_file

let read path =
  let records, warnings, _ = scan (read_file path) in
  (records, warnings)

(* ---------------- the appender ---------------- *)

exception Failed of string

(* A failed fsync poisons the journal: after it the kernel may have
   dropped the dirty pages, so no later sync can vouch for what was
   written before it.  [j_failure] holds the first failure's message,
   and every later append, flush and reset raises it again. *)
type t = {
  j_path : string;
  j_fsync : fsync_policy;
  j_mu : Mutex.t;
  mutable j_fd : Unix.file_descr option;
  mutable j_last_sync : float;
  mutable j_appended : int;
  mutable j_size : int;
  mutable j_failure : string option;
}

let with_lock j f =
  Mutex.lock j.j_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock j.j_mu) f

let path j = j.j_path

let fsync_policy j = j.j_fsync

let appended j = j.j_appended

let failure j = j.j_failure

let size j = with_lock j (fun () -> j.j_size)

let open_append ?(fsync = Always) path =
  (* Truncate away a torn tail before appending: a new record written
     after garbage bytes would be unreachable to the reader. *)
  let _, warnings, valid_end = scan (read_file path) in
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644
  in
  (try
     ignore (Unix.ftruncate fd valid_end);
     ignore (Unix.lseek fd valid_end Unix.SEEK_SET)
   with Unix.Unix_error _ -> ());
  ( {
      j_path = path;
      j_fsync = fsync;
      j_mu = Mutex.create ();
      j_fd = Some fd;
      j_last_sync = Unix.gettimeofday ();
      j_appended = 0;
      j_size = valid_end;
      j_failure = None;
    },
    warnings )

let write_all fd s =
  let n = String.length s in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0

let check_locked j = Option.iter (fun msg -> raise (Failed msg)) j.j_failure

(* Run one durability call; a Unix error poisons the journal. *)
let durably j what f =
  try f ()
  with Unix.Unix_error (err, _, _) ->
    let msg = Printf.sprintf "%s %s: %s" what j.j_path (Unix.error_message err) in
    j.j_failure <- Some msg;
    raise (Failed msg)

let sync_locked j fd =
  durably j "fsync" (fun () -> Unix.fsync fd);
  j.j_last_sync <- Unix.gettimeofday ()

let append ?trace j payload =
  (* The trace brackets are open-coded handle-free spans (no
     bracketing closures, no Fun.protect) to stay inside the E22
     overhead budget.  If the write or fsync raises, the span is
     simply never recorded — the trace then shows an in-flight
     request, which the exporter tolerates, and the exception carries
     the real story. *)
  with_lock j (fun () ->
      match j.j_fd with
      | None -> invalid_arg "Journal.append: closed journal"
      | Some fd ->
        check_locked j;
        let f = frame payload in
        (match trace with
        | None ->
          write_all fd f;
          j.j_size <- j.j_size + String.length f;
          j.j_appended <- j.j_appended + 1
        | Some (t, ctx) ->
          let t0 = Obs.Tracing.now t in
          write_all fd f;
          j.j_size <- j.j_size + String.length f;
          j.j_appended <- j.j_appended + 1;
          Obs.Tracing.span t ~parent:ctx ~name:"append" ~start:t0
            ~stop:(Obs.Tracing.now t) ~note:"");
        let sync_span () =
          match trace with
          | None -> sync_locked j fd
          | Some (t, ctx) ->
            let t0 = Obs.Tracing.now t in
            sync_locked j fd;
            Obs.Tracing.span t ~parent:ctx ~name:"fsync" ~start:t0
              ~stop:(Obs.Tracing.now t) ~note:""
        in
        (match j.j_fsync with
        | Always -> sync_span ()
        | Never -> ()
        | Interval s ->
          if Unix.gettimeofday () -. j.j_last_sync >= s then sync_span ()))

let flush j =
  with_lock j (fun () ->
      match j.j_fd with
      | None -> ()
      | Some fd ->
        check_locked j;
        sync_locked j fd)

(* Empty the journal after its content is folded into a snapshot.  The
   snapshot rename happens first (caller's job): a crash between the
   two only re-replays sets the snapshot already holds, which the
   commutative fixpoint makes idempotent. *)
let reset j =
  with_lock j (fun () ->
      match j.j_fd with
      | None -> ()
      | Some fd ->
        check_locked j;
        durably j "truncate" (fun () ->
            Unix.ftruncate fd 0;
            ignore (Unix.lseek fd 0 Unix.SEEK_SET));
        j.j_size <- 0;
        sync_locked j fd)

(* The release path: a final sync that fails is recorded in [failure]
   but not raised, so the handle is always given back. *)
let close j =
  with_lock j (fun () ->
      match j.j_fd with
      | None -> ()
      | Some fd ->
        (match (j.j_fsync, j.j_failure) with
        | Never, _ | _, Some _ -> ()
        | (Always | Interval _), None -> (
          try sync_locked j fd with Failed _ -> ()));
        (try Unix.close fd with Unix.Unix_error _ -> ());
        j.j_fd <- None)

(* Drop the handle without flushing or snapshotting — the test hook
   that stands in for [kill -9]: whatever reached the OS survives,
   nothing else does.  (Closing the fd matches those semantics: close
   never flushes the page cache.) *)
let abandon j =
  with_lock j (fun () ->
      match j.j_fd with
      | None -> ()
      | Some fd ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        j.j_fd <- None)
