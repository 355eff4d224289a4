(* Sample summaries, the human-readable report (stderr) and the one-line
   JSON result (last line of stdout). *)

let now = Unix.gettimeofday

(* A growable float sample. *)
type sample = { mutable xs : float array; mutable n : int }

let sample () = { xs = Array.make 1024 0.0; n = 0 }

let add s x =
  if s.n = Array.length s.xs then begin
    let bigger = Array.make (2 * s.n) 0.0 in
    Array.blit s.xs 0 bigger 0 s.n;
    s.xs <- bigger
  end;
  s.xs.(s.n) <- x;
  s.n <- s.n + 1

let count s = s.n

let sorted s =
  let a = Array.sub s.xs 0 s.n in
  Array.sort compare a;
  a

(* Nearest-rank percentile; 0 on an empty sample. *)
let percentile s p =
  if s.n = 0 then 0.0
  else
    let a = sorted s in
    let i = int_of_float (ceil (p /. 100.0 *. float_of_int s.n)) - 1 in
    a.(max 0 (min (s.n - 1) i))

let median s = percentile s 50.0

let total s =
  let t = ref 0.0 in
  for i = 0 to s.n - 1 do
    t := !t +. s.xs.(i)
  done;
  !t

let mean s = if s.n = 0 then 0.0 else total s /. float_of_int s.n

(* Operation [j] of [n] spread evenly over [seconds] from [t0] starts no
   earlier than its slot. *)
let pace ~t0 ~seconds ~n j =
  let due = t0 +. (float_of_int seconds *. float_of_int j /. float_of_int n) in
  let wait = due -. now () in
  if wait > 0.0 then Unix.sleepf wait

let median_of l =
  let s = sample () in
  List.iter (add s) l;
  median s

(* ---------------- process figures ---------------- *)

(* A [VmHWM]-style line of /proc/self/status, in MB. *)
let proc_status_mb key =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        let k = String.length key in
        if String.length line > k && String.sub line 0 k = key then
          Scanf.sscanf
            (String.sub line (k + 1) (String.length line - k - 1))
            " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

let rss_peak_mb () = proc_status_mb "VmHWM"

(* ---------------- output ---------------- *)

let note fmt = Printf.eprintf (fmt ^^ "\n%!")

(* Operations attempted and failed in a run: every output check counts
   as one attempted operation. *)
type outcome = { mutable attempted : int; mutable failed : int }

let outcome () = { attempted = 0; failed = 0 }

let fail o fmt =
  o.failed <- o.failed + 1;
  Printf.ksprintf (fun s -> note "FAILED: %s" s) fmt

let check o ok fmt =
  o.attempted <- o.attempted + 1;
  if ok then Printf.ikfprintf ignore () fmt else fail o fmt

(* The set-up rounds' times, in the order they ran. *)
let setups times =
  note "  set-up rounds: %s s"
    (String.concat " " (List.map (Printf.sprintf "%.3f") times))

(* One line of the human report: name, value, unit, sample count. *)
let line ~name ~unit ?n value =
  match n with
  | Some n -> note "  %-34s %14.3f %-6s (n=%d)" name value unit n
  | None -> note "  %-34s %14.3f %-6s" name value unit

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.m_name
             (json_float m.m_value) m.m_unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* ---------------- spans ----------------

   Benchmark-side spans around calls into the layers: name, start, end
   and parent, kept in memory and written out once at exit. *)

type spans = {
  mutable names : string array;
  mutable parents : int array;
  mutable starts : float array;
  mutable stops : float array;
  mutable len : int;
}

let spans () =
  {
    names = Array.make 4096 "";
    parents = Array.make 4096 0;
    starts = Array.make 4096 0.0;
    stops = Array.make 4096 0.0;
    len = 0;
  }

let grow sp =
  let n = 2 * Array.length sp.names in
  let g a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 sp.len;
    b
  in
  sp.names <- g sp.names "";
  sp.parents <- g sp.parents 0;
  sp.starts <- g sp.starts 0.0;
  sp.stops <- g sp.stops 0.0

(* Record a finished span; returns its id (ids start at 1, parent 0 is
   the root). *)
let span sp ~name ~parent ~start ~stop =
  if sp.len = Array.length sp.names then grow sp;
  let i = sp.len in
  sp.names.(i) <- name;
  sp.parents.(i) <- parent;
  sp.starts.(i) <- start;
  sp.stops.(i) <- stop;
  sp.len <- i + 1;
  i + 1

(* Open a span whose end is filled in later by [close]. *)
let opening sp ~name ~parent = span sp ~name ~parent ~start:(now ()) ~stop:0.0

let close sp id = sp.stops.(id - 1) <- now ()

let write_spans sp path =
  let oc = open_out path in
  output_string oc "id\tparent\tname\tstart_us\tdur_us\n";
  let t0 = if sp.len > 0 then sp.starts.(0) else 0.0 in
  for i = 0 to sp.len - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%.3f\t%.3f\n" (i + 1) sp.parents.(i)
      sp.names.(i)
      ((sp.starts.(i) -. t0) *. 1e6)
      ((sp.stops.(i) -. sp.starts.(i)) *. 1e6)
  done;
  close_out oc
