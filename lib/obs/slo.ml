(* Multi-window burn-rate evaluation over Tsdb series.  Each evaluation
   records its one "burn_rate" verdict in the SLO's watchdog, which
   keeps the firing state and the transition log. *)

type kind =
  | Error_ratio of { total : string; errors : string }
  | Latency_above of { series : string; limit : float }

type objective = {
  ob_name : string;
  ob_kind : kind;
  ob_target : float;
  ob_windows : (float * float) list;
}

let default_windows = [ (60., 2.0); (300., 1.0) ]

let availability ?(target = 0.99) ?(windows = default_windows) ~name ~total
    ~errors () =
  {
    ob_name = name;
    ob_kind = Error_ratio { total; errors };
    ob_target = target;
    ob_windows = windows;
  }

let latency ?(target = 0.99) ?(windows = default_windows) ~name ~series ~limit
    () =
  {
    ob_name = name;
    ob_kind = Latency_above { series; limit };
    ob_target = target;
    ob_windows = windows;
  }

type t = { sl_ob : objective; sl_ts : Tsdb.t; sl_wd : Watchdog.t }

let create ts ob =
  let wd = Watchdog.create ~name:("slo:" ^ ob.ob_name) [] in
  { sl_ob = ob; sl_ts = ts; sl_wd = wd }

let objective t = t.sl_ob

let watchdog t = t.sl_wd

(* Counters only move forward, so the window delta is last - first of
   the samples inside it; a window with fewer than two samples has no
   delta at all. *)
let counter_delta pts =
  match pts with
  | [] | [ _ ] -> None
  | (_, first) :: rest ->
    let _, last = List.nth rest (List.length rest - 1) in
    Some (max 0. (last -. first))

(* [None] when the window holds no data to judge by; a window whose
   total did not move had no bad events, so its fraction is 0. *)
let bad_fraction t ~from_ ~to_ =
  match t.sl_ob.ob_kind with
  | Error_ratio { total; errors } -> (
    match counter_delta (Tsdb.query t.sl_ts ~series:total ~from_ ~to_) with
    | None -> None
    | Some d_total when d_total <= 0. -> Some 0.
    | Some d_total ->
      let d_err =
        Option.value ~default:0.
          (counter_delta (Tsdb.query t.sl_ts ~series:errors ~from_ ~to_))
      in
      Some (min 1. (d_err /. d_total)))
  | Latency_above { series; limit } -> (
    match Tsdb.query t.sl_ts ~series ~from_ ~to_ with
    | [] -> None
    | pts ->
      let bad = List.length (List.filter (fun (_, v) -> v > limit) pts) in
      Some (float_of_int bad /. float_of_int (List.length pts)))

(* [now] is quantized the way [Tsdb.append] quantizes timestamps, so a
   sample appended at [now] is inside the window ending at [now]. *)
let burn_rates t ~now =
  let now = Tsdb.quantize now in
  let budget = max 1e-9 (1. -. t.sl_ob.ob_target) in
  List.map
    (fun (w, thr) ->
      let bad = bad_fraction t ~from_:(now -. w) ~to_:now in
      (w, thr, Option.map (fun b -> b /. budget) bad))
    t.sl_ob.ob_windows

let pp_burns burns =
  String.concat ", "
    (List.map
       (fun (w, thr, b) ->
         match b with
         | Some b -> Printf.sprintf "%.1fx/%gs (thr %g)" b w thr
         | None -> Printf.sprintf "no data/%gs (thr %g)" w thr)
       burns)

let evaluate t ~now =
  let burns = burn_rates t ~now in
  let exceeded =
    burns <> []
    && List.for_all
         (fun (_, thr, b) -> match b with Some b -> b >= thr | None -> false)
         burns
  in
  let verdict =
    if exceeded then
      Some
        (Printf.sprintf "budget burn %s (target %g)" (pp_burns burns)
           t.sl_ob.ob_target)
    else None
  in
  (* the n-th evaluation (from 1) stamps its alerts the way a window's
     index stamps a board's *)
  ignore
    (Watchdog.record t.sl_wd
       ~index:(Watchdog.evaluations t.sl_wd + 1)
       [ ("burn_rate", verdict) ])

let firing t = not (Watchdog.ok t.sl_wd)
