open Element

type stimulus = { stim_signal : string; stim_value : float -> float }

let dc v _ name = { stim_signal = name; stim_value = (fun _ -> v) }

let step ~at ~low ~high name =
  { stim_signal = name; stim_value = (fun t -> if t < at then low else high) }

type waveform = { wf_signal : string; wf_times : float array; wf_values : float array }

type result = {
  res_waveforms : waveform list;
  res_t_end : float;
  res_steps : int;
}

(* Fixed switch model: 1 kΩ on-resistance, off = open. *)
let r_on = 1.0

let transient (nl : Netlist.t) ~stimuli ~t_end ?(dt = 0.002) ?(sample = 10)
    ?(vdd = 5.0) () =
  let n = nl.Netlist.nl_node_count in
  let v = Array.make n 0.0 in
  v.(1) <- vdd;
  (* node capacitance: explicit caps plus a floor so every node has
     finite time constant *)
  let cap = Array.make n 0.01 in
  List.iter (fun (node, pf) -> cap.(node) <- cap.(node) +. pf) nl.Netlist.nl_caps;
  (* forced nodes: rails and stimulated inputs *)
  let forced = Array.make n None in
  forced.(0) <- Some (fun _ -> 0.0);
  forced.(1) <- Some (fun _ -> vdd);
  List.iter
    (fun stim ->
      match List.assoc_opt stim.stim_signal nl.Netlist.nl_io with
      | Some node -> forced.(node) <- Some stim.stim_value
      | None -> ())
    stimuli;
  let threshold = vdd /. 2.0 in
  (* conductive branches this step: (a, b, conductance in 1/kΩ) *)
  let branches_of_step () =
    List.filter_map
      (fun (_path, e, nodes) ->
        match e with
        | Res r -> Some (nodes.(0), nodes.(1), 1.0 /. r.r_kohm)
        | Mos m ->
          let gate_v = v.(nodes.(1)) in
          let on =
            match m.m_kind with
            | NMOS -> gate_v > threshold
            | PMOS -> gate_v < threshold
          in
          if on then Some (nodes.(0), nodes.(2), 1.0 /. r_on) else None
        | Cap _ -> None)
      nl.Netlist.nl_elements
  in
  let steps = int_of_float (Float.ceil (t_end /. dt)) in
  let sample_count = (steps / sample) + 1 in
  let times = Array.make sample_count 0.0 in
  let traces =
    List.map
      (fun (name, node) -> (name, node, Array.make sample_count 0.0))
      nl.Netlist.nl_io
  in
  let current = Array.make n 0.0 in
  let record k t =
    times.(k) <- t;
    List.iter (fun (_, node, arr) -> arr.(k) <- v.(node)) traces
  in
  let sample_idx = ref 0 in
  for s = 0 to steps do
    let t = float_of_int s *. dt in
    (* apply sources *)
    Array.iteri
      (fun i f -> match f with Some src -> v.(i) <- src t | None -> ())
      forced;
    if s mod sample = 0 && !sample_idx < sample_count then begin
      record !sample_idx t;
      incr sample_idx
    end;
    (* integrate one step *)
    Array.fill current 0 n 0.0;
    List.iter
      (fun (a, b, g) ->
        let i = g *. (v.(b) -. v.(a)) in
        current.(a) <- current.(a) +. i;
        current.(b) <- current.(b) -. i)
      (branches_of_step ());
    for i = 0 to n - 1 do
      if forced.(i) = None then v.(i) <- v.(i) +. (dt *. current.(i) /. cap.(i))
    done
  done;
  {
    res_waveforms =
      List.map
        (fun (name, _, arr) -> { wf_signal = name; wf_times = times; wf_values = arr })
        traces;
    res_t_end = t_end;
    res_steps = steps;
  }

let waveform res name =
  List.find_opt (fun wf -> wf.wf_signal = name) res.res_waveforms
