(** Switch-level RC transient simulation (the paper's background SPICE
    run, §6.4.2, replaced by an internal engine).

    MOS transistors are voltage-controlled switches with a fixed
    on-resistance; node voltages integrate explicitly through the
    resulting conductance network. Inputs are ideal sources described by
    piecewise-constant stimuli. Deterministic: same deck, same result. *)

type stimulus = { stim_signal : string; stim_value : float -> float (* V at t(ns) *) }

(** Piecewise helpers. *)

val dc : float -> float -> string -> stimulus
(** [dc v _ name] — constant level. (Second argument ignored; kept for
    symmetry with [step].) *)

val step : at:float -> low:float -> high:float -> string -> stimulus

type waveform = { wf_signal : string; wf_times : float array; wf_values : float array }

type result = {
  res_waveforms : waveform list; (* one per io signal *)
  res_t_end : float;
  res_steps : int;
}

(** [transient netlist ~stimuli ~t_end ()] — simulate for [t_end] ns.
    [dt] defaults to 0.002 ns; waveforms are sampled every [sample] steps
    (default 10). [vdd] defaults to 5 V. *)
val transient :
  Netlist.t -> stimuli:stimulus list -> t_end:float -> ?dt:float -> ?sample:int ->
  ?vdd:float -> unit -> result

val waveform : result -> string -> waveform option
