(** Waveform measurements (the SpicePlot point-to-point measurements of
    §6.4.2). *)

(** [propagation_delay ~input ~output ~threshold ()] — delay between the
    input's first crossing and the output's next crossing (either
    direction). *)
val propagation_delay :
  input:Sim.waveform -> output:Sim.waveform -> threshold:float -> unit -> float option

(** Final settled value (last sample). *)
val final_value : Sim.waveform -> float

(** ASCII rendering of a waveform (the SpicePlot display), [width]
    columns by [height] rows. *)
val ascii_plot : ?width:int -> ?height:int -> Sim.waveform -> string
