(* The benchmark's kernel sink: accumulates the [T_episode_end] phase
   timings of every episode on the networks it is attached to, plus the
   minor words allocated between the outermost [T_episode_start] and
   its [T_episode_end]. *)

open Constraint_kernel

type t = {
  mutable n : int;
  mutable rolled_back : int;
  mutable steps : int;
  ph : float array;  (** propagate, drain, check, restore (s) *)
  mutable last : float;  (** total of the latest episode (s) *)
  mutable depth : int;
  words : float array;  (** minor words at the outermost start; total *)
}

let create () =
  {
    n = 0;
    rolled_back = 0;
    steps = 0;
    ph = Array.make 4 0.0;
    last = 0.0;
    depth = 0;
    words = Array.make 2 0.0;
  }

let reset e =
  e.n <- 0;
  e.rolled_back <- 0;
  e.steps <- 0;
  Array.fill e.ph 0 4 0.0;
  e.words.(1) <- 0.0

let sink e : _ Types.sink =
  {
    Types.snk_name = "perfbench";
    snk_emit =
      (fun _ _ ev ->
        match ev with
        | Types.T_episode_start _ ->
          if e.depth = 0 then e.words.(0) <- Gc.minor_words ();
          e.depth <- e.depth + 1
        | Types.T_episode_end sp ->
          e.depth <- e.depth - 1;
          if e.depth = 0 then
            e.words.(1) <- e.words.(1) +. (Gc.minor_words () -. e.words.(0));
          let t = sp.Types.es_timings in
          e.n <- e.n + 1;
          if sp.Types.es_outcome = Types.E_rolled_back then
            e.rolled_back <- e.rolled_back + 1;
          e.steps <- e.steps + sp.Types.es_steps;
          e.ph.(0) <- e.ph.(0) +. t.Types.ph_propagate;
          e.ph.(1) <- e.ph.(1) +. t.Types.ph_drain;
          e.ph.(2) <- e.ph.(2) +. t.Types.ph_check;
          e.ph.(3) <- e.ph.(3) +. t.Types.ph_restore;
          e.last <- Types.span_total sp
        | _ -> ());
  }

let per_episode e x = if e.n = 0 then 0.0 else x /. float_of_int e.n

(* Mean phase time per episode in µs; restore is per rolled-back
   episode, the only ones that restore. *)
let phase_us e i =
  if i = 3 then
    if e.rolled_back = 0 then 0.0
    else e.ph.(3) /. float_of_int e.rolled_back *. 1e6
  else per_episode e e.ph.(i) *. 1e6

let steps_per_episode e = per_episode e (float_of_int e.steps)

let rollback_frac e = per_episode e (float_of_int e.rolled_back)

let words_per_step e =
  if e.steps = 0 then 0.0 else e.words.(1) /. float_of_int e.steps
