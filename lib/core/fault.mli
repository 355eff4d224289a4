(** Deterministic fault injection for the propagation kernel.

    Wraps the inference or satisfaction procedure of a live constraint
    with a seeded failure plan — throw on chosen activations, report
    spurious violations, spin to model a slow tool interface, or fail
    pseudo-randomly — to exercise the engine's exception traps, episode
    rollback, quarantine and step-budget machinery. Same seed, same
    activation sequence, same faults: every run is reproducible. *)

open Types

(** The exception thrown by injected faults. *)
exception Injected of string

(** A failure plan. Activation ordinals are 1-based and count calls of
    the wrapped procedure. *)
type mode =
  | Throw_on of int list (** raise {!Injected} on these activations *)
  | Throw_every of int (** raise on every k-th activation *)
  | Flaky of float (** raise with this probability (seeded) *)
  | Spurious_on of int list
      (** propagate: report an [Error] violation; satisfied: answer
          [false] — without raising *)
  | Spin of int (** busy-spin this many iterations, then proceed *)

type site = Propagate | Satisfied

(** Handle on one wrapped constraint: counters plus the original
    procedures, for {!restore}. *)
type 'a injection

val pp_mode : Format.formatter -> mode -> unit

(** [wrap ~mode c] replaces [c]'s procedure at [site] (default
    [Propagate]) with a faulting wrapper. The per-constraint stream is
    seeded with [seed lxor Cstr.id c] so a network-wide sweep still
    gives each constraint an independent deterministic sequence. *)
val wrap : ?seed:int -> ?site:site -> mode:mode -> 'a cstr -> 'a injection

(** Put the original procedures back and zero the counters. *)
val restore : 'a injection -> unit

(** Calls of the wrapped procedure so far. *)
val activations : 'a injection -> int

(** Faults actually injected so far. *)
val fired : 'a injection -> int

(** Wrap every constraint of the network with an independently seeded
    [Flaky p] plan (the chaos-monkey configuration). *)
val chaos : ?seed:int -> p:float -> 'a network -> 'a injection list

(** [livelock net ~bump a b] installs a pair of constraints that bump
    each other's variable forever — a deliberate non-terminating
    propagation that only the episode step budget
    ({!Engine.set_step_budget}) can stop. Returns both constraints so
    the caller can remove them. *)
val livelock :
  'a network -> bump:('a -> 'a) -> 'a var -> 'a var -> 'a cstr * 'a cstr
