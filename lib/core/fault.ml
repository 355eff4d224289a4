(* Deterministic fault injection for the propagation kernel.

   The harness wraps the inference ([c_propagate]) or satisfaction
   ([c_satisfied]) procedure of a live constraint with a failure plan:
   throw on chosen activations, report spurious violations, spin to
   model a slow tool interface, or fail pseudo-randomly from a seeded
   generator.  Everything is deterministic — the same seed and the same
   activation sequence produce the same faults — so the recovery tests
   and the chaos benchmarks are reproducible.  [restore] puts the
   original procedures back. *)

open Types

exception Injected of string

(* ------------------------------------------------------------------ *)
(* Seeded PRNG (splitmix64) — self-contained so injection never        *)
(* perturbs the global [Random] state of the host program.             *)
(* ------------------------------------------------------------------ *)

type rng = { mutable rng_state : int64 }

let rng seed = { rng_state = Int64.of_int seed }

let next_int64 r =
  let open Int64 in
  let s = add r.rng_state 0x9E3779B97F4A7C15L in
  r.rng_state <- s;
  let z = mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* uniform in [0, 1) from the top 53 bits *)
let next_unit r =
  Int64.to_float (Int64.shift_right_logical (next_int64 r) 11) /. 9007199254740992.

(* ------------------------------------------------------------------ *)
(* Failure plans                                                       *)
(* ------------------------------------------------------------------ *)

type mode =
  | Throw_on of int list (* raise [Injected] on these activations (1-based) *)
  | Throw_every of int (* raise on every k-th activation *)
  | Flaky of float (* raise with this probability, from the seed *)
  | Spurious_on of int list (* report a spurious violation on these *)
  | Spin of int (* busy-spin before running (a slow tool interface) *)

type site = Propagate | Satisfied

type 'a injection = {
  inj_cstr : 'a cstr;
  inj_mode : mode;
  inj_site : site;
  inj_rng : rng;
  mutable inj_activations : int; (* wrapped-procedure calls so far *)
  mutable inj_fired : int; (* faults actually injected *)
  inj_orig_propagate :
    'a ctx -> 'a cstr -> 'a var option -> (unit, 'a violation) result;
  inj_orig_satisfied : 'a cstr -> bool;
}

let pp_mode ppf = function
  | Throw_on l ->
    Fmt.pf ppf "throw on {%a}" (Fmt.list ~sep:Fmt.comma Fmt.int) l
  | Throw_every k -> Fmt.pf ppf "throw every %d" k
  | Flaky p -> Fmt.pf ppf "flaky p=%g" p
  | Spurious_on l ->
    Fmt.pf ppf "spurious on {%a}" (Fmt.list ~sep:Fmt.comma Fmt.int) l
  | Spin n -> Fmt.pf ppf "spin %d" n

let spin n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := (!acc * 7) + i
  done;
  ignore (Sys.opaque_identity !acc)

(* Decide, advance the counters, and perform throwing faults; returns
   [Some viol] for a spurious violation, [None] to proceed normally. *)
let fire inj =
  inj.inj_activations <- inj.inj_activations + 1;
  let n = inj.inj_activations in
  let c = inj.inj_cstr in
  let hit =
    match inj.inj_mode with
    | Throw_on l | Spurious_on l -> List.mem n l
    | Throw_every k -> k > 0 && n mod k = 0
    | Flaky p -> next_unit inj.inj_rng < p
    | Spin _ -> true
  in
  if not hit then None
  else begin
    inj.inj_fired <- inj.inj_fired + 1;
    match inj.inj_mode with
    | Spin cost ->
      spin cost;
      None
    | Spurious_on _ ->
      Some
        (violation ~cstr:c
           (Printf.sprintf "injected spurious violation (activation %d)" n))
    | Throw_on _ | Throw_every _ | Flaky _ ->
      raise
        (Injected
           (Printf.sprintf "injected fault in %s#%d (activation %d)" c.c_kind
              c.c_id n))
  end

let activations inj = inj.inj_activations

let fired inj = inj.inj_fired

(* ------------------------------------------------------------------ *)
(* Wrapping                                                            *)
(* ------------------------------------------------------------------ *)

let wrap ?(seed = 0x5eed) ?(site = Propagate) ~mode c =
  let inj =
    {
      inj_cstr = c;
      inj_mode = mode;
      inj_site = site;
      inj_rng = rng (seed lxor c.c_id);
      inj_activations = 0;
      inj_fired = 0;
      inj_orig_propagate = c.c_propagate;
      inj_orig_satisfied = c.c_satisfied;
    }
  in
  (match site with
  | Propagate ->
    c.c_propagate <-
      (fun ctx c' changed ->
        match fire inj with
        | Some viol -> Error viol
        | None -> inj.inj_orig_propagate ctx c' changed)
  | Satisfied ->
    c.c_satisfied <-
      (fun c' ->
        match fire inj with
        | Some _ -> false (* a spurious "unsatisfied" verdict *)
        | None -> inj.inj_orig_satisfied c'));
  inj

let restore inj =
  (match inj.inj_site with
  | Propagate -> inj.inj_cstr.c_propagate <- inj.inj_orig_propagate
  | Satisfied -> inj.inj_cstr.c_satisfied <- inj.inj_orig_satisfied);
  inj.inj_activations <- 0;
  inj.inj_fired <- 0

(* Wrap every constraint of the network with an independently seeded
   [Flaky] plan — the chaos-monkey configuration for soak tests. *)
let chaos ?(seed = 0x5eed) ~p net =
  List.map (fun c -> wrap ~seed ~mode:(Flaky p) c) (List.rev net.net_cstrs)

(* ------------------------------------------------------------------ *)
(* Step-budget exhaustion                                              *)
(* ------------------------------------------------------------------ *)

(* Install a deliberate livelock between two variables: each write to
   one bumps the other through [bump], so propagation never reaches a
   fixpoint on its own.  With [net_max_changes] left at its generous
   default, the episode terminates only through the step budget — the
   workload the budget exists for.  Returns the two constraints so the
   caller can remove or quarantine them. *)
let livelock net ~bump a b =
  let mk from_ to_ =
    let propagate ctx c changed =
      match changed with
      | Some v when v.v_id = from_.v_id -> (
        match from_.v_value with
        | None -> Ok ()
        | Some x ->
          Engine.set_by_constraint ctx to_ (bump x) ~source:c
            ~record:(Single_var from_))
      | _ -> Ok ()
    in
    let c =
      Cstr.make net ~kind:"livelock" ~propagate ~satisfied:(fun _ -> true)
        [ from_; to_ ]
    in
    Var.attach from_ c;
    Var.attach to_ c;
    (* attached directly (no reinitialising episode wanted here), so the
       watch index must be built by hand too *)
    Cstr.rewatch c;
    c
  in
  (mk a b, mk b a)
