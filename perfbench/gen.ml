(* Seeded inputs for the edit workloads: spec-DSL text, the request
   stream, and the benchmark's own evaluation of what the hosted
   networks must hold afterwards.  The program under test only ever
   sees the spec text and the request bodies. *)

type req =
  | Set of {
      net : int;
      items : (string * int) list;
      expect : int;  (** HTTP status the generator predicts *)
    }
  | Why of { net : int; var : string }

type workload = {
  nets : (string * string * string) array;  (** (id, tenant, spec) *)
  inputs : (string * int) list array;
      (** per net: the externally entered values the spec declares *)
  eval : (string -> int) -> (string * int) list;
      (** [eval value_of_input] — every variable's expected value *)
  stream : req array;
}

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let set_body items =
  String.concat ""
    (List.map
       (fun (var, v) ->
         Printf.sprintf "{\"var\":\"%s\",\"value\":\"%d\",\"just\":\"user\"}\n"
           var v)
       items)

(* ---------------- edit_small ----------------

   A ripple-carry adder's delay network, [bits] bit slices: operand
   arrivals [a_i], [b_i] and the slice's carry and sum delays [dc_i],
   [ds_i] are entered; [m_i = max (a_i, b_i, c_{i-1})],
   [c_i = m_i + dc_i] and [s_i = m_i + ds_i] are derived.  28 variables
   at 4 bits, capped far above any value the generator can produce, so
   every write is acknowledged. *)

let small_bits = 4

let small_arrival_max = 40

let small_delay_max = 20

let small_cap = 1000

let small_inputs =
  Array.of_list
    (List.concat
       (List.init small_bits (fun i ->
            List.map
              (fun v -> Printf.sprintf "rc.%s%d" v i)
              [ "a"; "b"; "dc"; "ds" ])))

let small_value rng var =
  match var.[3] with
  | 'a' | 'b' -> Random.State.int rng (small_arrival_max + 1)
  | _ -> 1 + Random.State.int rng small_delay_max

let small_spec inputs =
  let b = Buffer.create 1024 in
  Buffer.add_string b "# ripple-carry adder delays\n";
  List.iter (fun (var, v) -> Printf.bprintf b "var %s = %d\n" var v) inputs;
  for i = 0 to small_bits - 1 do
    Printf.bprintf b "var rc.m%d\nvar rc.c%d\nvar rc.s%d\n" i i i
  done;
  for i = 0 to small_bits - 1 do
    Printf.bprintf b "max rc.m%d rc.a%d rc.b%d%s\n" i i i
      (if i = 0 then "" else Printf.sprintf " rc.c%d" (i - 1));
    Printf.bprintf b "sum rc.c%d rc.m%d rc.dc%d\n" i i i;
    Printf.bprintf b "sum rc.s%d rc.m%d rc.ds%d\n" i i i
  done;
  Printf.bprintf b "cap rc.c%d %d\n" (small_bits - 1) small_cap;
  Buffer.contents b

let small_eval value =
  let out = ref [] in
  let put k v = out := (k, v) :: !out in
  let c = ref 0 in
  for i = 0 to small_bits - 1 do
    let get v =
      let k = Printf.sprintf "rc.%s%d" v i in
      let x = value k in
      put k x;
      x
    in
    let a = get "a" and b = get "b" and dc = get "dc" and ds = get "ds" in
    let m = if i = 0 then max a b else max (max a b) !c in
    c := m + dc;
    put (Printf.sprintf "rc.m%d" i) m;
    put (Printf.sprintf "rc.c%d" i) !c;
    put (Printf.sprintf "rc.s%d" i) (m + ds)
  done;
  !out

let small_nets = 16

let small_batch = 16

(* One request in [small_why_every] is a provenance read. *)
let small_why_every = 8

let edit_small ~seed ~requests =
  let rng = Random.State.make [| seed; 0x5e7 |] in
  let inputs =
    Array.init small_nets (fun _ ->
        Array.to_list
          (Array.map (fun var -> (var, small_value rng var)) small_inputs))
  in
  let nets =
    Array.init small_nets (fun n ->
        ( Printf.sprintf "rc%02d" n,
          Printf.sprintf "tenant%02d" n,
          small_spec inputs.(n) ))
  in
  (* nets are visited in seeded rounds so each gets the same share; the
     read sits at a seeded slot of every block *)
  let order = Array.init small_nets Fun.id in
  let why_slot = ref 0 in
  let stream =
    Array.init requests (fun k ->
        if k mod small_nets = 0 then shuffle rng order;
        if k mod small_why_every = 0 then
          why_slot := Random.State.int rng small_why_every;
        let net = order.(k mod small_nets) in
        if k mod small_why_every = !why_slot then
          Why { net; var = Printf.sprintf "rc.c%d" (small_bits - 1) }
        else
          let items =
            List.init small_batch (fun _ ->
                let var =
                  small_inputs.(Random.State.int rng (Array.length small_inputs))
                in
                (var, small_value rng var))
          in
          Set { net; items; expect = 200 })
  in
  { nets; inputs; eval = small_eval; stream }

(* ---------------- edit_deep ----------------

   A MAX-of-SUMs delay grid in the shape of the UniAddition /
   UniMaximum networks of Fig. 7.12: [slices] bit slices of [stages]
   stages.  Stage 0 of slice s has arrival [d_s_0]; later stages take
   the later of their own slice's and the lower slice's previous
   arrival and add their own delay.  [crit] is the latest arrival out of
   the last stage, capped at the largest value any generated delay mix
   can reach.  Every path crosses one cell per stage, so [crit] is at
   least any stage-0 delay: a stage-0 write above the cap is a
   guaranteed violation. *)

let slices = 32

let stages = 32

let deep_d0_max = 60

let deep_d_max = 9

let deep_cap = deep_d0_max + ((stages - 1) * deep_d_max)

(* One write in [deep_violate_every] exceeds the cap (at a seeded slot
   of every block). *)
let deep_violate_every = 10

let dvar s k = Printf.sprintf "g.d_%d_%d" s k

let avar s k = Printf.sprintf "g.a_%d_%d" s k

let mvar s k = Printf.sprintf "g.m_%d_%d" s k

let deep_spec inputs =
  let b = Buffer.create (128 * 1024) in
  Buffer.add_string b "# max-of-sums delay grid\n";
  List.iter (fun (var, v) -> Printf.bprintf b "var %s = %d\n" var v) inputs;
  for s = 0 to slices - 1 do
    for k = 0 to stages - 1 do
      Printf.bprintf b "var %s\n" (avar s k);
      if s > 0 && k > 0 then Printf.bprintf b "var %s\n" (mvar s k)
    done
  done;
  Buffer.add_string b "var g.crit\n";
  for s = 0 to slices - 1 do
    for k = 0 to stages - 1 do
      if k = 0 then Printf.bprintf b "sum %s %s\n" (avar s k) (dvar s k)
      else if s = 0 then
        Printf.bprintf b "sum %s %s %s\n" (avar s k) (avar s (k - 1)) (dvar s k)
      else begin
        Printf.bprintf b "max %s %s %s\n" (mvar s k)
          (avar s (k - 1))
          (avar (s - 1) (k - 1));
        Printf.bprintf b "sum %s %s %s\n" (avar s k) (mvar s k) (dvar s k)
      end
    done
  done;
  Printf.bprintf b "max g.crit %s\n"
    (String.concat " " (List.init slices (fun s -> avar s (stages - 1))));
  Printf.bprintf b "cap g.crit %d\n" deep_cap;
  Buffer.contents b

let deep_eval value =
  let out = ref [] in
  let put k v = out := (k, v) :: !out in
  let a = Array.make_matrix slices stages 0 in
  for k = 0 to stages - 1 do
    for s = 0 to slices - 1 do
      let d = value (dvar s k) in
      put (dvar s k) d;
      let m =
        if k = 0 then 0
        else if s = 0 then a.(s).(k - 1)
        else begin
          let m = max a.(s).(k - 1) a.(s - 1).(k - 1) in
          put (mvar s k) m;
          m
        end
      in
      a.(s).(k) <- m + d;
      put (avar s k) a.(s).(k)
    done
  done;
  put "g.crit"
    (Array.fold_left (fun acc row -> max acc row.(stages - 1)) 0 a);
  !out

let edit_deep ~seed ~requests =
  let rng = Random.State.make [| seed; 0xdee9 |] in
  let inputs =
    List.concat
      (List.init slices (fun s ->
           List.init stages (fun k ->
               ( dvar s k,
                 if k = 0 then Random.State.int rng (deep_d0_max + 1)
                 else 1 + Random.State.int rng deep_d_max ))))
  in
  (* slices are visited in seeded rounds: a write's cone depends on its
     slice, so an unbalanced draw would change the work per request from
     seed to seed *)
  let order = Array.init slices Fun.id in
  let bad_slot = ref 0 in
  let stream =
    Array.init requests (fun k ->
        if k mod slices = 0 then shuffle rng order;
        if k mod deep_violate_every = 0 then
          bad_slot := Random.State.int rng deep_violate_every;
        let var = dvar order.(k mod slices) 0 in
        if k mod deep_violate_every = !bad_slot then
          Set
            {
              net = 0;
              items = [ (var, deep_cap + 1 + Random.State.int rng 100) ];
              expect = 422;
            }
        else
          Set
            {
              net = 0;
              items = [ (var, Random.State.int rng (deep_d0_max + 1)) ];
              expect = 200;
            })
  in
  {
    nets = [| ("grid", "deep", deep_spec inputs) |];
    inputs = [| inputs |];
    eval = deep_eval;
    stream;
  }

(* ---------------- the reference model ---------------- *)

(* Per net, the value of every entered variable after the acknowledged
   writes so far. *)
type model = (string, int) Hashtbl.t array

let model w =
  Array.map
    (fun inputs ->
      let h = Hashtbl.create 64 in
      List.iter (fun (k, v) -> Hashtbl.replace h k v) inputs;
      h)
    w.inputs

(* Fold an acknowledged request into the model. *)
let ack (m : model) = function
  | Set { net; items; expect = 200 } ->
    List.iter (fun (k, v) -> Hashtbl.replace m.(net) k v) items
  | Set _ | Why _ -> ()

let expected w (m : model) net =
  List.sort compare (w.eval (Hashtbl.find m.(net)))
