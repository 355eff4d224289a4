open Constraint_kernel
open Design

let make env ~owner ~name ?recalc () =
  let pr_var = Dclib.variable env.env_cnet ~owner ~name () in
  { pr_var; pr_recalc = recalc; pr_evaluating = false }

let var p = p.pr_var

let read env p =
  match Var.value p.pr_var with
  | Some _ as v -> v
  | None -> (
    match p.pr_recalc with
    | None -> None
    | Some _ when p.pr_evaluating -> None (* evalFlag guard, Fig. 6.1 *)
    | Some recalc -> (
      p.pr_evaluating <- true;
      let computed =
        Fun.protect ~finally:(fun () -> p.pr_evaluating <- false) recalc
      in
      match computed with
      | None -> None
      | Some value -> (
        match Engine.set ~just:Types.Application env.env_cnet p.pr_var value with
        | Ok () -> Var.value p.pr_var
        | Error _ -> None)))

let invalidate env p = ignore (Engine.reset env.env_cnet p.pr_var)

let set_recalc p f = p.pr_recalc <- Some f
