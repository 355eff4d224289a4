open Constraint_kernel
open Types

let logger ?(name = "logger") ppf =
  {
    snk_name = name;
    snk_emit =
      (fun ep _seq ev -> Fmt.pf ppf "[ep %d] %a@." ep Editor.pp_trace_event ev);
  }
