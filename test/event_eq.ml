(* Event equality for checking stored events against a recording:
   tags, constructor, the very variable / constraint (physical
   equality), and the value, label or span. *)

open Constraint_kernel

let same_event (a : int Types.tagged_event) (b : int Types.tagged_event) =
  a.te_episode = b.te_episode
  && a.te_seq = b.te_seq
  &&
  match (a.te_event, b.te_event) with
  | T_assign (v, x, s), T_assign (v', x', s') -> v == v' && x = x' && s = s'
  | T_reset (v, s), T_reset (v', s') -> v == v' && s = s'
  | T_activate (c, v), T_activate (c', v') ->
    c == c' && Option.equal ( == ) v v'
  | T_schedule (c, p), T_schedule (c', p') -> c == c' && p = p'
  | T_check (c, ok), T_check (c', ok') -> c == c' && ok = ok'
  | T_violation v, T_violation v' -> v == v'
  | T_restore v, T_restore v' -> v == v'
  | T_quarantine (c, r), T_quarantine (c', r') -> c == c' && r = r'
  | T_episode_start (i, l, p), T_episode_start (i', l', p') ->
    i = i' && l = l' && p = p'
  | T_episode_end sp, T_episode_end sp' -> sp = sp'
  | _ -> false

let check_events msg expected got =
  Alcotest.(check int) (msg ^ ": length") (List.length expected)
    (List.length got);
  List.iteri
    (fun i (e, g) ->
      if not (same_event e g) then
        Alcotest.failf "%s: event %d differs: %a vs %a" msg i
          Editor.pp_trace_event e.Types.te_event Editor.pp_trace_event
          g.Types.te_event)
    (List.combine expected got)
