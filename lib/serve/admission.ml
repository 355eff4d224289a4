(* Admission control for the write side: bounded per-tenant in-flight
   work, a global in-flight bound, and a strike/cooldown ladder for
   tenants whose requests keep blowing their episode budgets — the
   write-path analogue of the kernel's constraint quarantine.  The
   goal is the never-starve guarantee: one abusive or stalled writer
   is pushed back with 429/503 + Retry-After while everyone else's
   requests keep flowing. *)

type config = {
  ac_max_inflight : int;  (* per tenant *)
  ac_max_total : int;  (* across all tenants *)
  ac_step_budget : int;  (* Engine step budget per write episode *)
  ac_deadline : float;  (* wall-clock seconds per admitted request *)
  ac_strike_limit : int;  (* over-budget episodes before cooldown *)
  ac_cooldown : float;  (* seconds a striking tenant sits out *)
}

let default_config =
  {
    ac_max_inflight = 2;
    ac_max_total = 8;
    ac_step_budget = 10_000;
    ac_deadline = 2.0;
    ac_strike_limit = 3;
    ac_cooldown = 5.0;
  }

type ticket = { tk_tenant : string; tk_start : float }

type decision =
  | Admitted of ticket
  | Busy of float  (* tenant at its in-flight bound: 429 + Retry-After *)
  | Overloaded of float  (* global bound reached: 503 + Retry-After *)
  | Quarantined of float  (* cooling down: 429 + remaining seconds *)

type tenant = {
  mutable tn_inflight : int;
  mutable tn_strikes : int;
  mutable tn_cooldown_until : float;
  mutable tn_admitted : int;
  mutable tn_rejected : int;
  mutable tn_over_budget : int;
  (* rejection counts by ladder rung, for the per-reason Prometheus
     series (tn_rejected stays the sum, for /admission compatibility) *)
  mutable tn_rej_busy : int;
  mutable tn_rej_overloaded : int;
  mutable tn_rej_quarantined : int;
}

type t = {
  ad_cfg : config;
  ad_now : unit -> float;
  ad_mu : Mutex.t;
  ad_tenants : (string, tenant) Hashtbl.t;
  mutable ad_total_inflight : int;
}

let create ?(now = Unix.gettimeofday) ?(config = default_config) () =
  {
    ad_cfg = config;
    ad_now = now;
    ad_mu = Mutex.create ();
    ad_tenants = Hashtbl.create 8;
    ad_total_inflight = 0;
  }

let config t = t.ad_cfg

let with_lock t f =
  Mutex.lock t.ad_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.ad_mu) f

let tenant_of t name =
  match Hashtbl.find_opt t.ad_tenants name with
  | Some tn -> tn
  | None ->
    let tn =
      {
        tn_inflight = 0;
        tn_strikes = 0;
        tn_cooldown_until = 0.0;
        tn_admitted = 0;
        tn_rejected = 0;
        tn_over_budget = 0;
        tn_rej_busy = 0;
        tn_rej_overloaded = 0;
        tn_rej_quarantined = 0;
      }
    in
    Hashtbl.replace t.ad_tenants name tn;
    tn

let admit t ~tenant:name =
  with_lock t (fun () ->
      let now = t.ad_now () in
      let tn = tenant_of t name in
      if tn.tn_cooldown_until > now then begin
        tn.tn_rejected <- tn.tn_rejected + 1;
        tn.tn_rej_quarantined <- tn.tn_rej_quarantined + 1;
        Quarantined (tn.tn_cooldown_until -. now)
      end
      else if tn.tn_inflight >= t.ad_cfg.ac_max_inflight then begin
        tn.tn_rejected <- tn.tn_rejected + 1;
        tn.tn_rej_busy <- tn.tn_rej_busy + 1;
        Busy t.ad_cfg.ac_deadline
      end
      else if t.ad_total_inflight >= t.ad_cfg.ac_max_total then begin
        tn.tn_rejected <- tn.tn_rejected + 1;
        tn.tn_rej_overloaded <- tn.tn_rej_overloaded + 1;
        Overloaded t.ad_cfg.ac_deadline
      end
      else begin
        tn.tn_inflight <- tn.tn_inflight + 1;
        tn.tn_admitted <- tn.tn_admitted + 1;
        t.ad_total_inflight <- t.ad_total_inflight + 1;
        Admitted { tk_tenant = name; tk_start = now }
      end)

(* [over_budget] marks the finished request as abusive (episode budget
   blown or deadline exceeded): strikes accumulate toward a cooldown,
   and a well-behaved request heals one strike, so transient pressure
   does not quarantine anyone. *)
let finish t ticket ~over_budget =
  with_lock t (fun () ->
      let tn = tenant_of t ticket.tk_tenant in
      tn.tn_inflight <- max 0 (tn.tn_inflight - 1);
      t.ad_total_inflight <- max 0 (t.ad_total_inflight - 1);
      if over_budget then begin
        tn.tn_over_budget <- tn.tn_over_budget + 1;
        tn.tn_strikes <- tn.tn_strikes + 1;
        if tn.tn_strikes >= t.ad_cfg.ac_strike_limit then begin
          tn.tn_cooldown_until <- t.ad_now () +. t.ad_cfg.ac_cooldown;
          tn.tn_strikes <- 0
        end
      end
      else tn.tn_strikes <- max 0 (tn.tn_strikes - 1))

(* Wall-clock view of an admitted request: handlers check this between
   batch items and abort the remainder once the deadline is gone. *)
let deadline_exceeded t ticket =
  t.ad_now () -. ticket.tk_start > t.ad_cfg.ac_deadline

let elapsed t ticket = t.ad_now () -. ticket.tk_start

let tenants t =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun name tn acc ->
          (name, tn.tn_admitted, tn.tn_rejected, tn.tn_over_budget) :: acc)
        t.ad_tenants []
      |> List.sort compare)

(* Tenant rows sorted by name; caller holds the lock. *)
let sorted_tenants t =
  Hashtbl.fold (fun name tn acc -> (name, tn) :: acc) t.ad_tenants []
  |> List.sort compare

let stats_json t =
  with_lock t (fun () ->
      let now = t.ad_now () in
      let tenants =
        sorted_tenants t
        |> List.map (fun (name, tn) ->
               Obs.Jsonl.J_obj
                 [
                   ("tenant", J_str name);
                   ("inflight", J_int tn.tn_inflight);
                   ("admitted", J_int tn.tn_admitted);
                   ("rejected", J_int tn.tn_rejected);
                   ("over_budget", J_int tn.tn_over_budget);
                   ("strikes", J_int tn.tn_strikes);
                   ( "cooldown_s",
                     J_float (max 0.0 (tn.tn_cooldown_until -. now)) );
                 ])
      in
      Obs.Jsonl.(
        to_string
          (J_obj
             [
               ("total_inflight", J_int t.ad_total_inflight);
               ("max_inflight", J_int t.ad_cfg.ac_max_inflight);
               ("max_total", J_int t.ad_cfg.ac_max_total);
               ("step_budget", J_int t.ad_cfg.ac_step_budget);
               ("deadline_s", J_float t.ad_cfg.ac_deadline);
               ("tenants", J_arr tenants);
             ])))

(* Per-tenant counters in Prometheus exposition format, appended after
   the registry-backed families by the server's /metrics handler.
   Tenants are dynamic label values, which Obs.Metrics registries
   deliberately do not model, so these families render here through
   its header and series writers. *)
let render_prometheus ?(namespace = "stem") t buf =
  with_lock t (fun () ->
      let tenants = sorted_tenants t in
      if tenants <> [] then begin
        let req = namespace ^ "_serve_tenant_requests_total" in
        let rej = namespace ^ "_serve_tenant_rejected_total" in
        Obs.Metrics.add_family_header buf ~fam:req ~ty:"counter"
          ~help:"Write-side requests per tenant (admitted plus rejected).";
        List.iter
          (fun (name, tn) ->
            Obs.Metrics.add_series buf req
              [ ("tenant", name) ]
              (string_of_int (tn.tn_admitted + tn.tn_rejected)))
          tenants;
        Obs.Metrics.add_family_header buf ~fam:rej ~ty:"counter"
          ~help:"Admission rejections per tenant, by ladder rung.";
        List.iter
          (fun (name, tn) ->
            List.iter
              (fun (reason, n) ->
                Obs.Metrics.add_series buf rej
                  [ ("tenant", name); ("reason", reason) ]
                  (string_of_int n))
              [
                ("busy", tn.tn_rej_busy);
                ("overloaded", tn.tn_rej_overloaded);
                ("quarantined", tn.tn_rej_quarantined);
              ])
          tenants
      end)
