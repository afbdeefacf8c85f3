(* Deterministic fault-schedule injection.

   Rebuilds the networked deployment a schedule describes, attaches
   the service-level spec monitors (WV_RFIFO, VS_RFIFO, TRANS_SET,
   SELF) to it, and applies the events in order. Every Settle runs the
   §6/§7 invariant battery at the quiescent point it creates; the
   final monitor obligations are discharged after the last event. The
   outcome classifies whatever fired first:

     monitor name      a spec monitor rejected the trace
     invariant name    the invariant battery rejected a snapshot
     "stuck"           a run/settle exhausted its budget — the faulted
                       system never returned to quiescence
     "diverged"        the Converged check failed: survivors ended in
                       different views, in a view that does not match
                       the survivor set, or with asymmetric
                       transitional sets

   plus the deployment fingerprint, which is what corpus replays pin.

   Corruption events (DESIGN.md §13) add one expectation kind that is
   NOT a violation: "detected-and-rejoined" demands a clean verdict
   AND a non-empty Net_system.detections — the corruption was caught
   by the local guards and healed through the §8 rejoin. A clean run
   without detections then means the corruption went unnoticed
   (Missing); any violation means it escaped the guards (whatever
   fired first names the divergence). *)

open Vsgc_types
module Net_system = Vsgc_harness.Net_system
module Loopback = Vsgc_net.Loopback

type violation = { kind : string; message : string }

let pp_violation ppf v = Fmt.pf ppf "%s: %s" v.kind v.message

exception Diverged of string

let violation_of_exn = function
  | Vsgc_ioa.Monitor.Violation { monitor; message } ->
      Some { kind = monitor; message }
  | Vsgc_checker.Invariants.Invariant_violation { name; message } ->
      Some { kind = name; message }
  | Diverged message -> Some { kind = "diverged"; message }
  | Vsgc_ioa.Sanitizer.Violation d ->
      Some { kind = "sanitize"; message = Vsgc_ioa.Diag.to_string d }
  | Failure message ->
      (* Inside a run the only Failures are exhausted drive budgets
         (Net_system.run, Io_pump.pump) — liveness, not crashes. *)
      Some { kind = "stuck"; message }
  | _ -> None

(* -- Convergence-after-heal ----------------------------------------------- *)

(* All surviving (non-crashed) clients must have ended in one common
   view with mutually consistent transitional sets; under real servers
   that view's membership must be exactly the survivors (a server that
   still carries a dead client, or lost a live one, did not converge). *)
let common_view_failure net =
  let survivors =
    Proc.Set.diff (Net_system.procs net) (Net_system.crashed_clients net)
  in
  if Proc.Set.is_empty survivors then None
  else begin
    let last p = Net_system.last_view_of net p in
    match
      Proc.Set.fold
        (fun p acc ->
          match acc with
          | Error _ -> acc
          | Ok views -> (
              match last p with
              | Some vt -> Ok ((p, vt) :: views)
              | None -> Error p))
        survivors (Ok [])
    with
    | Error p -> Some (Fmt.str "survivor %a never got a view" Proc.pp p)
    | Ok views -> begin
        let p0, (v0, _) = List.hd views in
        match
          List.find_opt (fun (_, (v, _)) -> not (View.equal v v0)) views
        with
        | Some (q, (vq, _)) ->
            Some
              (Fmt.str "survivors disagree on the final view: %a in %a, %a in %a"
                 Proc.pp q View.pp vq Proc.pp p0 View.pp v0)
        | None ->
            let tset q =
              match List.assoc_opt q views with
              | Some (_, t) -> Some t
              | None -> None
            in
            let asymmetric =
              List.find_map
                (fun (p, (_, tp)) ->
                  Proc.Set.fold
                    (fun q acc ->
                      match acc with
                      | Some _ -> acc
                      | None -> (
                          match tset q with
                          | Some tq when not (Proc.Set.mem p tq) -> Some (p, q)
                          | Some _ | None -> None))
                    (Proc.Set.inter tp survivors)
                    None)
                views
            in
            match asymmetric with
            | Some (p, q) ->
                Some
                  (Fmt.str
                     "asymmetric transitional sets in %a: %a in T(%a) but %a \
                      not in T(%a)"
                     View.pp v0 Proc.pp q Proc.pp p Proc.pp p Proc.pp q)
            | None -> None
      end
  end

let convergence_failure ~real_servers net =
  match common_view_failure net with
  | Some _ as f -> f
  | None ->
      let survivors =
        Proc.Set.diff (Net_system.procs net) (Net_system.crashed_clients net)
      in
      if not real_servers || Proc.Set.is_empty survivors then None
      else
        match Net_system.last_view_of net (Proc.Set.min_elt survivors) with
        | Some (v, _) when not (Proc.Set.equal (View.set v) survivors) ->
            Some
              (Fmt.str "final view %a does not match the survivor set %a"
                 View.pp v Proc.Set.pp survivors)
        | Some _ | None -> None

(* -- Applying events ------------------------------------------------------ *)

let build (conf : Schedule.conf) =
  let net =
    Net_system.create ~seed:conf.seed ~knobs:conf.knobs ~layer:conf.layer
      ~arm:conf.arm ~n:conf.clients ~n_servers:conf.servers ()
  in
  Net_system.attach_monitors net (Vsgc_spec.All.net_arm conf.arm);
  net

let apply_event ~real_servers ~batch net (ev : Schedule.event) =
  match ev with
  | Schedule.Partition classes -> Net_system.set_partition net classes
  | Schedule.Heal -> Net_system.heal net
  | Schedule.Crash p -> Net_system.crash_client net p
  | Schedule.Restart p -> Net_system.restart_client net p
  | Schedule.Delay_spike k -> Net_system.set_knobs net k
  | Schedule.Corrupt { target; field; salt } ->
      Net_system.corrupt_client net target ~salt field
  | Schedule.Link { a; b; up } ->
      Loopback.set_link (Net_system.hub net) a b ~up
  | Schedule.Send { from; payload } -> Net_system.send net from payload
  | Schedule.Traffic k ->
      incr batch;
      Proc.Set.iter
        (fun p ->
          for i = 1 to k do
            Net_system.send net p (Fmt.str "b%d-%a-%d" !batch Proc.pp p i)
          done)
        (Proc.Set.diff (Net_system.procs net) (Net_system.crashed_clients net))
  | Schedule.Run k -> Net_system.run_ticks net k
  | Schedule.Settle ->
      Net_system.run net;
      Net_system.check_invariants net
  | Schedule.Converged -> (
      match convergence_failure ~real_servers net with
      | Some msg -> raise (Diverged msg)
      | None -> ())

type outcome = {
  verdict : (unit, violation) result;
  fingerprint : string;
  net : Net_system.t;
}

let run (s : Schedule.t) =
  let net = build s.conf in
  let real_servers = s.conf.servers > 0 in
  let batch = ref 0 in
  let verdict =
    match
      List.iter (apply_event ~real_servers ~batch net) s.events;
      Net_system.finish net
    with
    | () -> Ok ()
    | exception e -> (
        match violation_of_exn e with Some v -> Error v | None -> raise e)
  in
  { verdict; fingerprint = Net_system.fingerprint net; net }

(* Tolerant run, for the shrinker: candidate schedules produced by
   deleting events may make later events invalid (a restart of a
   never-crashed client, a crash of an already-crashed one); those
   raise Invalid_argument and are skipped. Returns the violation, if
   one fired. *)
let run_tolerant (s : Schedule.t) =
  let net = build s.conf in
  let real_servers = s.conf.servers > 0 in
  let batch = ref 0 in
  let viol = ref None in
  let classify e =
    match violation_of_exn e with
    | Some v ->
        viol := Some v;
        raise Exit
    | None -> raise e
  in
  (try
     List.iter
       (fun ev ->
         match apply_event ~real_servers ~batch net ev with
         | () -> ()
         | exception Invalid_argument _ -> ()
         | exception e -> classify e)
       s.events;
     match Net_system.finish net with
     | () -> ()
     | exception e -> classify e
   with Exit -> ());
  !viol

(* -- Checking against the recorded expectation ---------------------------- *)

type check_verdict =
  | Reproduced  (** the expected violation kind fired (fingerprint ok) *)
  | Clean_ok  (** no expectation, no violation (fingerprint ok) *)
  | Missing of string  (** expected kind never fired *)
  | Unexpected of violation
  | Fingerprint_mismatch of { expected : string; got : string }

let detected_kind = "detected-and-rejoined"

let check (s : Schedule.t) =
  let o = run s in
  let detected = Net_system.detections o.net <> [] in
  match (o.verdict, s.conf.expect) with
  | Ok (), Some kind when String.equal kind detected_kind && detected ->
      (* not a violation: the corruption was caught by the local guards
         and healed through the §8 rejoin — fall through to the pin *)
      (match s.conf.fingerprint with
      | Some expected when not (String.equal expected o.fingerprint) ->
          Fingerprint_mismatch { expected; got = o.fingerprint }
      | Some _ | None -> Reproduced)
  | Ok (), Some kind -> Missing kind
  | Error v, None -> Unexpected v
  | Error v, Some kind when not (String.equal v.kind kind) -> Unexpected v
  | (Ok () | Error _), _ -> (
      match s.conf.fingerprint with
      | Some expected when not (String.equal expected o.fingerprint) ->
          Fingerprint_mismatch { expected; got = o.fingerprint }
      | Some _ | None -> (
          match s.conf.expect with None -> Clean_ok | Some _ -> Reproduced))
