(* Chaos-schedule CLI over the networked runtime.

     chaos find   [opts]                sample seeded fault schedules until one
                                        fails the oracle battery; shrink + save
                                        (-corrupt adds corruption events;
                                         -want-detection hunts a green run whose
                                         corruption guards fired instead)
     chaos replay FILE.fault...         re-execute saved schedules, judge each
                                        against its expect header + fingerprint
     chaos pin    FILE.fault [OUT]      run a schedule and pin its fingerprint
     chaos soak   [opts]                corruption-enabled samples until the
                                        accumulated executor steps reach -steps;
                                        any violation is fatal; prints detection
                                        latency stats (DESIGN.md §13)

   Every schedule rebuilds a Net_system deployment from scratch; equal
   (seed, config) pairs sample equal schedules and equal schedules give
   equal fingerprints, so CI replays are exact. *)

module F = Vsgc_fault
let die fmt = Fmt.kstr (fun s -> Fmt.epr "chaos: %s@." s; exit 2) fmt

let layer_of_string = function
  | "wv" -> `Wv
  | "vs" -> `Vs
  | "full" -> `Full
  | s -> die "unknown layer %S (want wv|vs|full)" s

(* -- Options ------------------------------------------------------------- *)

let seed = ref 1
let rounds = ref 50
let clients = ref F.Chaos.default_config.F.Chaos.clients
let servers = ref F.Chaos.default_config.F.Chaos.servers
let blocks = ref F.Chaos.default_config.F.Chaos.fault_blocks
let layer = ref F.Chaos.default_config.F.Chaos.layer
let delay = ref F.Chaos.default_config.F.Chaos.knobs.Vsgc_net.Loopback.delay
let out = ref ""
let quiet = ref false
let corrupt = ref false
let want_detection = ref false
let soak_steps = ref 1_000_000
let arm = ref `Gcs

let arm_of_string = function
  | "gcs" -> `Gcs
  | "sym" -> `Sym
  | s -> die "bad -arm %S (want gcs|sym)" s

let find_opts =
  [
    ("-corrupt", Arg.Set corrupt, " sample state-corruption events too");
    ( "-want-detection",
      Arg.Set want_detection,
      " hunt a green run whose corruption guards fired (implies -corrupt)" );
    ("-seed", Arg.Set_int seed, "S base seed (default 1)");
    ("-rounds", Arg.Set_int rounds, "R schedules to sample (default 50)");
    ("-clients", Arg.Set_int clients, "N client count (default 3)");
    ( "-servers",
      Arg.Set_int servers,
      "M server count; 0 = scripted membership (default 2)" );
    ("-blocks", Arg.Set_int blocks, "B fault blocks per schedule (default 4)");
    ( "-layer",
      Arg.String (fun s -> layer := layer_of_string s),
      "L wv|vs|full (default full)" );
    ( "-arm",
      Arg.String (fun s -> arm := arm_of_string s),
      "A gcs|sym client automaton to deploy (default gcs)" );
    ("-delay", Arg.Set_int delay, "D baseline delay knob (default 1)");
    ("-o", Arg.Set_string out, "FILE save the (shrunk) finding here");
    ("-quiet", Arg.Set quiet, " only print the outcome line");
  ]

let cmd_find args =
  Arg.parse_argv ~current:(ref 0)
    (Array.of_list (Sys.argv.(0) :: args))
    (Arg.align find_opts)
    (fun a -> die "find takes no positional argument (got %S)" a)
    "chaos find [options]";
  if !clients < 1 then die "-clients must be at least 1";
  let config =
    {
      F.Chaos.clients = !clients;
      servers = !servers;
      layer = !layer;
      arm = !arm;
      knobs = { Vsgc_net.Loopback.default_knobs with delay = !delay };
      fault_blocks = !blocks;
      corruption = !corrupt || !want_detection;
    }
  in
  let log = if !quiet then None else Some (fun s -> Fmt.pr "%s@." s) in
  let t0 = Unix.gettimeofday () in
  if !want_detection then begin
    let found = F.Chaos.find_detection ?log ~rounds:!rounds ~seed:!seed config in
    let dt = Unix.gettimeofday () -. t0 in
    match found with
    | None ->
        Fmt.pr "no detection in %d rounds (%.2fs)@." !rounds dt;
        exit 1
    | Some f ->
        Fmt.pr "detected-and-rejoined (round %d, %.2fs): %d detection(s)@."
          f.F.Chaos.round dt
          (List.length f.F.Chaos.detections);
        List.iter
          (fun (p, reason, at) -> Fmt.pr "  p%d @@ tick %d: %s@." p at reason)
          f.F.Chaos.detections;
        if !out <> "" then begin
          F.Schedule.save f.F.Chaos.schedule !out;
          Fmt.pr "saved: %s@." !out
        end
        else if not !quiet then Fmt.pr "%a@." F.Schedule.pp f.F.Chaos.schedule;
        exit 0
  end;
  let found = F.Chaos.find ?log ~rounds:!rounds ~seed:!seed config in
  let dt = Unix.gettimeofday () -. t0 in
  match found with
  | None ->
      Fmt.pr "no violation in %d rounds (%.2fs)@." !rounds dt;
      exit 1
  | Some f ->
      Fmt.pr "violation (round %d, %.2fs): %a@." f.F.Chaos.round dt
        F.Inject.pp_violation f.F.Chaos.violation;
      if not !quiet then
        Fmt.pr "schedule: %d events (%d before shrinking)@."
          (List.length f.F.Chaos.schedule.F.Schedule.events)
          f.F.Chaos.events_before_shrink;
      if !out <> "" then begin
        F.Schedule.save f.F.Chaos.schedule !out;
        Fmt.pr "saved: %s@." !out
      end
      else if not !quiet then Fmt.pr "%a@." F.Schedule.pp f.F.Chaos.schedule;
      exit 0

let cmd_replay args =
  let rec strip acc = function
    | [] -> List.rev acc
    | "-quiet" :: rest ->
        quiet := true;
        strip acc rest
    | f :: rest -> strip (f :: acc) rest
  in
  let files = strip [] args in
  if files = [] then die "replay needs at least one FILE.fault";
  let bad = ref 0 in
  List.iter
    (fun file ->
      let sched = F.Schedule.load file in
      (match F.Inject.check sched with
      | F.Inject.Reproduced ->
          Fmt.pr "%s: reproduced %s@." file
            (Option.get sched.F.Schedule.conf.F.Schedule.expect)
      | F.Inject.Clean_ok -> Fmt.pr "%s: clean, as expected@." file
      | F.Inject.Missing kind ->
          incr bad;
          Fmt.pr "%s: FAILED to reproduce expected %s@." file kind
      | F.Inject.Unexpected v ->
          incr bad;
          Fmt.pr "%s: UNEXPECTED %a@." file F.Inject.pp_violation v
      | F.Inject.Fingerprint_mismatch { expected; got } ->
          incr bad;
          Fmt.pr "%s: FINGERPRINT drift@.  pinned: %s@.  got:    %s@." file
            expected got);
      if not !quiet then Fmt.pr "%a@." F.Schedule.pp sched)
    files;
  exit (if !bad = 0 then 0 else 1)

let cmd_pin args =
  match List.filter (fun a -> not (String.length a > 0 && a.[0] = '-')) args with
  | ([ file ] | [ file; _ ]) as pos ->
      let out = match pos with [ _; o ] -> o | _ -> file in
      let sched = F.Schedule.load file in
      let outcome = F.Inject.run sched in
      let expect = sched.F.Schedule.conf.F.Schedule.expect in
      let detections =
        Vsgc_harness.Net_system.detections outcome.F.Inject.net
      in
      (match (outcome.F.Inject.verdict, expect) with
      | Ok (), None -> ()
      | Ok (), Some kind when kind = F.Inject.detected_kind ->
          if detections = [] then
            die "%s: expected %s but no corruption guard fired" file kind
      | Error v, Some kind when v.F.Inject.kind = kind -> ()
      | Ok (), Some kind -> die "%s: expected %s but the run was clean" file kind
      | Error v, _ ->
          die "%s: run raised %a but the header expects %s" file
            F.Inject.pp_violation v
            (Option.value expect ~default:"clean"));
      let pinned =
        F.Schedule.with_fingerprint sched outcome.F.Inject.fingerprint
      in
      F.Schedule.save pinned out;
      Fmt.pr "%s: pinned %s -> %s@." file outcome.F.Inject.fingerprint out;
      exit 0
  | _ -> die "usage: chaos pin FILE.fault [OUT.fault]"

(* -- Soak (DESIGN.md §13, EXPERIMENTS.md E15) ----------------------------- *)

(* Corruption-enabled samples, seeds round_seed(seed, 0..), until the
   executor steps accumulated across all deployments reach the target.
   Any violation is fatal (the offending schedule is printed so it can
   be pinned as a regression); the summary reports how often the
   guards fired and how quickly after the corruption they did. *)
let soak_opts =
  [
    ("-steps", Arg.Set_int soak_steps, "N executor steps to accumulate (default 1000000)");
    ("-seed", Arg.Set_int seed, "S base seed (default 1)");
    ("-clients", Arg.Set_int clients, "N client count (default 3)");
    ( "-servers",
      Arg.Set_int servers,
      "M server count; 0 = scripted membership (default 2)" );
    ("-blocks", Arg.Set_int blocks, "B fault blocks per schedule (default 4)");
    ( "-layer",
      Arg.String (fun s -> layer := layer_of_string s),
      "L wv|vs|full (default full)" );
    ("-delay", Arg.Set_int delay, "D baseline delay knob (default 1)");
    ("-quiet", Arg.Set quiet, " only print the summary");
  ]

let detection_latencies ~corruptions ~detections =
  (* pair each corruption with the first unconsumed detection of the
     same client at or after it *)
  let remaining = ref detections in
  List.filter_map
    (fun (p, t0) ->
      let rec take acc = function
        | [] -> None
        | (q, _, t1) :: rest when q = p && t1 >= t0 ->
            remaining := List.rev_append acc rest;
            Some (t1 - t0)
        | d :: rest -> take (d :: acc) rest
      in
      take [] !remaining)
    corruptions

let cmd_soak args =
  Arg.parse_argv ~current:(ref 0)
    (Array.of_list (Sys.argv.(0) :: args))
    (Arg.align soak_opts)
    (fun a -> die "soak takes no positional argument (got %S)" a)
    "chaos soak [options]";
  if !clients < 1 then die "-clients must be at least 1";
  let config =
    {
      F.Chaos.clients = !clients;
      servers = !servers;
      layer = !layer;
      arm = !arm;
      knobs = { Vsgc_net.Loopback.default_knobs with delay = !delay };
      fault_blocks = !blocks;
      corruption = true;
    }
  in
  let t0 = Unix.gettimeofday () in
  let steps = ref 0 and schedules = ref 0 in
  let corruptions = ref 0 and detections = ref 0 in
  let latencies = ref [] in
  while !steps < !soak_steps do
    let s = F.Chaos.sample ~seed:(F.Chaos.round_seed ~seed:!seed !schedules) config in
    incr schedules;
    let o = F.Inject.run s in
    (match o.F.Inject.verdict with
    | Ok () -> ()
    | Error v ->
        Fmt.pr "soak: VIOLATION after %d steps: %a@.%s@." !steps
          F.Inject.pp_violation v
          (F.Schedule.to_string s);
        exit 1);
    let net = o.F.Inject.net in
    let cs = Vsgc_harness.Net_system.corruptions net in
    let ds = Vsgc_harness.Net_system.detections net in
    steps := !steps + Vsgc_harness.Net_system.steps net;
    corruptions := !corruptions + List.length cs;
    detections := !detections + List.length ds;
    latencies :=
      List.rev_append (detection_latencies ~corruptions:cs ~detections:ds)
        !latencies;
    if (not !quiet) && !schedules mod 50 = 0 then
      Fmt.pr "soak: %d schedules, %d/%d steps@." !schedules !steps !soak_steps
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let lat = !latencies in
  let mean =
    match lat with
    | [] -> 0.0
    | _ ->
        float_of_int (List.fold_left ( + ) 0 lat) /. float_of_int (List.length lat)
  in
  let max_lat = List.fold_left max 0 lat in
  Fmt.pr
    "soak: green — %d schedules, %d steps, %d corruptions, %d detections, \
     detection latency mean %.2f max %d ticks (%.2fs)@."
    !schedules !steps !corruptions !detections mean max_lat dt;
  exit 0

(* -- kv-slo: the KV service SLO gate (DESIGN.md §15) ----------------------

   Drive the open-loop load generator across scripted partition-heal
   and crash-rejoin reconfigurations on the loopback deployment and
   judge the "delivery continues during reconfiguration" SLO: every
   acknowledged write is in its home replica's stable store (zero lost
   acks after dedup by command id), all live stores are byte-identical
   at the end, and the max client-visible stall stays within budget. *)

module Kv_system = Vsgc_kv.Kv_system
module Node_id = Vsgc_wire.Node_id

let kv_batch = ref false
let kv_rate = ref 1.0
let kv_count = ref 80
let kv_stall_budget = ref 600

let kv_slo_opts =
  [
    ("-seed", Arg.Set_int seed, "S deployment seed (default 1)");
    ("-batch", Arg.Set kv_batch, " batched stable delivery");
    ("-rate", Arg.Set_float kv_rate, "R offered load per tick (default 1.0)");
    ("-count", Arg.Set_int kv_count, "K writes per client (default 80)");
    ( "-stall-budget",
      Arg.Set_int kv_stall_budget,
      "T max client-visible stall in ticks (default 600)" );
    ("-quiet", Arg.Set quiet, " only print the outcome lines");
  ]

let kv_judge ~what (r : Kv_system.report) =
  let breaches = ref [] in
  let breach fmt = Fmt.kstr (fun s -> breaches := s :: !breaches) fmt in
  if r.Kv_system.acked < r.Kv_system.sent then
    breach "only %d/%d writes acknowledged" r.Kv_system.acked r.Kv_system.sent;
  if r.Kv_system.lost_acks <> 0 then
    breach "%d acknowledged writes missing from the stable store"
      r.Kv_system.lost_acks;
  if not r.Kv_system.converged then breach "live stores diverged";
  if r.Kv_system.max_stall > float_of_int !kv_stall_budget then
    breach "max stall %.0f ticks exceeds budget %d" r.Kv_system.max_stall
      !kv_stall_budget;
  Fmt.pr
    "kv-slo: %-15s %s — acked=%d/%d lost=%d dup=%d stall=%.0f p50=%d p99=%d \
     p999=%d rounds=%d@."
    what
    (if !breaches = [] then "ok" else "BREACH")
    r.Kv_system.acked r.Kv_system.sent r.Kv_system.lost_acks
    r.Kv_system.dup_acks r.Kv_system.max_stall r.Kv_system.p50 r.Kv_system.p99
    r.Kv_system.p999 r.Kv_system.rounds;
  List.iter (fun s -> Fmt.pr "  breach: %s@." s) (List.rev !breaches);
  !breaches = []

let cmd_kv_slo args =
  Arg.parse_argv ~current:(ref 0)
    (Array.of_list (Sys.argv.(0) :: args))
    (Arg.align kv_slo_opts)
    (fun a -> die "kv-slo takes no positional argument (got %S)" a)
    "chaos kv-slo [options]";
  let run ~homes ~script =
    Kv_system.slo_run ~seed:!seed ~batch:!kv_batch ~n:3 ~n_servers:2 ~homes
      ~clients:2 ~rate:!kv_rate ~count:!kv_count ~script ()
  in
  (* Partition: the two load homes end up on opposite sides of the
     split; both sides keep ordering in their own view, the heal
     merges them through one transitional-set snapshot exchange. *)
  let partition_heal =
    run ~homes:[ 0; 1 ]
      ~script:
        [
          ( 40,
            Kv_system.Partition
              [
                [ Node_id.Client 0; Node_id.Client 2; Node_id.Server 0 ];
                [ Node_id.Client 1; Node_id.Server 1 ];
              ] );
          (160, Kv_system.Heal);
        ]
  in
  (* Crash a non-home replica mid-load; it rejoins by the ordinary
     Join handshake and refolds its store from the post-transfer log. *)
  let crash_rejoin =
    run ~homes:[ 0; 1 ]
      ~script:[ (30, Kv_system.Crash 2); (120, Kv_system.Restart 2) ]
  in
  let ok =
    List.for_all
      (fun (what, r) -> kv_judge ~what r)
      [ ("partition-heal", partition_heal); ("crash-rejoin", crash_rejoin) ]
  in
  if ok then begin
    Fmt.pr "kv-slo: green (batch=%b)@." !kv_batch;
    exit 0
  end
  else exit 1

let usage () =
  Fmt.epr
    "usage:@.  chaos find [options]@.  chaos replay FILE.fault...@.  chaos pin \
     FILE.fault [OUT.fault]@.  chaos soak [options]@.  chaos kv-slo [options]@.";
  exit 2

let () =
  try
    match Array.to_list Sys.argv with
    | _ :: "find" :: args -> cmd_find args
    | _ :: "replay" :: args -> cmd_replay args
    | _ :: "pin" :: args -> cmd_pin args
    | _ :: "soak" :: args -> cmd_soak args
    | _ :: "kv-slo" :: args -> cmd_kv_slo args
    | _ -> usage ()
  with
  | F.Schedule.Parse_error msg -> die "parse error: %s" msg
  | Sys_error msg -> die "%s" msg
  | Invalid_argument msg -> die "%s" msg
