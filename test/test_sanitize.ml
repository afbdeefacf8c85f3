(* The effect sanitizer (DESIGN.md §14): a sanitized run must be
   fingerprint-identical to an unsanitized one — across runners and
   both scheduler modes — while genuinely lying footprints are caught.
   The positive half is the qcheck property and the per-runner cases;
   the negative half replants the lying-footprint / false-independence
   / non-commuting fixtures and demands the expected diagnostics. *)

open Vsgc_types
module System = Vsgc_harness.System
module Executor = Vsgc_ioa.Executor
module Sanitizer = Vsgc_ioa.Sanitizer
module Component = Vsgc_ioa.Component
module Footprint = Vsgc_ioa.Footprint
module Trace_stats = Vsgc_ioa.Trace_stats
module Diag = Vsgc_ioa.Diag

(* Scoped overrides of the process-wide executor defaults (the same
   knobs VSGC_SANITIZE / VSGC_SCHED set), restored on exit so test
   order cannot leak a mode into unrelated suites. *)
let with_sanitize sanitize f =
  Executor.with_config { (Executor.config ()) with sanitize } f

let with_mode mode f = Executor.with_config { (Executor.config ()) with mode } f

let in_modes f = List.iter (fun m -> with_mode m (fun () -> f m)) [ `Cached; `Rescan ]

let mode_name = function `Cached -> "cached" | `Rescan -> "rescan"

(* -- The three runner shapes --------------------------------------------- *)

(* Each returns (fingerprint, sanitizer violations). Under [None] the
   violation count is trivially 0; under [Some `Collect] a non-zero
   count on shipped components is itself a failure (the honesty half),
   and equal fingerprints are the neutrality half. *)

let free_run ~seed () =
  let sys = System.create ~seed ~n:4 () in
  Vsgc_harness.Scenario.run sys (Vsgc_harness.Scenario.partition_heal ~n:4);
  let exec = System.exec sys in
  let viol =
    match Executor.sanitizer exec with
    | Some s -> Sanitizer.violations s
    | None -> 0
  in
  (Trace_stats.fingerprint (Executor.trace exec), viol)

let sync_run ~seed () =
  let sys = System.create ~seed ~n:4 () in
  ignore (System.reconfigure sys ~set:(Proc.Set.of_range 0 3));
  System.send sys 0 "san-a";
  System.send sys 1 "san-b";
  ignore (System.run_rounds sys);
  let exec = System.exec sys in
  let viol =
    match Executor.sanitizer exec with
    | Some s -> Sanitizer.violations s
    | None -> 0
  in
  (Trace_stats.fingerprint (Executor.trace exec), viol)

let server_run ~seed () =
  let ss = Vsgc_harness.Server_system.create ~seed ~n_clients:4 ~n_servers:2 () in
  Vsgc_harness.Server_system.bootstrap ss;
  let sys = Vsgc_harness.Server_system.sys ss in
  System.settle sys;
  let exec = System.exec sys in
  let viol =
    match Executor.sanitizer exec with
    | Some s -> Sanitizer.violations s
    | None -> 0
  in
  (Trace_stats.fingerprint (Executor.trace exec), viol)

(* The networked runner spans many executors, so the per-run check
   uses the [`Raise] policy: any footprint lie aborts the run instead
   of hiding in one node's collector. *)
let net_run ~seed () =
  let knobs = { Vsgc_net.Loopback.delay = 2; drop = 0.0; reorder = 0.25 } in
  let net = Vsgc_harness.Net_system.create ~seed ~knobs ~n:3 () in
  ignore (Vsgc_harness.Net_system.reconfigure net ~set:(Proc.Set.of_range 0 2));
  Vsgc_harness.Net_system.run net;
  Vsgc_harness.Net_system.broadcast net ~senders:(Proc.Set.of_range 0 2)
    ~per_sender:3;
  Vsgc_harness.Net_system.run net;
  ignore
    (Vsgc_harness.Net_system.reconfigure ~origin:1 net
       ~set:(Proc.Set.of_range 0 1));
  Vsgc_harness.Net_system.run net;
  Vsgc_harness.Net_system.fingerprint net

let check_neutral ~label run =
  in_modes (fun m ->
      let fp_off, _ = with_sanitize None run in
      let fp_on, viol = with_sanitize (Some `Collect) run in
      Alcotest.(check string)
        (Fmt.str "%s/%s: sanitized fingerprint identical" label (mode_name m))
        fp_off fp_on;
      Alcotest.(check int)
        (Fmt.str "%s/%s: shipped footprints honest" label (mode_name m))
        0 viol)

let test_free_running_neutral () = check_neutral ~label:"free" (free_run ~seed:271)
let test_sync_runner_neutral () = check_neutral ~label:"sync" (sync_run ~seed:137)
let test_server_stack_neutral () = check_neutral ~label:"server" (server_run ~seed:273)

let test_net_runner_neutral () =
  in_modes (fun m ->
      let fp_off = with_sanitize None (net_run ~seed:97) in
      (* Raise policy: a lying footprint anywhere in the deployment
         aborts the run right here. *)
      let fp_on = with_sanitize (Some `Raise) (net_run ~seed:97) in
      Alcotest.(check string)
        (Fmt.str "net/%s: sanitized fingerprint identical" (mode_name m))
        fp_off fp_on)

(* The qcheck property: for ANY seed, the free-running system is
   sanitizer-neutral and sanitizer-clean under both policies' default
   path. One property, many seeds — the per-runner cases above pin the
   other runner shapes. *)
let prop_sanitize_neutral =
  QCheck.Test.make ~count:15 ~name:"sanitized run = unsanitized run (any seed)"
    QCheck.(int_range 0 99_999)
    (fun seed ->
      let fp_off, _ = with_sanitize None (free_run ~seed) in
      let fp_on, viol = with_sanitize (Some `Collect) (free_run ~seed) in
      String.equal fp_off fp_on && viol = 0)

(* -- Negative tests: the planted lies must be caught ---------------------- *)

(* Fixture actions reuse the universe's message: Action.equal compares
   payloads, and App_send carries a typed App_msg. *)
let msg = Vsgc_analysis.Universe.msg

let has_check c diags = List.exists (fun d -> d.Diag.check = c) diags

(* Same shape as the analysis fixture: accepts [send], increments, but
   declares a read-only footprint over its observed slice. *)
let liar_comps () =
  let send = Action.App_send (0, msg) in
  [
    Component.pack
      (Component.make
         ~footprint:(fun a ->
           if Action.equal a send then Footprint.rw [ Footprint.Proc_state 0 ]
           else Footprint.empty)
         ~emits:(Action.equal send) ~name:"speaker" ~init:false
         ~accepts:(fun _ -> false)
         ~outputs:(fun fired -> if fired then [] else [ send ])
         ~apply:(fun _ _ -> true)
         ());
    Component.pack
      (Component.make
         ~footprint:(fun a ->
           if Action.equal a send then
             Footprint.make ~reads:[ Footprint.Proc_state 0 ] ()
           else Footprint.empty)
         ~emits:(fun _ -> false)
         ~observe:(fun k -> [ (Footprint.Proc_state 0, Component.digest k) ])
         ~name:"liar" ~init:0 ~accepts:(Action.equal send)
         ~outputs:(fun _ -> [])
         ~apply:(fun k a -> if Action.equal a send then k + 1 else k)
         ());
  ]

let fixture_diags name =
  match Vsgc_analysis.Fixtures.find name with
  | Some f -> f.Vsgc_analysis.Fixtures.run ()
  | None -> Alcotest.failf "fixture %s vanished from the registry" name

let test_undeclared_write_collected () =
  let diags = fixture_diags "sanitize-undeclared-write" in
  Alcotest.(check bool)
    "planted undeclared write detected" true
    (has_check "undeclared-write" diags)

let test_false_independence_collected () =
  let diags = fixture_diags "sanitize-false-independence" in
  Alcotest.(check bool)
    "planted false independence detected" true
    (has_check "false-independence" diags)

let test_lying_footprint_raises () =
  let exec = Executor.create ~seed:1 ~sanitize:(Some `Raise) (liar_comps ()) in
  match Executor.run ~max_steps:50 exec with
  | _ -> Alcotest.fail "the planted lie did not raise under `Raise"
  | exception Sanitizer.Violation d ->
      Alcotest.(check string) "violation check" "undeclared-write" d.Diag.check;
      Alcotest.(check string) "violation pass" "sanitize" d.Diag.pass

let test_static_audit_catches_liar () =
  let universe = [ Action.App_send (0, msg) ] in
  let diags =
    Vsgc_analysis.Effect_check.audit ~steps:10 ~universe (liar_comps ())
  in
  Alcotest.(check bool)
    "static write-gap catches the same plant" true
    (has_check "write-gap" diags)

(* A planted commute failure for the race replay: two always-enabled
   outputs with disjoint declared footprints, plus a recorder that
   secretly appends every firing to one shared slice — the orders
   [a;b] and [b;a] leave different digests, so the both-orders replay
   must report commute-divergence (the recorder's hidden write also
   shows up as undeclared-write; both are asserted). *)
let test_commute_divergence () =
  let act1 = Action.App_send (0, msg) in
  let act2 = Action.Block_ok 1 in
  let fp_only act locs a =
    if Action.equal a act then Footprint.rw locs else Footprint.empty
  in
  let chatter name act locs =
    Component.pack
      (Component.make
         ~footprint:(fp_only act locs)
         ~emits:(Action.equal act) ~name ~init:()
         ~accepts:(fun _ -> false)
         ~outputs:(fun () -> [ act ])
         ~apply:(fun () _ -> ())
         ())
  in
  let recorder =
    Component.pack
      (Component.make
         ~footprint:(fun _ -> Footprint.empty)
         ~emits:(fun _ -> false)
         ~observe:(fun log ->
           [ (Footprint.Global "recorder-log", Component.digest log) ])
         ~name:"recorder" ~init:[]
         ~accepts:(fun a -> Action.equal a act1 || Action.equal a act2)
         ~outputs:(fun _ -> [])
         ~apply:(fun log a -> Action.to_string a :: log)
         ())
  in
  let comps =
    [
      chatter "talker-a" act1 [ Footprint.Proc_state 0 ];
      chatter "talker-b" act2 [ Footprint.Proc_state 1 ];
      recorder;
    ]
  in
  let exec = Executor.create ~seed:5 ~sanitize:None comps in
  let san =
    Sanitizer.create ~race_every:1 ~policy:`Collect (Executor.components exec)
      (Executor.metrics exec)
  in
  Alcotest.(check bool)
    "the pair is declared independent" true
    (Sanitizer.independent san act1 act2);
  (match Executor.candidates exec with
  | (owner, a) :: _ ->
      Sanitizer.pre san ~owner a;
      Executor.perform exec ~owner a;
      Sanitizer.post san ~owner a
  | [] -> Alcotest.fail "no enabled candidate");
  let diags = Sanitizer.diags san in
  Alcotest.(check bool)
    "both-orders replay reports commute-divergence" true
    (has_check "commute-divergence" diags);
  Alcotest.(check bool)
    "the hidden shared write is also an undeclared-write" true
    (has_check "undeclared-write" diags)

(* -- Counters, static pass, JSON ------------------------------------------ *)

let test_counters () =
  with_sanitize (Some `Collect) (fun () ->
      let sys = System.create ~seed:271 ~n:4 () in
      Vsgc_harness.Scenario.run sys
        (Vsgc_harness.Scenario.partition_heal ~n:4);
      let c = Trace_stats.counters (Executor.metrics (System.exec sys)) in
      Alcotest.(check bool) "san_steps counted" true (c.Trace_stats.san_steps > 0);
      Alcotest.(check bool) "san_diffs counted" true (c.Trace_stats.san_diffs > 0);
      Alcotest.(check bool) "race replays ran" true (c.Trace_stats.san_races > 0);
      Alcotest.(check int) "no violations on shipped code" 0
        c.Trace_stats.san_violations);
  with_sanitize None (fun () ->
      let sys = System.create ~seed:271 ~n:4 () in
      Vsgc_harness.Scenario.run sys
        (Vsgc_harness.Scenario.partition_heal ~n:4);
      let c = Trace_stats.counters (Executor.metrics (System.exec sys)) in
      Alcotest.(check int) "unsanitized runs count nothing" 0
        c.Trace_stats.san_steps)

let test_effects_pass_clean () =
  List.iter
    (fun (name, run) ->
      Alcotest.(check (list string))
        (Fmt.str "vet effects %s clean" name)
        []
        (List.map Diag.to_string (run ())))
    Vsgc_analysis.Effect_check.audits

let test_diag_json () =
  let d =
    Diag.v ~pass:"sanitize" ~check:"undeclared-write" ~subject:{|a"b\c|}
      "line1\nline2\ttab"
  in
  Alcotest.(check string) "JSONL escaping"
    {|{"pass":"sanitize","check":"undeclared-write","subject":"a\"b\\c","message":"line1\nline2\u0009tab"}|}
    (Diag.to_json d)

let suite =
  [
    Alcotest.test_case "free-running runner neutral (both modes)" `Quick
      test_free_running_neutral;
    Alcotest.test_case "sync runner neutral (both modes)" `Quick
      test_sync_runner_neutral;
    Alcotest.test_case "server stack neutral (both modes)" `Quick
      test_server_stack_neutral;
    Alcotest.test_case "net runner neutral under Raise (both modes)" `Quick
      test_net_runner_neutral;
    QCheck_alcotest.to_alcotest ~long:false prop_sanitize_neutral;
    Alcotest.test_case "planted undeclared write detected" `Quick
      test_undeclared_write_collected;
    Alcotest.test_case "planted false independence detected" `Quick
      test_false_independence_collected;
    Alcotest.test_case "Raise policy aborts on the lie" `Quick
      test_lying_footprint_raises;
    Alcotest.test_case "static audit catches the same lie" `Quick
      test_static_audit_catches_liar;
    Alcotest.test_case "race replay reports commute-divergence" `Quick
      test_commute_divergence;
    Alcotest.test_case "sanitizer counters" `Quick test_counters;
    Alcotest.test_case "vet effects clean on shipped compositions" `Quick
      test_effects_pass_clean;
    Alcotest.test_case "diagnostic JSON escaping" `Quick test_diag_json;
  ]
