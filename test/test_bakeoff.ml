(* The bake-off regression suite (DESIGN.md §16, EXPERIMENTS.md E18):
   the symmetric Skeen arm as a first-class runtime protocol next to
   the sequencer-based GCS arm, over the same deployments, generators,
   and fault surface.

   - Determinism: a faulted symmetric-arm deployment replays to a
     pinned fingerprint under BOTH executor scheduling modes, with the
     full symmetric-arm battery (Skeen monitor included) attached.
   - The shared harness is fair: the GCS arm's batched and unbatched
     stable-delivery modes fold the same open-loop history into
     byte-identical stores.
   - Agreement: the symmetric arm survives a scripted partition-heal
     with zero lost acks and converged stores, and folds the same
     client history into the same final store as the GCS arm.
   - The monitor bites: planted early-delivery, ordering-divergence,
     forged-digest, and transitional-set flush-divergence traces are
     each flagged at the precise non-conforming action, and the at_end
     residual check reports deliveries the deliverability condition
     admitted but the implementation never reported. *)

open Vsgc_types
module F = Vsgc_fault
module Node_id = Vsgc_wire.Node_id
module Sym_msg = Vsgc_wire.Sym_msg
module Loopback = Vsgc_net.Loopback
module Kv_system = Vsgc_kv.Kv_system
module Executor = Vsgc_ioa.Executor
module M = Vsgc_ioa.Monitor
module All = Vsgc_spec.All
module Skeen_spec = Vsgc_spec.Skeen_spec
module Tord_symmetric = Vsgc_totalorder.Tord_symmetric

let check = Alcotest.(check bool)

(* -- Loopback determinism: pinned fingerprint, both scheduler modes ------- *)

let bakeoff_schedule =
  {
    F.Schedule.conf =
      {
        name = "bakeoff-determinism";
        seed = 18;
        clients = 3;
        servers = 2;
        layer = `Full;
        arm = `Sym;
        knobs = { Loopback.default_knobs with delay = 1 };
        expect = None;
        fingerprint = None;
      };
    events =
      [
        F.Schedule.Settle;
        F.Schedule.Traffic 2;
        F.Schedule.Partition
          [
            [ Node_id.Client 0; Node_id.Client 1; Node_id.Server 0 ];
            [ Node_id.Client 2; Node_id.Server 1 ];
          ];
        F.Schedule.Traffic 1;
        F.Schedule.Run 30;
        F.Schedule.Heal;
        F.Schedule.Traffic 1;
        F.Schedule.Settle;
        F.Schedule.Converged;
      ];
  }

(* Discovered once from the run above and pinned: a symmetric-arm
   deployment under partition-heal churn is a pure function of
   (seed, schedule), whatever the executor's scheduling mode. *)
let pinned_fingerprint =
  "p0=83d633d26a9a472b:129;p1=21cdf954fc42dab1:94;p2=f269d95d260cfe41:117;s0=89fc6d325558efcc:58;s1=f86666a8574af513:39|hub:153/0/0"

let in_mode mode body () =
  Executor.with_config { (Executor.config ()) with mode } body

let test_determinism () =
  let o = F.Inject.run bakeoff_schedule in
  (match o.F.Inject.verdict with
  | Ok () -> ()
  | Error v -> Alcotest.failf "violation: %a" F.Inject.pp_violation v);
  Alcotest.(check string) "pinned fingerprint" pinned_fingerprint
    o.F.Inject.fingerprint

(* -- The shared generator is fair across arms and modes ------------------- *)

let split =
  [
    [ Node_id.Client 0; Node_id.Client 2; Node_id.Server 0 ];
    [ Node_id.Client 1; Node_id.Server 1 ];
  ]

let slo ?script ~arm ~batch () =
  Kv_system.slo_run ~seed:77 ~batch ~arm
    ~monitors:(All.net_arm arm)
    ~n:3 ~n_servers:2 ~homes:[ 0; 2 ] ~clients:2 ~rate:2.0 ~count:40 ?script ()

let complete (r : Kv_system.report) what =
  check (what ^ ": every command acked") true (r.acked = r.sent);
  check (what ^ ": no lost acks") true (r.lost_acks = 0);
  check (what ^ ": stores converged") true r.converged

let test_gcs_batched_equals_unbatched () =
  let u = slo ~arm:`Gcs ~batch:false () in
  let b = slo ~arm:`Gcs ~batch:true () in
  complete u "unbatched";
  complete b "batched";
  List.iter2
    (fun (p, du) (p', db) ->
      check "same proc" true (Proc.equal p p');
      Alcotest.(check string) (Fmt.str "store digest at %a" Proc.pp p) du db)
    u.digests b.digests;
  check "batching strictly reduces apply rounds" true
    (b.apply_rounds < u.apply_rounds)

let test_sym_partition_heal_agreement () =
  let script =
    [ (10, Kv_system.Partition split); (60, Kv_system.Heal) ]
  in
  let s = slo ~script ~arm:`Sym ~batch:true () in
  complete s "sym partition-heal";
  (* Unique keys make the final store order-independent, so the
     symmetric arm must fold the same acked history into the same
     bytes as the sequencer arm (the E18 cross-arm gate). *)
  let g = slo ~script ~arm:`Gcs ~batch:true () in
  complete g "gcs partition-heal";
  List.iter2
    (fun (p, ds) (p', dg) ->
      check "same proc" true (Proc.equal p p');
      Alcotest.(check string)
        (Fmt.str "cross-arm store digest at %a" Proc.pp p)
        ds dg)
    s.digests g.digests

(* -- The Skeen monitor bites ---------------------------------------------- *)

let view ~num ~members =
  let set = Proc.Set.of_list members in
  View.make
    ~id:(View.Id.make ~num ~origin:0)
    ~set
    ~start_ids:(Proc.Set.fold (fun p m -> Proc.Map.add p 1 m) set Proc.Map.empty)

let data ~ts body = Msg.App_msg.make (Sym_msg.to_payload (Sym_msg.Data { ts; body }))
let ack ~ts = Msg.App_msg.make (Sym_msg.to_payload (Sym_msg.Ack { ts }))

let flush ~ts ~view ~digest =
  Msg.App_msg.make (Sym_msg.to_payload (Sym_msg.Flush { ts; view; digest }))

let skeen () = Skeen_spec.monitor ()

let rejects monitor actions =
  let m = monitor () in
  try
    List.iter m.M.on_action actions;
    false
  with M.Violation _ -> true

let accepts monitor actions = not (rejects monitor actions)

let v01 = view ~num:2 ~members:[ 0; 1 ]
let tset01 = Proc.Set.of_list [ 0; 1 ]

(* A gated delivery: p0 hears <t1, p1>, then its own ack at t2 covers
   every member at or beyond t1, so exactly <p1, t1, "a"> may deliver. *)
let gated_prefix =
  [
    Action.App_view (0, v01, tset01);
    Action.App_deliver (0, 1, data ~ts:1 "a");
    Action.App_deliver (0, 0, ack ~ts:2);
  ]

let test_skeen_early_delivery () =
  check "delivery with nothing deliverable rejected" true
    (rejects skeen [ Action.Sym_deliver (0, 1, 1, "x") ]);
  check "the gated delivery itself is accepted" true
    (accepts skeen (gated_prefix @ [ Action.Sym_deliver (0, 1, 1, "a") ]));
  check "a second, unadmitted delivery rejected" true
    (rejects skeen
       (gated_prefix
       @ [ Action.Sym_deliver (0, 1, 1, "a"); Action.Sym_deliver (0, 1, 1, "a") ]
       ))

let test_skeen_order_divergence () =
  check "divergent payload rejected" true
    (rejects skeen (gated_prefix @ [ Action.Sym_deliver (0, 1, 1, "WRONG") ]));
  check "divergent sender rejected" true
    (rejects skeen (gated_prefix @ [ Action.Sym_deliver (0, 0, 1, "a") ]))

let test_skeen_nonincreasing_ts () =
  check "repeated broadcast timestamp rejected" true
    (rejects skeen
       [ Action.App_send (0, data ~ts:5 "a"); Action.App_send (0, data ~ts:5 "b") ]);
  check "increasing timestamps accepted" true
    (accepts skeen
       [ Action.App_send (0, data ~ts:5 "a"); Action.App_send (0, ack ~ts:6) ])

let test_skeen_forged_flush_digest () =
  check "flush announcing a digest its own chunk contradicts rejected" true
    (rejects skeen
       [
         Action.App_view (0, v01, tset01);
         Action.App_send
           (0, flush ~ts:1 ~view:(View.id v01) ~digest:"forged");
       ])

(* Two transitional-set members install the same view having flushed
   different chunks — p0 flushed the undeliverable <t5, p2>, p1 flushed
   nothing — and each honestly announces its own digest. Virtual
   Synchrony says the chunks must be identical, so the second
   announcement must be flagged as a flush divergence. *)
let test_skeen_flush_divergence () =
  let d_with =
    Tord_symmetric.flush_digest
      [ { Tord_symmetric.ts = 5; sender = 2; payload = "zz" } ]
  in
  let d_empty = Tord_symmetric.flush_digest [] in
  check "transitional-set flush divergence rejected" true
    (rejects skeen
       [
         Action.App_deliver (0, 2, data ~ts:5 "zz");
         Action.App_view (0, v01, tset01);
         Action.App_view (1, v01, tset01);
         Action.App_send (0, flush ~ts:6 ~view:(View.id v01) ~digest:d_with);
         Action.App_send (1, flush ~ts:1 ~view:(View.id v01) ~digest:d_empty);
       ]);
  check "identical flushes accepted" true
    (accepts skeen
       [
         Action.App_view (0, v01, tset01);
         Action.App_view (1, v01, tset01);
         Action.App_send (0, flush ~ts:1 ~view:(View.id v01) ~digest:d_empty);
         Action.App_send (1, flush ~ts:1 ~view:(View.id v01) ~digest:d_empty);
       ])

(* The residual check: the deliverability condition admitted <t1, p1>
   but the implementation never reported it. *)
let test_skeen_missed_delivery_residual () =
  let m = skeen () in
  List.iter m.M.on_action gated_prefix;
  (match m.M.at_end () with
  | [] -> Alcotest.fail "missed delivery left no residual obligation"
  | _ -> ());
  let m' = skeen () in
  List.iter m'.M.on_action
    (gated_prefix @ [ Action.Sym_deliver (0, 1, 1, "a") ]);
  Alcotest.(check (list string)) "reported delivery discharges it" [] (m'.M.at_end ())

let suite =
  [
    Alcotest.test_case "determinism: pinned fingerprint [cached]" `Quick
      (in_mode `Cached test_determinism);
    Alcotest.test_case "determinism: pinned fingerprint [rescan]" `Quick
      (in_mode `Rescan test_determinism);
    Alcotest.test_case "gcs arm: batched = unbatched" `Quick
      test_gcs_batched_equals_unbatched;
    Alcotest.test_case "sym arm: partition-heal agreement" `Quick
      test_sym_partition_heal_agreement;
    Alcotest.test_case "skeen monitor: early delivery" `Quick
      test_skeen_early_delivery;
    Alcotest.test_case "skeen monitor: order divergence" `Quick
      test_skeen_order_divergence;
    Alcotest.test_case "skeen monitor: non-increasing timestamps" `Quick
      test_skeen_nonincreasing_ts;
    Alcotest.test_case "skeen monitor: forged flush digest" `Quick
      test_skeen_forged_flush_digest;
    Alcotest.test_case "skeen monitor: flush divergence" `Quick
      test_skeen_flush_divergence;
    Alcotest.test_case "skeen monitor: missed-delivery residual" `Quick
      test_skeen_missed_delivery_residual;
  ]
