(* The KV service subsystem (DESIGN.md §15): the latency histogram's
   error bound, the incremental store against the replica's pure fold,
   strict codec drift, open-loop load mechanics, and the scripted
   loopback deployment — batched and unbatched stable delivery must
   produce byte-identical stores while batching strictly reduces
   apply rounds. *)

open Vsgc_types
module System = Vsgc_harness.System
module Replica = Vsgc_replication.Replica
module Histogram = Vsgc_kv.Histogram
module Kv_store = Vsgc_kv.Kv_store
module Kv_load = Vsgc_kv.Kv_load
module Kv_system = Vsgc_kv.Kv_system
module Node_id = Vsgc_wire.Node_id

(* -- Histogram ------------------------------------------------------------- *)

let test_hist_small_exact () =
  let h = Histogram.create () in
  for v = 0 to 15 do
    Histogram.add h v
  done;
  Alcotest.(check int) "count" 16 (Histogram.count h);
  Alcotest.(check int) "p50 exact below 16" 7 (Histogram.percentile h 0.5);
  Alcotest.(check int) "p100 is max" 15 (Histogram.percentile h 1.0);
  Alcotest.(check int) "p0 still covers rank 1" 0 (Histogram.percentile h 0.0)

let test_hist_error_bound () =
  (* A percentile read never understates, and overstates by at most one
     sub-bucket (1/16th of the value's magnitude). *)
  let v = ref 3 in
  for _ = 1 to 200 do
    v := ((!v * 7) + 13) mod 1_000_000;
    let v = !v in
    let h = Histogram.create () in
    Histogram.add h v;
    let p = Histogram.percentile h 1.0 in
    Alcotest.(check int) (Fmt.str "singleton p100 exact for %d" v) v p;
    Histogram.add h (v + 1 + (2 * v));
    (* now v is the median; the read may round up within its bucket *)
    let p50 = Histogram.percentile h 0.5 in
    Alcotest.(check bool)
      (Fmt.str "p50 >= %d" v)
      true (p50 >= v);
    Alcotest.(check bool)
      (Fmt.str "p50 %d within a sub-bucket of %d" p50 v)
      true
      (p50 - v <= max 1 (v / 16))
  done

let test_hist_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.add a) [ 1; 2; 3 ];
  List.iter (Histogram.add b) [ 1000; 2000 ];
  Histogram.merge ~into:a b;
  Alcotest.(check int) "merged count" 5 (Histogram.count a);
  Alcotest.(check int) "merged max" 2000 (Histogram.max_value a);
  Alcotest.(check bool) "merged p99 near max" true
    (Histogram.percentile a 0.99 >= 2000)

(* -- Kv_store vs the replica's pure fold ----------------------------------- *)

(* A replica instance of either total-order arm, with the component
   constructor both instances share. *)
module type REPLICA = sig
  include Replica.S

  val component :
    ?strict:bool -> Proc.t -> Vsgc_ioa.Component.packed * t ref
end

let gcs : (module REPLICA) =
  (module struct
    include Replica

    let component ?strict p = Replica.component ?strict p
  end)

let sym : (module REPLICA) = (module Replica.Sym)

let build (type r) (module R : REPLICA with type t = r) ?strict ~seed ~n () =
  let refs = Hashtbl.create 8 in
  let sys =
    System.create ~seed ~n
      ~client_builder:(fun p ->
        let c, r = R.component ?strict p in
        Hashtbl.replace refs p r;
        c)
      ()
  in
  (sys, fun p : r ref -> Hashtbl.find refs p)

let test_store_matches_fold (module R : REPLICA) () =
  (* Split-brain, writes on both sides, merge (snapshot transfer), more
     writes — then the incremental store fed from the cursor must agree
     with the pure fold on every replica. *)
  let sys, rep = build (module R) ~seed:311 ~n:4 () in
  ignore (System.reconfigure sys ~origin:0 ~set:(Proc.Set.of_range 0 1));
  ignore (System.reconfigure sys ~origin:1 ~set:(Proc.Set.of_range 2 3));
  System.settle sys;
  R.set (rep 0) ~key:"left" ~value:"l";
  R.write (rep 2) ~client:9 ~seq:0 ~key:"right" ~value:"r";
  System.settle sys;
  ignore (System.reconfigure sys ~origin:0 ~set:(Proc.Set.of_range 0 3));
  System.settle sys;
  R.write (rep 3) ~client:9 ~seq:1 ~key:"after" ~value:"!";
  System.settle sys;
  List.iter
    (fun p ->
      let r = !(rep p) in
      let store = Kv_store.create () in
      List.iter
        (fun payload -> ignore (Kv_store.apply store payload))
        (R.ordered_from r 0);
      Alcotest.(check string)
        (Fmt.str "store digest = fold digest at %d" p)
        (Kv_store.digest_map (R.state r))
        (Kv_store.digest store);
      Alcotest.(check int)
        (Fmt.str "store version = fold version at %d" p)
        (R.version r) (Kv_store.version store);
      Alcotest.(check bool)
        (Fmt.str "write id applied at %d" p)
        true
        (Kv_store.applied store ~client:9 ~seq:1))
    [ 0; 1; 2; 3 ]

let test_store_dedups_write_ids () =
  let store = Kv_store.create () in
  let w = Replica.encode_write ~client:7 ~seq:3 ~key:"k" ~value:"v1" in
  Alcotest.(check bool) "first apply yields id" true
    (Kv_store.apply store w = Some (7, 3));
  Alcotest.(check bool) "second apply yields id again" true
    (Kv_store.apply store w = Some (7, 3));
  Alcotest.(check int) "one distinct id" 1 (Kv_store.applied_count store);
  Alcotest.(check int) "one duplicate" 1 (Kv_store.dups store);
  ignore (Kv_store.apply store "Zgarbage");
  Alcotest.(check int) "unknown tolerated" 1 (Kv_store.unknowns store);
  Alcotest.(check int) "commands counted" 3 (Kv_store.commands store)

(* -- Strict codec drift (ISSUE satellite: no silent Unknowns) -------------- *)

let test_nonstrict_counts_unknowns (module R : REPLICA) () =
  let sys, rep = build (module R) ~strict:false ~seed:411 ~n:3 () in
  ignore (System.reconfigure sys ~set:(Proc.Set.of_range 0 2));
  System.settle sys;
  R.push (rep 0) "Zmystery-command";
  R.set (rep 1) ~key:"ok" ~value:"1";
  System.settle sys;
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Fmt.str "unknown counted at %d" p)
        1
        (R.unknowns !(rep p)))
    [ 0; 1; 2 ];
  Alcotest.(check bool) "good write still applied" true
    (R.get !(rep 2) "ok" = Some "1")

let test_strict_raises_on_unknown (module R : REPLICA) () =
  (* The component default: an undecodable command reaching the totally
     ordered log is a codec bug, not data. *)
  let sys, rep = build (module R) ~strict:true ~seed:412 ~n:2 () in
  ignore (System.reconfigure sys ~set:(Proc.Set.of_range 0 1));
  System.settle sys;
  R.push (rep 0) "Zmystery-command";
  let raised =
    try
      System.settle sys;
      false
    with Replica.Codec_drift _ -> true
  in
  Alcotest.(check bool) "Codec_drift raised" true raised

(* -- Open-loop load mechanics ---------------------------------------------- *)

let conf ?(client = 100) ?(rate = 2.0) ?(count = 10) ?(key_space = 10)
    ?(value_bytes = 8) ?(retransmit_after = 0.) () =
  { Kv_load.client; rate; count; key_space; value_bytes; retransmit_after }

let test_load_open_loop_schedule () =
  let g = Kv_load.create ~start:0. (conf ~rate:2.0 ~count:10 ()) in
  Alcotest.(check int) "one due at t=0" 1 (List.length (Kv_load.due g ~now:0.));
  (* open loop: t=1 owes seq 1 (0.5) and seq 2 (1.0) even with nothing
     acked yet *)
  Alcotest.(check int) "two due at t=1" 2 (List.length (Kv_load.due g ~now:1.));
  Alcotest.(check int) "sent" 3 (Kv_load.sent g);
  Alcotest.(check int) "outstanding" 3 (Kv_load.outstanding g);
  (* a long stall does not throttle the offered rate *)
  Alcotest.(check int) "rest due at t=100" 7
    (List.length (Kv_load.due g ~now:100.));
  Alcotest.(check bool) "all sent" true (Kv_load.all_sent g);
  Alcotest.(check bool) "not finished until acked" false (Kv_load.finished g)

let test_load_ack_dedup_and_stall () =
  let g = Kv_load.create ~start:0. (conf ~rate:1.0 ~count:3 ()) in
  ignore (Kv_load.due g ~now:2.);
  let ack seq now =
    Kv_load.on_response g ~now
      (Vsgc_wire.Kv_msg.Put_ack { client = 100; seq })
  in
  ack 0 3.;
  ack 0 10.;
  (* duplicate: dropped, no stall update *)
  ack 1 10.;
  ack 2 11.;
  Alcotest.(check int) "acked dedups" 3 (Kv_load.acked g);
  Alcotest.(check int) "dup counted" 1 (Kv_load.dup_acks g);
  Alcotest.(check bool) "finished" true (Kv_load.finished g);
  (* stalls: 3-0, 10-3, 11-10 *)
  Alcotest.(check bool) "max stall is 7" true (Kv_load.max_stall g = 7.);
  let s = Kv_load.stats g in
  Alcotest.(check int) "p999 = max latency" s.Kv_load.max_latency
    s.Kv_load.p999;
  Alcotest.(check bool) "acked ids sorted" true
    (Kv_load.acked_ids g = [ (100, 0); (100, 1); (100, 2) ])

let test_load_retransmit () =
  let g =
    Kv_load.create ~start:0. (conf ~rate:10.0 ~count:1 ~retransmit_after:5. ())
  in
  Alcotest.(check int) "issue" 1 (List.length (Kv_load.due g ~now:0.));
  Alcotest.(check int) "not yet due for retx" 0
    (List.length (Kv_load.due g ~now:4.));
  Alcotest.(check int) "retransmitted" 1 (List.length (Kv_load.due g ~now:6.));
  Alcotest.(check int) "counted" 1 (Kv_load.retransmits g);
  (* latency still measured from FIRST emission *)
  Kv_load.on_response g ~now:8.
    (Vsgc_wire.Kv_msg.Put_ack { client = 100; seq = 0 });
  Alcotest.(check int) "latency from first send" 8
    (Histogram.max_value (Kv_load.histogram g))

(* -- The loopback deployment ----------------------------------------------- *)

let check_clean ~what (r : Kv_system.report) =
  Alcotest.(check int) (what ^ ": all acked") r.Kv_system.sent
    r.Kv_system.acked;
  Alcotest.(check int) (what ^ ": zero lost acks") 0 r.Kv_system.lost_acks;
  Alcotest.(check bool) (what ^ ": stores converged") true
    r.Kv_system.converged

let test_slo_quiet_run () =
  let r =
    Kv_system.slo_run ~seed:21 ~n:3 ~n_servers:1 ~homes:[ 0; 1 ] ~clients:2
      ~rate:0.5 ~count:30 ()
  in
  check_clean ~what:"quiet" r;
  Alcotest.(check int) "both loads issued fully" 60 r.Kv_system.sent;
  Alcotest.(check int) "three live stores" 3
    (List.length r.Kv_system.digests);
  Alcotest.(check bool) "latency measured" true (r.Kv_system.p50 > 0)

let partition_script =
  [
    ( 40,
      Kv_system.Partition
        [
          [ Node_id.Client 0; Node_id.Client 2; Node_id.Server 0 ];
          [ Node_id.Client 1; Node_id.Server 1 ];
        ] );
    (160, Kv_system.Heal);
  ]

let slo_partition ~batch () =
  Kv_system.slo_run ~seed:22 ~batch ~n:3 ~n_servers:2 ~homes:[ 0; 2 ]
    ~clients:2 ~rate:1.0 ~count:60 ~script:partition_script ()

let test_slo_partition_heal () =
  let r = slo_partition ~batch:false () in
  check_clean ~what:"partition-heal" r;
  (* the minority-side stall is visible but bounded: delivery resumed *)
  Alcotest.(check bool) "some stall observed" true (r.Kv_system.max_stall > 0.)

let test_slo_crash_rejoin () =
  let r =
    Kv_system.slo_run ~seed:23 ~n:3 ~n_servers:2 ~homes:[ 0; 1 ] ~clients:2
      ~rate:0.5 ~count:40
      ~script:[ (30, Kv_system.Crash 2); (120, Kv_system.Restart 2) ]
      ()
  in
  check_clean ~what:"crash-rejoin" r;
  (* the reborn node refolded to the same store as everyone else *)
  Alcotest.(check int) "all three stores back" 3
    (List.length r.Kv_system.digests)

let test_batched_equals_unbatched () =
  (* The tentpole equality: same seed, same schedule, same fault script
     — coalesced stable delivery must produce byte-identical stores
     while doing strictly fewer apply+ack rounds. *)
  let u = slo_partition ~batch:false () in
  let b = slo_partition ~batch:true () in
  check_clean ~what:"unbatched arm" u;
  check_clean ~what:"batched arm" b;
  List.iter2
    (fun (p, du) (p', db) ->
      Alcotest.(check int) "same proc" p p';
      Alcotest.(check string) (Fmt.str "digest at %d identical" p) du db)
    u.Kv_system.digests b.Kv_system.digests;
  Alcotest.(check bool)
    (Fmt.str "batched apply rounds %d < unbatched %d"
       b.Kv_system.apply_rounds u.Kv_system.apply_rounds)
    true
    (b.Kv_system.apply_rounds < u.Kv_system.apply_rounds);
  Alcotest.(check bool)
    (Fmt.str "batched wire %d <= unbatched %d" b.Kv_system.wire_delivered
       u.Kv_system.wire_delivered)
    true
    (b.Kv_system.wire_delivered <= u.Kv_system.wire_delivered)

let suite =
  [
    Alcotest.test_case "histogram: exact below 16" `Quick test_hist_small_exact;
    Alcotest.test_case "histogram: bounded error" `Quick test_hist_error_bound;
    Alcotest.test_case "histogram: merge" `Quick test_hist_merge;
  ]
  @ List.concat_map
      (fun (arm, r) ->
        [
          Alcotest.test_case ("store matches the pure fold" ^ arm) `Quick
            (test_store_matches_fold r);
          Alcotest.test_case ("non-strict replica counts unknowns" ^ arm)
            `Quick
            (test_nonstrict_counts_unknowns r);
          Alcotest.test_case ("strict replica raises on unknown" ^ arm) `Quick
            (test_strict_raises_on_unknown r);
        ])
      [ ("", gcs); (" [sym]", sym) ]
  @ [
    Alcotest.test_case "store dedups write ids" `Quick
      test_store_dedups_write_ids;
    Alcotest.test_case "load: open-loop schedule" `Quick
      test_load_open_loop_schedule;
    Alcotest.test_case "load: ack dedup and stall" `Quick
      test_load_ack_dedup_and_stall;
    Alcotest.test_case "load: retransmit" `Quick test_load_retransmit;
    Alcotest.test_case "slo: quiet run" `Quick test_slo_quiet_run;
    Alcotest.test_case "slo: partition-heal" `Quick test_slo_partition_heal;
    Alcotest.test_case "slo: crash-rejoin" `Quick test_slo_crash_rejoin;
    Alcotest.test_case "batched = unbatched, fewer rounds" `Quick
      test_batched_equals_unbatched;
  ]
