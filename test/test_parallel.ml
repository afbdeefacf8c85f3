(* Domain-parallel coverage: the pool the parallel schedule explorer
   runs on, and the domain-local buffer pools the encoders rely on.

   1. Dpool: indices are each processed exactly once whatever the
      width; the lowest-index exception is the one re-raised; nested
      [run] degrades to sequential instead of deadlocking.

   2. Bin.Pool domain-locality: concurrent encodes on distinct domains
      never share a scratch, so every frame decodes back to its packet.

   3. The explorer reports what its sequential reference does: the
      same DFS-minimal finding, and identical state and sleep-skip
      counts on an exhausted tree. The explorer runs at the host's
      width, so on a 1-core host the two are the same search. *)

open Vsgc_types
module E = Vsgc_explore
module Dpool = Vsgc_ioa.Dpool
module Frame = Vsgc_wire.Frame
module Packet = Vsgc_wire.Packet

(* -- 1. Dpool ------------------------------------------------------------ *)

let test_dpool_covers () =
  let pool = Dpool.create ~jobs:3 in
  let hits = Array.make 999 0 in
  Dpool.run pool (fun i -> hits.(i) <- hits.(i) + 1) 999;
  Dpool.shutdown pool;
  Alcotest.(check bool) "each index exactly once" true
    (Array.for_all (fun h -> h = 1) hits)

let test_dpool_lowest_exn () =
  let pool = Dpool.create ~jobs:4 in
  let attempt () =
    Dpool.run pool
      (fun i -> if i mod 7 = 3 then failwith (string_of_int i))
      100
  in
  (match attempt () with
  | () -> Alcotest.fail "expected a failure"
  | exception Failure i -> Alcotest.(check string) "lowest failing index" "3" i);
  Dpool.shutdown pool

let test_dpool_nested () =
  let pool = Dpool.create ~jobs:3 in
  let acc = Array.make 16 0 in
  Dpool.run pool
    (fun i ->
      (* a nested fan-out from inside a task runs inline *)
      Dpool.run pool (fun j -> if j = i then acc.(i) <- i * i) 16)
    16;
  Dpool.shutdown pool;
  Alcotest.(check bool) "nested run completed" true
    (Array.for_all (fun i -> acc.(i) = i * i) (Array.init 16 Fun.id))

(* -- 2. Bin.Pool domain-locality ----------------------------------------- *)

let test_pool_per_domain () =
  let pool = Dpool.create ~jobs:4 in
  let frames = Array.make 128 Bytes.empty in
  Dpool.run pool
    (fun i ->
      (* several pooled encodes per index, concurrently across domains *)
      ignore (Frame.encode (Packet.Join (i * 7)));
      frames.(i) <- Frame.encode (Packet.Join i))
    128;
  Dpool.shutdown pool;
  Array.iteri
    (fun i b ->
      match Frame.decode b with
      | Ok pkt ->
          Alcotest.(check bool) (Fmt.str "frame %d round-trips" i) true
            (Packet.equal pkt (Packet.Join i))
      | Error e -> Alcotest.failf "frame %d: %s" i (Frame.error_to_string e))
    frames;
  Alcotest.(check bool) "pool counters visible across domains" true
    (Vsgc_types.Bin.Pool.allocated () > 0)

(* -- 3. Parallel explorer = sequential explorer --------------------------- *)

let all2 = Proc.Set.of_range 0 1

let explore_sched ?mutation ?(layer = `Full) name =
  {
    E.Schedule.name;
    expect = None;
    conf = E.Sysconf.make ~seed:42 ~layer ?mutation ~n:2 ();
    entries =
      [
        E.Schedule.Env (E.Schedule.Reconfigure { origin = 0; set = all2 });
        E.Schedule.Settle;
        E.Schedule.Env (E.Schedule.Send { from = 1; payload = "m1" });
        E.Schedule.Env (E.Schedule.Start_change all2);
        E.Schedule.Env (E.Schedule.Deliver_view { origin = 1; set = all2 });
      ];
  }

(* The finding must be canonical: a later subtree finding first cancels
   only later siblings, so the parallel search reports the same
   DFS-minimal schedule as the sequential one. *)
let test_explorer_same_finding () =
  let s = explore_sched ~mutation:Vsgc_core.Vs_rfifo_ts.No_sync_wait "nsw-par" in
  let seqr = E.Explorer.explore_seq ~depth:4 s in
  let parr = E.Explorer.explore ~depth:4 s in
  match (seqr.E.Explorer.outcome, parr.E.Explorer.outcome) with
  | E.Explorer.Found (s1, v1), E.Explorer.Found (s2, v2) ->
      Alcotest.(check string) "same violation kind" v1.E.Replay.kind
        v2.E.Replay.kind;
      Alcotest.(check bool) "same DFS-minimal schedule" true
        (s1.E.Schedule.entries = s2.E.Schedule.entries)
  | o1, o2 ->
      Alcotest.failf "expected two findings, got %a / %a" E.Explorer.pp_outcome
        o1 E.Explorer.pp_outcome o2

let test_explorer_same_exhaustion () =
  let s = explore_sched "clean-par" in
  let seqr = E.Explorer.explore_seq ~depth:3 s in
  let parr = E.Explorer.explore ~depth:3 s in
  (match (seqr.E.Explorer.outcome, parr.E.Explorer.outcome) with
  | E.Explorer.Exhausted, E.Explorer.Exhausted -> ()
  | o1, o2 ->
      Alcotest.failf "expected two exhaustions, got %a / %a"
        E.Explorer.pp_outcome o1 E.Explorer.pp_outcome o2);
  Alcotest.(check int) "identical states" seqr.E.Explorer.states
    parr.E.Explorer.states;
  Alcotest.(check int) "identical sleep skips" seqr.E.Explorer.sleep_skips
    parr.E.Explorer.sleep_skips

let suite =
  [
    Alcotest.test_case "dpool: every index exactly once" `Quick test_dpool_covers;
    Alcotest.test_case "dpool: lowest-index exception wins" `Quick
      test_dpool_lowest_exn;
    Alcotest.test_case "dpool: nested run degrades to inline" `Quick
      test_dpool_nested;
    Alcotest.test_case "bin.pool: domain-local scratch never crosses" `Quick
      test_pool_per_domain;
    Alcotest.test_case "explorer: parallel finds the sequential finding"
      `Quick test_explorer_same_finding;
    Alcotest.test_case "explorer: parallel exhausts identically" `Quick
      test_explorer_same_exhaustion;
  ]
