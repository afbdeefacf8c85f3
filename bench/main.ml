(* Benchmark harness — one section per experiment of DESIGN.md §6.

   The paper has no quantitative tables; each experiment measures one
   of its comparative claims against the sequential-rounds baseline (or
   the transfer-blind ablation), on the simulated substrate. Absolute
   numbers are substrate-dependent; the SHAPES — who wins, by what
   factor, where the gap opens — are what EXPERIMENTS.md records.

   Run with: dune exec bench/main.exe            (all experiments)
             dune exec bench/main.exe -- E1 E4   (a subset) *)

open Vsgc_types
module System = Vsgc_harness.System
module SS = Vsgc_harness.Server_system
module Executor = Vsgc_ioa.Executor
module Sync_runner = Vsgc_ioa.Sync_runner
module Metrics = Vsgc_ioa.Metrics
module Client = Vsgc_core.Client

let section id title = Fmt.pr "@.== %s: %s ==@." id title
let rowf fmt = Fmt.pr fmt

(* -- Machine-readable rows ------------------------------------------------ *)

(* A hand-rolled JSON value (the toolchain ships no JSON library, and
   the rows are flat): experiments record one object per table row;
   the driver writes them to BENCH_wire.json so tooling can track the
   wire-layer numbers across commits without scraping the tables. *)
module Json = struct
  type t =
    | Int of int
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Fmt.str "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let rec pp ppf = function
    | Int i -> Fmt.pf ppf "%d" i
    | Num f -> Fmt.pf ppf "%.3f" f
    | Str s -> Fmt.pf ppf "\"%s\"" (escape s)
    | Arr l -> Fmt.pf ppf "[@[<hv>%a@]]" Fmt.(list ~sep:(any ",@ ") pp) l
    | Obj kvs ->
        let pp_kv ppf (k, v) = Fmt.pf ppf "\"%s\": %a" (escape k) pp v in
        Fmt.pf ppf "{@[<hv>%a@]}" Fmt.(list ~sep:(any ",@ ") pp_kv) kvs
end

(* -smoke: reduced iterations and no JSON writes — the CI perf gate
   runs the hot-path experiments for shape, not for numbers. *)
let smoke = ref false

(* Every row carries the host parallelism and compiler it was measured
   under, so numbers from different machines are never compared as
   like-for-like. *)
let with_meta fields =
  fields
  @ [
      ("cores", Json.Int (Vsgc_ioa.Dpool.recommended_jobs ()));
      ("ocaml_version", Json.Str Sys.ocaml_version);
    ]

let bench_rows : Json.t list ref = ref []
let record fields = bench_rows := Json.Obj (with_meta fields) :: !bench_rows

(* The hot-path experiments (E13/E14) land in their own file so the
   executor/codec optimisation numbers are tracked separately from the
   wire-layer baseline in BENCH_wire.json. *)
let hot_rows : Json.t list ref = ref []
let record_hot fields = hot_rows := Json.Obj (with_meta fields) :: !hot_rows

(* E16's sanitizer-overhead rows track the cost of the honesty
   certificate separately from the optimisation numbers. *)
let san_rows : Json.t list ref = ref []
let record_san fields = san_rows := Json.Obj (with_meta fields) :: !san_rows

(* E17's replicated-KV-service rows (batched vs unbatched stable
   delivery, loaded and faulted arms) land in BENCH_kv.json. *)
let kv_rows : Json.t list ref = ref []
let record_kv fields = kv_rows := Json.Obj (with_meta fields) :: !kv_rows

(* E18's bake-off rows — the sequencer-based GCS arm against the
   symmetric (Skeen-style) arm, same load, same faults — land in
   BENCH_bakeoff.json. *)
let bakeoff_rows : Json.t list ref = ref []
let record_bakeoff fields = bakeoff_rows := Json.Obj (with_meta fields) :: !bakeoff_rows

let write_file file rows =
  match List.rev rows with
  | [] -> ()
  | rows ->
      let oc = open_out file in
      let ppf = Format.formatter_of_out_channel oc in
      Fmt.pf ppf "%a@." Json.pp (Json.Obj [ ("rows", Json.Arr rows) ]);
      close_out oc;
      Fmt.pr "@.wrote %s (%d rows)@." file (List.length rows)

let write_rows () =
  if not !smoke then begin
    write_file "BENCH_wire.json" !bench_rows;
    write_file "BENCH_hotpath.json" !hot_rows;
    write_file "BENCH_sanitize.json" !san_rows;
    write_file "BENCH_kv.json" !kv_rows;
    write_file "BENCH_bakeoff.json" !bakeoff_rows
  end

(* -- Round-measurement helpers ------------------------------------------- *)

(* Run synchronous rounds until [pred] holds (checked after each
   round's local phase); returns the number of rounds consumed. *)
let rounds_until ?(max_rounds = 60) sys pred =
  let exec = System.exec sys in
  ignore (Sync_runner.local_quiesce exec);
  let rec go r =
    if pred () || r >= max_rounds then r
    else begin
      ignore (Sync_runner.round exec ~make_budget:(System.round_budget sys));
      go (r + 1)
    end
  in
  go 0

let gcs_system ~seed ~n = System.create ~seed ~n ()

let baseline_system ~seed ~n =
  System.create ~seed ~n ~endpoint_builder:(fun p -> fst (Vsgc_baseline.component p)) ()

(* Establish a stable n-member view (round-synchronously, so that the
   metrics up to the measurement window are comparable across systems). *)
let establish sys ~n =
  let all = Proc.Set.of_range 0 (n - 1) in
  let v = System.reconfigure sys ~set:all in
  let r = rounds_until sys (fun () -> System.all_in_view sys v) in
  if r >= 60 then failwith "bench: initial view did not form";
  v

(* One reconfiguration, measured in communication rounds. The
   membership round costs one round; the paper's algorithm overlaps the
   synchronization round with it, the baseline runs it afterwards. *)
let measure_view_change sys ~target_set =
  let exec = System.exec sys in
  ignore (System.start_change sys ~set:target_set);
  ignore (Sync_runner.local_quiesce exec);
  (* the membership algorithm's message round; GCS synchronization
     messages travel in parallel with it *)
  ignore (Sync_runner.round exec ~make_budget:(System.round_budget sys));
  let v = System.deliver_view sys ~set:target_set in
  let extra = rounds_until sys (fun () -> System.all_in_view sys v) in
  (1 + extra, v)

(* -- E1: view-change latency in rounds ------------------------------------ *)

let e1 () =
  section "E1" "view-change latency (communication rounds)";
  rowf "%6s  %12s  %12s@." "n" "gcs" "baseline";
  List.iter
    (fun n ->
      let target = Proc.Set.of_range 0 (n - 2) in
      let gcs =
        let sys = gcs_system ~seed:11 ~n in
        ignore (establish sys ~n);
        fst (measure_view_change sys ~target_set:target)
      in
      let base =
        let sys = baseline_system ~seed:11 ~n in
        ignore (establish sys ~n);
        fst (measure_view_change sys ~target_set:target)
      in
      rowf "%6d  %12d  %12d@." n gcs base)
    [ 2; 4; 8; 16; 32 ]

(* -- E2: synchronization traffic during a view change --------------------- *)

let e2 () =
  section "E2" "traffic during one view change (copies and bytes)";
  rowf "%6s  %10s  %10s  %12s  %14s  %14s@." "n" "gcs:sync" "base:bsync" "gcs:bytes"
    "mergesync:fB" "mergesync:cB";
  let count sys k = Metrics.sent_count (Executor.metrics (System.exec sys)) k in
  let bytes sys =
    List.fold_left
      (fun acc k -> acc + Metrics.sent_bytes (Executor.metrics (System.exec sys)) k)
      0
      Msg.Wire.[ K_view_msg; K_app; K_fwd; K_sync; K_bsync ]
  in
  List.iter
    (fun n ->
      let target = Proc.Set.of_range 0 (n - 2) in
      let run build =
        let sys = build ~seed:12 ~n in
        ignore (establish sys ~n);
        let before_sync = count sys Msg.Wire.K_sync in
        let before_bsync = count sys Msg.Wire.K_bsync in
        let before_bytes = bytes sys in
        ignore (measure_view_change sys ~target_set:target);
        ( count sys Msg.Wire.K_sync - before_sync,
          count sys Msg.Wire.K_bsync - before_bsync,
          bytes sys - before_bytes )
      in
      let gs, _, gb = run gcs_system in
      let _, bb, _ = run baseline_system in
      (* the §5.2.4 compact markers pay off when the start_change set
         extends beyond the current view — measure them on a merge of
         an (n-1)-group with a singleton *)
      let merge_bytes build =
        let sys = build () in
        let grp = Proc.Set.of_range 0 (n - 2) in
        let v0 = System.reconfigure sys ~origin:0 ~set:grp in
        ignore (rounds_until sys (fun () -> System.all_in_view sys v0));
        let sync_bytes () =
          Metrics.sent_bytes (Executor.metrics (System.exec sys)) Msg.Wire.K_sync
        in
        let before = sync_bytes () in
        let v = System.reconfigure sys ~origin:1 ~set:(Proc.Set.of_range 0 (n - 1)) in
        ignore (rounds_until sys (fun () -> System.all_in_view sys v));
        sync_bytes () - before
      in
      let mb_full = merge_bytes (fun () -> System.create ~seed:12 ~n ()) in
      let mb_compact =
        merge_bytes (fun () -> System.create ~seed:12 ~compact_sync:true ~n ())
      in
      rowf "%6d  %10d  %10d  %12d  %14d  %14d@." n gs bb gb mb_full mb_compact)
    [ 2; 4; 8; 16; 32 ]

(* -- E3: forwarding strategies --------------------------------------------- *)

type e3_phase = Frozen | Lossy | Open_

let e3_run ~strategy ~m =
  let phase = ref Open_ in
  let weights (a : Action.t) =
    match a with
    | Action.Rf_deliver (2, 1, _) when !phase = Frozen -> 0.0
    | Action.Rf_lose (2, 1) when !phase = Lossy -> 1.0
    | Action.Rf_lose _ -> 0.0
    | _ -> 1.0
  in
  let sys = System.create ~seed:13 ~weights ~strategy ~n:4 () in
  let all = Proc.Set.of_range 0 3 in
  ignore (System.reconfigure sys ~set:all);
  System.settle sys;
  phase := Frozen;
  for i = 1 to m do
    System.send sys 2 (Fmt.str "lost-%d" i)
  done;
  let have p = List.length (Client.delivered_from !(System.client sys p) 2) = m in
  ignore (System.run sys ~max_steps:2_000_000 ~stop:(fun () -> have 0 && have 3));
  System.crash sys 2;
  phase := Lossy;
  ignore
    (System.run sys ~max_steps:2_000_000 ~stop:(fun () ->
         Vsgc_corfifo.channel_length !(System.corfifo sys) 2 1 = 0));
  phase := Open_;
  let before = Metrics.sent_count (Executor.metrics (System.exec sys)) Msg.Wire.K_fwd in
  ignore (System.reconfigure sys ~set:(Proc.Set.of_list [ 0; 1; 3 ]));
  System.settle ~max_steps:5_000_000 sys;
  let copies =
    Metrics.sent_count (Executor.metrics (System.exec sys)) Msg.Wire.K_fwd - before
  in
  let recovered = List.length (Client.delivered_from !(System.client sys 1) 2) in
  (copies, recovered)

let e3 () =
  section "E3" "forwarding strategies: copies forwarded to recover m messages";
  rowf "%6s  %10s  %12s  %10s@." "m" "simple" "min-copies" "recovered";
  List.iter
    (fun m ->
      let simple, r1 = e3_run ~strategy:Vsgc_core.Forwarding.Simple ~m in
      let minc, r2 = e3_run ~strategy:Vsgc_core.Forwarding.Min_copies ~m in
      assert (r1 = m && r2 = m);
      rowf "%6d  %10d  %12d  %10d@." m simple minc m)
    [ 10; 50; 100 ]

(* -- E4: stable-view throughput (bechamel) --------------------------------- *)

let e4_run ~n ~msgs () =
  let sys = System.create ~seed:14 ~monitors:`None ~n () in
  let all = Proc.Set.of_range 0 (n - 1) in
  ignore (System.reconfigure sys ~set:all);
  System.settle sys;
  System.broadcast sys ~senders:all ~per_sender:msgs;
  System.settle ~max_steps:5_000_000 sys

let e4 () =
  section "E4" "stable-view multicast cost (bechamel, whole run per config)";
  let open Bechamel in
  let test =
    Test.make_grouped ~name:"throughput"
      [
        Test.make ~name:"n=4,msgs=20" (Staged.stage (e4_run ~n:4 ~msgs:20));
        Test.make ~name:"n=8,msgs=20" (Staged.stage (e4_run ~n:8 ~msgs:20));
        Test.make ~name:"n=16,msgs=10" (Staged.stage (e4_run ~n:16 ~msgs:10));
      ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
  let raw = Benchmark.all cfg instances test in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  rowf "%-28s  %16s@." "config" "ns/run";
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> rowf "%-28s  %16.0f@." name est
      | _ -> rowf "%-28s  %16s@." name "n/a")
    results

(* -- E5: obsolete views under joins mid-change ------------------------------ *)

let e5_run build ~joins =
  let n = 4 + joins in
  let sys = build ~seed:15 ~n in
  let core = Proc.Set.of_range 0 3 in
  let v0 = System.reconfigure sys ~set:core in
  ignore (rounds_until sys (fun () -> System.all_in_view sys v0));
  (* the membership changes its mind [joins] times before settling:
     every change of mind yields a start_change and a view, queued
     back-to-back — the paper's "views already known to be out of date" *)
  let before = List.length (System.views_of sys 0) in
  let set = ref core in
  for j = 1 to joins do
    set := Proc.Set.add (3 + j) !set;
    ignore (System.reconfigure sys ~origin:j ~set:!set)
  done;
  ignore (rounds_until ~max_rounds:100 sys (fun () -> false));
  System.settle sys;
  List.length (System.views_of sys 0) - before

let e5 () =
  section "E5" "views delivered per endpoint when membership changes its mind";
  rowf "%6s  %12s  %12s@." "joins" "gcs" "baseline";
  List.iter
    (fun joins ->
      let g = e5_run (fun ~seed ~n -> gcs_system ~seed ~n) ~joins in
      let b = e5_run (fun ~seed ~n -> baseline_system ~seed ~n) ~joins in
      rowf "%6d  %12d  %12d@." joins g b)
    [ 1; 2; 4 ]

(* -- E6: delivery during reconfiguration ------------------------------------ *)

let e6_run build ~inflight =
  let n = 4 in
  let sys = build ~seed:16 ~n in
  let all = Proc.Set.of_range 0 (n - 1) in
  let v0 = System.reconfigure sys ~set:all in
  ignore (rounds_until sys (fun () -> System.all_in_view sys v0));
  System.broadcast sys ~senders:all ~per_sender:inflight;
  (* let some of the traffic drain, then reconfigure *)
  ignore (System.run sys ~max_steps:(inflight * 20));
  let mark = Executor.trace_length (System.exec sys) in
  ignore (System.reconfigure sys ~set:(Proc.Set.of_range 0 (n - 2)));
  System.settle ~max_steps:5_000_000 sys;
  let tail = List.filteri (fun i _ -> i >= mark) (Executor.trace (System.exec sys)) in
  let during = Vsgc_ioa.Trace_stats.deliveries_during_reconfiguration ~at:0 tail in
  let window =
    match Vsgc_ioa.Trace_stats.blocked_windows ~at:0 tail with w :: _ -> w | [] -> 0
  in
  (during, window)

let e6 () =
  section "E6"
    "messages delivered during reconfiguration / send-blocked window (at p0)";
  rowf "%10s  %12s  %12s  %14s  %14s@." "in-flight" "gcs" "baseline" "gcs:window"
    "base:window";
  List.iter
    (fun inflight ->
      let g, gw = e6_run (fun ~seed ~n -> gcs_system ~seed ~n) ~inflight in
      let b, bw = e6_run (fun ~seed ~n -> baseline_system ~seed ~n) ~inflight in
      rowf "%10d  %12d  %12d  %14d  %14d@." inflight g b gw bw)
    [ 10; 30 ]

(* -- E7: end-to-end with membership servers --------------------------------- *)

let e7_run ~endpoint ~n_clients ~n_servers =
  let ss =
    match endpoint with
    | `Gcs -> SS.create ~seed:17 ~n_clients ~n_servers ()
    | `Baseline ->
        SS.create ~seed:17
          ~endpoint_builder:(fun p -> fst (Vsgc_baseline.component p))
          ~n_clients ~n_servers ()
  in
  let sys = SS.sys ss in
  SS.bootstrap ss;
  let formed () =
    match System.last_view_of sys 0 with
    | Some (v, _) -> Proc.Set.cardinal (View.set v) = n_clients && System.all_in_view sys v
    | None -> false
  in
  ignore (rounds_until ~max_rounds:100 sys formed);
  (* the measured reconfiguration: the last client leaves *)
  SS.leave ss (n_clients - 1);
  let survivors_in_view () =
    match System.last_view_of sys 0 with
    | Some (v, _) ->
        Proc.Set.cardinal (View.set v) = n_clients - 1
        && Proc.Set.for_all
             (fun p ->
               match System.last_view_of sys p with
               | Some (v', _) -> View.equal v v'
               | None -> false)
             (View.set v)
    | None -> false
  in
  rounds_until ~max_rounds:100 sys survivors_in_view

let e7 () =
  section "E7" "end-to-end reconfiguration rounds through membership servers";
  rowf "%6s  %8s  %12s  %12s@." "n" "servers" "gcs" "baseline";
  List.iter
    (fun (n_clients, n_servers) ->
      let g = e7_run ~endpoint:`Gcs ~n_clients ~n_servers in
      let b = e7_run ~endpoint:`Baseline ~n_clients ~n_servers in
      rowf "%6d  %8d  %12d  %12d@." n_clients n_servers g b)
    [ (4, 1); (8, 2); (16, 3) ]

(* -- E8: transitional-set-aware state transfer ------------------------------- *)

let e8_run ~transfer_blind ~g =
  let n = 2 * g in
  let refs = Hashtbl.create 16 in
  let sys =
    System.create ~seed:18 ~n
      ~client_builder:(fun p ->
        let c, r = Vsgc_replication.Replica.component ~transfer_blind p in
        Hashtbl.replace refs p r;
        c)
      ()
  in
  let left = Proc.Set.of_range 0 (g - 1) in
  let right = Proc.Set.of_range g (n - 1) in
  ignore (System.reconfigure sys ~origin:0 ~set:left);
  ignore (System.reconfigure sys ~origin:1 ~set:right);
  System.settle sys;
  for i = 1 to 8 do
    Vsgc_replication.Replica.set (Hashtbl.find refs 0) ~key:(Fmt.str "l%d" i) ~value:"v";
    Vsgc_replication.Replica.set (Hashtbl.find refs g) ~key:(Fmt.str "r%d" i) ~value:"v"
  done;
  System.settle sys;
  ignore (System.reconfigure sys ~origin:0 ~set:(Proc.Set.of_range 0 (n - 1)));
  System.settle sys;
  (* one further stable change: with T, free; blind, full re-transfer *)
  ignore (System.reconfigure sys ~origin:0 ~set:(Proc.Set.of_range 0 (n - 1)));
  System.settle sys;
  Hashtbl.fold
    (fun _ r (cnt, bytes) ->
      ( cnt + !r.Vsgc_replication.Replica.snapshots_sent,
        bytes + !r.Vsgc_replication.Replica.snapshot_bytes ))
    refs (0, 0)

let e8 () =
  section "E8" "state-transfer cost: snapshots multicast (count/bytes)";
  rowf "%12s  %16s  %16s@." "group size" "with T" "blind";
  List.iter
    (fun g ->
      let tc, tb = e8_run ~transfer_blind:false ~g in
      let bc, bb = e8_run ~transfer_blind:true ~g in
      rowf "%12d  %9d/%-6d  %9d/%-6d@." g tc tb bc bb)
    [ 2; 4; 8 ]

(* -- E9: the §9 two-tier hierarchy ablation ----------------------------------- *)

let e9 () =
  section "E9" "two-tier hierarchy: sync copies vs rounds for one view change";
  rowf "%6s  %6s  %14s  %14s  %10s  %10s@." "n" "g" "direct:copies" "hier:copies"
    "direct:r" "hier:r";
  let copies sys =
    let m = Executor.metrics (System.exec sys) in
    Metrics.sent_count m Msg.Wire.K_sync + Metrics.sent_count m Msg.Wire.K_sync_batch
  in
  List.iter
    (fun (n, g) ->
      let run ?hierarchy () =
        let sys = System.create ~seed:19 ?hierarchy ~n () in
        ignore (establish sys ~n);
        let before = copies sys in
        let rounds, _ = measure_view_change sys ~target_set:(Proc.Set.of_range 0 (n - 2)) in
        (copies sys - before, rounds)
      in
      let dc, dr = run () in
      let hc, hr = run ~hierarchy:g () in
      rowf "%6d  %6d  %14d  %14d  %10d  %10d@." n g dc hc dr hr)
    [ (8, 2); (16, 4); (32, 4); (32, 6) ]

(* -- E11: wire-layer throughput ----------------------------------------------- *)

(* The transport runtime's raw costs, wall-clock measured: framing
   codec throughput per payload size, and the full
   encode -> loopback hub -> decode round trip. These are the only
   wall-clock numbers in the suite (everything else counts rounds or
   messages), so they also land in BENCH_wire.json. *)

module Packet = Vsgc_wire.Packet
module Frame = Vsgc_wire.Frame
module Node_id = Vsgc_wire.Node_id
module Loopback = Vsgc_net.Loopback
module Transport = Vsgc_net.Transport

let e11 () =
  section "E11" "wire throughput: codec msgs/sec, loopback round trip";
  rowf "%10s  %9s  %14s  %14s@." "payload B" "frame B" "encode msg/s" "decode msg/s";
  let iters = 100_000 in
  let timed f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  List.iter
    (fun size ->
      let pkt =
        Packet.Rf { from = 0; wire = Msg.Wire.App (Msg.App_msg.make (String.make size 'x')) }
      in
      let frame = Frame.encode pkt in
      let te = timed (fun () -> for _ = 1 to iters do ignore (Frame.encode pkt) done) in
      let td =
        timed (fun () ->
            for _ = 1 to iters do
              match Frame.decode frame with
              | Ok _ -> ()
              | Error _ -> failwith "bench: own frame rejected"
            done)
      in
      let eps = float_of_int iters /. te and dps = float_of_int iters /. td in
      rowf "%10d  %9d  %14.0f  %14.0f@." size (Bytes.length frame) eps dps;
      record
        [
          ("experiment", Json.Str "wire_codec");
          ("payload_bytes", Json.Int size);
          ("frame_bytes", Json.Int (Bytes.length frame));
          ("encode_msgs_per_sec", Json.Num eps);
          ("decode_msgs_per_sec", Json.Num dps);
        ])
    [ 16; 256; 4096 ];
  (* Round trip through the loopback transport: every leg frames on
     send and decodes on delivery, so this prices the whole wire path
     minus the kernel. *)
  let hub = Loopback.hub ~seed:7 () in
  let a = Loopback.attach hub (Node_id.client 0) in
  let b = Loopback.attach hub (Node_id.client 1) in
  Transport.connect a (Node_id.client 1);
  ignore (Transport.recv a);
  ignore (Transport.recv b);
  let ping = Packet.Rf { from = 0; wire = Msg.Wire.App (Msg.App_msg.make "ping") } in
  let rec pump tr =
    match Transport.recv tr with
    | [] ->
        Loopback.tick hub;
        pump tr
    | evs -> evs
  in
  let rtts = 20_000 in
  let dt =
    timed (fun () ->
        for _ = 1 to rtts do
          Transport.send a (Node_id.client 1) ping;
          ignore (pump b);
          Transport.send b (Node_id.client 0) ping;
          ignore (pump a)
        done)
  in
  let rtt_us = dt /. float_of_int rtts *. 1e6 in
  let mps = float_of_int (2 * rtts) /. dt in
  rowf "@.%-28s  %10.2f us  (%10.0f msg/s)@." "loopback round trip" rtt_us mps;
  record
    [
      ("experiment", Json.Str "loopback_roundtrip");
      ("round_trips", Json.Int rtts);
      ("rtt_us", Json.Num rtt_us);
      ("msgs_per_sec", Json.Num mps);
    ]

(* -- E13: executor scheduling throughput (cached vs rescan) ------------------- *)

(* The incremental scheduler against the full-rescan reference, on the
   workloads that dominate every experiment above: the free-running
   random scheduler and the round-synchronous runner, across system
   sizes. Both modes are run on identical seeds; the step counts must
   agree exactly (the modes are behaviourally equivalent — that is the
   qcheck-verified contract), so the steps/sec ratio is a pure
   like-for-like scheduling-cost comparison. *)

let e13_run ~mode ~sync ~n ~reps =
  Executor.with_config { (Executor.config ()) with mode } (fun () ->
      let sys = System.create ~seed:21 ~monitors:`None ~n () in
      let all = Proc.Set.of_range 0 (n - 1) in
      ignore (System.reconfigure sys ~set:all);
      System.settle sys;
      let m = Executor.metrics (System.exec sys) in
      let s0 = Metrics.steps m in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        System.broadcast sys ~senders:all ~per_sender:2;
        if sync then ignore (System.run_rounds ~max_rounds:400 sys)
        else System.settle ~max_steps:10_000_000 sys
      done;
      let dt = Unix.gettimeofday () -. t0 in
      let steps = Metrics.steps m - s0 in
      (float_of_int steps /. dt, steps, Vsgc_ioa.Trace_stats.counters m))

let e13 () =
  section "E13" "executor scheduling: steps/sec, cached vs full rescan";
  rowf "%6s  %8s  %14s  %14s  %9s  %10s@." "n" "mode" "cached st/s" "rescan st/s"
    "speedup" "hit rate";
  List.iter
    (fun n ->
      let reps = if !smoke then 1 else max 2 (128 / n) in
      List.iter
        (fun (label, sync) ->
          let c_sps, c_steps, ctr = e13_run ~mode:`Cached ~sync ~n ~reps in
          let r_sps, r_steps, _ = e13_run ~mode:`Rescan ~sync ~n ~reps in
          if c_steps <> r_steps then
            failwith
              (Fmt.str "E13: modes diverged at n=%d %s: %d vs %d steps" n label
                 c_steps r_steps);
          let hit_rate =
            let total = ctr.Vsgc_ioa.Trace_stats.cand_hits + ctr.cand_misses in
            if total = 0 then 0.0
            else float_of_int ctr.cand_hits /. float_of_int total
          in
          rowf "%6d  %8s  %14.0f  %14.0f  %8.2fx  %9.1f%%@." n label c_sps r_sps
            (c_sps /. r_sps) (100. *. hit_rate);
          record_hot
            [
              ("experiment", Json.Str "executor_steps");
              ("n", Json.Int n);
              ("workload", Json.Str label);
              ("steps", Json.Int c_steps);
              ("cached_steps_per_sec", Json.Num c_sps);
              ("rescan_steps_per_sec", Json.Num r_sps);
              ("speedup", Json.Num (c_sps /. r_sps));
              ("cand_hit_rate", Json.Num hit_rate);
            ])
        [ ("random", false); ("sync", true) ])
    [ 4; 8; 16; 32 ]

(* -- E14: hot-path codec + transport throughput -------------------------------- *)

(* The zero-copy encode path against the pre-optimisation two-buffer
   path, replicated here cost-for-cost: a fresh 64-byte growable body
   buffer (doubling growth from a fixed hint), one copy out of it,
   then a second whole-frame copy behind the header. *)
let legacy_frame_encode pkt =
  let body =
    let b = Bin.Wbuf.create 64 in
    Packet.write b pkt;
    Bin.Wbuf.to_bytes b
  in
  let n = Bytes.length body in
  let frame = Bytes.create (Frame.header_len + n) in
  Bytes.set frame 0 'V';
  Bytes.set frame 1 'G';
  Bytes.set frame 2 (Char.chr Frame.version);
  Bytes.set frame 3 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set frame 4 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set frame 5 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set frame 6 (Char.chr (n land 0xff));
  Bytes.blit body 0 frame Frame.header_len n;
  frame

let e14 () =
  section "E14" "hot-path codec + transport: legacy vs pooled vs batched";
  let iters = if !smoke then 2_000 else 100_000 in
  let timed f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  rowf "%10s  %13s  %13s  %13s  %13s  %9s@." "payload B" "legacy e/s"
    "pooled e/s" "batched e/s" "decode m/s" "speedup";
  List.iter
    (fun size ->
      let pkt =
        Packet.Rf
          { from = 0; wire = Msg.Wire.App (Msg.App_msg.make (String.make size 'x')) }
      in
      let frame = Frame.encode pkt in
      if not (Bytes.equal frame (legacy_frame_encode pkt)) then
        failwith "E14: legacy and pooled encodes disagree";
      let tl =
        timed (fun () -> for _ = 1 to iters do ignore (legacy_frame_encode pkt) done)
      in
      (* the pooled path: scratch reuse, one copy out *)
      let tp = timed (fun () -> for _ = 1 to iters do ignore (Frame.encode pkt) done) in
      (* the batched path TCP runs: frames appended to one long-lived
         buffer, drained (cleared) as a flush would *)
      let batch = Bin.Wbuf.create 65536 in
      let tb =
        timed (fun () ->
            for _ = 1 to iters do
              Frame.encode_into batch pkt;
              if Bin.Wbuf.length batch > 60_000 then Bin.Wbuf.clear batch
            done)
      in
      let td =
        timed (fun () ->
            for _ = 1 to iters do
              match Frame.decode frame with
              | Ok _ -> ()
              | Error _ -> failwith "E14: own frame rejected"
            done)
      in
      let per t = float_of_int iters /. t in
      rowf "%10d  %13.0f  %13.0f  %13.0f  %13.0f  %8.2fx@." size (per tl) (per tp)
        (per tb) (per td)
        (per tb /. per tl);
      record_hot
        [
          ("experiment", Json.Str "codec_hotpath");
          ("payload_bytes", Json.Int size);
          ("legacy_encode_msgs_per_sec", Json.Num (per tl));
          ("pooled_encode_msgs_per_sec", Json.Num (per tp));
          ("batched_encode_msgs_per_sec", Json.Num (per tb));
          ("decode_msgs_per_sec", Json.Num (per td));
          ("batched_vs_legacy_speedup", Json.Num (per tb /. per tl));
        ])
    [ 16; 256; 1024; 4096 ];
  (* Transport leg: one-way loopback throughput per payload size — the
     scratch-encode, in-place-decode path end to end (frame on send,
     decode on delivery). *)
  rowf "@.%10s  %14s@." "payload B" "loopback m/s";
  let batch = 64 in
  let rounds = max 1 (iters / batch) in
  List.iter
    (fun size ->
      let hub = Loopback.hub ~seed:9 () in
      let a = Loopback.attach hub (Node_id.client 0) in
      let b = Loopback.attach hub (Node_id.client 1) in
      Transport.connect a (Node_id.client 1);
      ignore (Transport.recv a);
      ignore (Transport.recv b);
      let pkt =
        Packet.Rf
          { from = 0; wire = Msg.Wire.App (Msg.App_msg.make (String.make size 'x')) }
      in
      let got = ref 0 in
      let dt =
        timed (fun () ->
            for _ = 1 to rounds do
              for _ = 1 to batch do
                Transport.send a (Node_id.client 1) pkt
              done;
              while !got < batch do
                Loopback.tick hub;
                got := !got + List.length (Transport.recv b)
              done;
              got := 0
            done)
      in
      let mps = float_of_int (rounds * batch) /. dt in
      rowf "%10d  %14.0f@." size mps;
      record_hot
        [
          ("experiment", Json.Str "loopback_throughput");
          ("payload_bytes", Json.Int size);
          ("msgs_per_sec", Json.Num mps);
        ])
    [ 16; 256; 1024; 4096 ]


(* -- E16: effect-sanitizer overhead ------------------------------------------- *)

(* What the honesty certificate costs on the scheduling hot path: the
   E13 random workload with the sanitizer off vs collecting. The
   sanitizer contract (DESIGN.md Â§14, qcheck-verified) is that it
   consumes no randomness and restores race replays by value, so both
   runs take the SAME steps and end on the SAME trace fingerprint â
   asserted here, which makes steps/sec a pure overhead measurement â
   and a shipped-component violation fails the bench outright. *)

let e16_run ~sanitize ~n ~reps =
  Executor.with_config { (Executor.config ()) with sanitize } (fun () ->
      let sys = System.create ~seed:23 ~monitors:`None ~n () in
      let all = Proc.Set.of_range 0 (n - 1) in
      ignore (System.reconfigure sys ~set:all);
      System.settle sys;
      let exec = System.exec sys in
      let m = Executor.metrics exec in
      let s0 = Metrics.steps m in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        System.broadcast sys ~senders:all ~per_sender:2;
        System.settle ~max_steps:10_000_000 sys
      done;
      let dt = Unix.gettimeofday () -. t0 in
      let steps = Metrics.steps m - s0 in
      let viol =
        match Executor.sanitizer exec with
        | Some s -> Vsgc_ioa.Sanitizer.violations s
        | None -> 0
      in
      ( float_of_int steps /. dt,
        steps,
        Vsgc_ioa.Trace_stats.fingerprint (Executor.trace exec),
        viol ))

let e16 () =
  section "E16" "effect sanitizer: steps/sec off vs collecting";
  rowf "%6s  %14s  %14s  %9s@." "n" "off st/s" "sanitized st/s" "overhead";
  List.iter
    (fun n ->
      let reps = if !smoke then 1 else max 2 (128 / n) in
      let off_sps, off_steps, off_fp, _ = e16_run ~sanitize:None ~n ~reps in
      let on_sps, on_steps, on_fp, viol =
        e16_run ~sanitize:(Some `Collect) ~n ~reps
      in
      if off_steps <> on_steps || not (String.equal off_fp on_fp) then
        failwith
          (Fmt.str "E16: sanitizer perturbed the run at n=%d: %d/%s vs %d/%s" n
             off_steps off_fp on_steps on_fp);
      if viol <> 0 then
        failwith (Fmt.str "E16: %d footprint violations at n=%d" viol n);
      rowf "%6d  %14.0f  %14.0f  %8.2fx@." n off_sps on_sps (off_sps /. on_sps);
      record_san
        [
          ("experiment", Json.Str "sanitizer_overhead");
          ("n", Json.Int n);
          ("steps", Json.Int off_steps);
          ("off_steps_per_sec", Json.Num off_sps);
          ("sanitized_steps_per_sec", Json.Num on_sps);
          ("overhead_factor", Json.Num (off_sps /. on_sps));
        ])
    [ 8; 32 ]

(* -- E17: replicated KV service — batched stable delivery under load ----------- *)

(* The KV service (DESIGN.md §15) on the loopback deployment: an
   open-loop generator offers a fixed write rate; the batched arm
   coalesces the sequencer's announcement backlog and applies
   contiguous stable commands in one apply+ack round. Both arms must
   produce byte-identical stores on the identical command log (the
   correctness gate, asserted in every mode); the batched arm must do
   strictly fewer apply rounds and ship fewer packets, which is where
   its throughput win comes from. The faulted arm reruns the load
   across a partition-heal script and gates the SLO: zero lost
   acknowledged writes, bounded client-visible stall. *)

module Kv_system = Vsgc_kv.Kv_system

let e17 () =
  section "E17"
    "replicated KV service: open-loop load, batched stable delivery, SLO";
  let count = if !smoke then 80 else 600 in
  let rate = 2.0 (* writes per tick per client: saturates the sequencer *) in
  let homes = [ 0; 2 ] and clients = 2 in
  let partition_script =
    [
      ( 40,
        Kv_system.Partition
          [
            [
              Vsgc_wire.Node_id.Client 0;
              Vsgc_wire.Node_id.Client 2;
              Vsgc_wire.Node_id.Server 0;
            ];
            [ Vsgc_wire.Node_id.Client 1; Vsgc_wire.Node_id.Server 1 ];
          ] );
      (160, Kv_system.Heal);
    ]
  in
  let run ?(script = []) ~batch () =
    let t0 = Unix.gettimeofday () in
    let r =
      Kv_system.slo_run ~seed:17 ~batch ~n:3 ~n_servers:2 ~homes ~clients
        ~rate ~count ~script ()
    in
    (r, Unix.gettimeofday () -. t0)
  in
  let arm ~name ~batch (r : Kv_system.report) wall =
    let cmds_per_sec = float_of_int r.Kv_system.acked /. wall in
    rowf
      "  %-22s acked=%d/%d cmds/s=%.0f p50=%d p99=%d p999=%d stall=%.0f \
       apply_rounds=%d wire=%d lost=%d@."
      name r.Kv_system.acked r.Kv_system.sent cmds_per_sec r.Kv_system.p50
      r.Kv_system.p99 r.Kv_system.p999 r.Kv_system.max_stall
      r.Kv_system.apply_rounds r.Kv_system.wire_delivered r.Kv_system.lost_acks;
    record_kv
      [
        ("exp", Json.Str "E17");
        ("arm", Json.Str name);
        ("batch", Json.Str (string_of_bool batch));
        ("clients", Json.Int clients);
        ("rate", Json.Num rate);
        ("count", Json.Int count);
        ("sent", Json.Int r.Kv_system.sent);
        ("acked", Json.Int r.Kv_system.acked);
        ("lost_acks", Json.Int r.Kv_system.lost_acks);
        ("dup_acks", Json.Int r.Kv_system.dup_acks);
        ("cmds_per_sec", Json.Num cmds_per_sec);
        ("p50_ticks", Json.Int r.Kv_system.p50);
        ("p99_ticks", Json.Int r.Kv_system.p99);
        ("p999_ticks", Json.Int r.Kv_system.p999);
        ("max_stall_ticks", Json.Num r.Kv_system.max_stall);
        ("apply_rounds", Json.Int r.Kv_system.apply_rounds);
        ("wire_delivered", Json.Int r.Kv_system.wire_delivered);
        ("converged", Json.Str (string_of_bool r.Kv_system.converged));
      ];
    cmds_per_sec
  in
  let check ~what (r : Kv_system.report) =
    if r.Kv_system.acked <> r.Kv_system.sent then
      failwith
        (Fmt.str "E17 %s: %d/%d acked" what r.Kv_system.acked r.Kv_system.sent);
    if r.Kv_system.lost_acks <> 0 then
      failwith (Fmt.str "E17 %s: %d lost acks" what r.Kv_system.lost_acks);
    if not r.Kv_system.converged then
      failwith (Fmt.str "E17 %s: stores diverged" what)
  in
  let u, uw = run ~batch:false () in
  let b, bw = run ~batch:true () in
  check ~what:"unbatched" u;
  check ~what:"batched" b;
  (* the correctness gate: same command log => same store bytes,
     whatever the delivery batching *)
  List.iter2
    (fun (p, du) (p', db) ->
      if p <> p' || not (String.equal du db) then
        failwith (Fmt.str "E17: batched arm store diverged at p%d" p))
    u.Kv_system.digests b.Kv_system.digests;
  if b.Kv_system.apply_rounds >= u.Kv_system.apply_rounds then
    failwith
      (Fmt.str "E17: batching did not reduce apply rounds (%d vs %d)"
         b.Kv_system.apply_rounds u.Kv_system.apply_rounds);
  let ut = arm ~name:"loaded/unbatched" ~batch:false u uw in
  let bt = arm ~name:"loaded/batched" ~batch:true b bw in
  if (not !smoke) && bt <= ut then
    failwith
      (Fmt.str "E17: batched throughput %.0f <= unbatched %.0f at saturation"
         bt ut);
  let f, fw = run ~batch:true ~script:partition_script () in
  check ~what:"faulted" f;
  if f.Kv_system.max_stall > 600.0 then
    failwith (Fmt.str "E17 faulted: stall %.0f ticks" f.Kv_system.max_stall);
  ignore (arm ~name:"faulted/partition-heal" ~batch:true f fw);
  rowf "  batching: %dx fewer apply rounds, %.2fx fewer wire packets@."
    (u.Kv_system.apply_rounds / max 1 b.Kv_system.apply_rounds)
    (float_of_int u.Kv_system.wire_delivered
    /. float_of_int (max 1 b.Kv_system.wire_delivered))

(* -- E18: the bake-off — sequencer (GCS) vs symmetric (Skeen) total order ------ *)

(* Both total-order arms of DESIGN.md §16, head-to-head on the wire:
   the same KV edge, the same open-loop generator and histogram, the
   same chaos fault schedules (partition-heal, crash-rejoin,
   lossy-spike), at n in {3,5,8} — only the ordering protocol differs.
   Every run is spec-checked: the GCS arm carries the networked
   service-level battery, the symmetric arm additionally carries the
   Skeen delivery-condition monitor, and a monitor violation fails the
   bench outright. The correctness gate across arms: unique keys per
   write mean the final stores are order-independent, so the two arms'
   stores must be byte-identical whenever both apply the same command
   set — asserted per mode, per n. *)

let e18 () =
  section "E18"
    "bake-off: sequencer (GCS) vs symmetric (Skeen) total order on the wire";
  let count = if !smoke then 60 else 300 in
  let rate = 2.0 and homes = [ 0; 2 ] and clients = 2 in
  let quiet_knobs = { Loopback.default_knobs with Loopback.delay = 1 } in
  let scripts n =
    let others =
      List.filter_map
        (fun p -> if p = 0 || p = 2 then None else Some (Node_id.Client p))
        (List.init n Fun.id)
    in
    let split =
      [
        [ Node_id.Client 0; Node_id.Client 2; Node_id.Server 0 ];
        Node_id.Server 1 :: others;
      ]
    in
    [
      ("quiet", [], 0.0);
      ( "partition-heal",
        [ (40, Kv_system.Partition split); (160, Kv_system.Heal) ],
        0.0 );
      ( "crash-rejoin",
        [ (50, Kv_system.Crash 1); (150, Kv_system.Restart 1) ],
        0.0 );
      (* Dropped KV packets are invisible to the ordering layer, so the
         lossy mode arms the load generator's retransmission. *)
      ( "lossy-spike",
        [
          ( 20,
            Kv_system.Spike
              { Loopback.delay = 2; drop = 0.2; reorder = 0.25 } );
          (120, Kv_system.Spike quiet_knobs);
        ],
        80.0 );
    ]
  in
  rowf "%4s %6s %16s  %9s  %7s %5s %5s %6s  %9s  %10s@." "n" "arm" "mode"
    "acked" "cmds/s" "p50" "p99" "p999" "wire pkts" "wire bytes";
  List.iter
    (fun n ->
      List.iter
        (fun (mode, script, retransmit_after) ->
          let run arm =
            let t0 = Unix.gettimeofday () in
            let r =
              Kv_system.slo_run ~seed:18 ~batch:true ~arm
                ~monitors:(Vsgc_spec.All.net_arm arm) ~n ~n_servers:2 ~homes ~clients
                ~rate ~count ~retransmit_after ~script ()
            in
            (r, Unix.gettimeofday () -. t0)
          in
          let check arm (r : Kv_system.report) =
            let what = Fmt.str "%s/%s n=%d" arm mode n in
            if r.Kv_system.acked <> r.Kv_system.sent then
              failwith
                (Fmt.str "E18 %s: %d/%d acked" what r.Kv_system.acked
                   r.Kv_system.sent);
            if r.Kv_system.lost_acks <> 0 then
              failwith (Fmt.str "E18 %s: %d lost acks" what r.Kv_system.lost_acks);
            if not r.Kv_system.converged then
              failwith (Fmt.str "E18 %s: stores diverged" what)
          in
          let row name (r : Kv_system.report) wall =
            let cmds_per_sec = float_of_int r.Kv_system.acked /. wall in
            rowf "%4d %6s %16s  %4d/%-4d  %7.0f %5d %5d %6d  %9d  %10d@." n
              name mode r.Kv_system.acked r.Kv_system.sent cmds_per_sec
              r.Kv_system.p50 r.Kv_system.p99 r.Kv_system.p999
              r.Kv_system.wire_delivered r.Kv_system.wire_bytes;
            record_bakeoff
              [
                ("exp", Json.Str "E18");
                ("arm", Json.Str name);
                ("mode", Json.Str mode);
                ("n", Json.Int n);
                ("clients", Json.Int clients);
                ("rate", Json.Num rate);
                ("count", Json.Int count);
                ("sent", Json.Int r.Kv_system.sent);
                ("acked", Json.Int r.Kv_system.acked);
                ("lost_acks", Json.Int r.Kv_system.lost_acks);
                ("retransmits", Json.Int r.Kv_system.retransmits);
                ("cmds_per_sec", Json.Num cmds_per_sec);
                ("p50_ticks", Json.Int r.Kv_system.p50);
                ("p99_ticks", Json.Int r.Kv_system.p99);
                ("p999_ticks", Json.Int r.Kv_system.p999);
                ("max_stall_ticks", Json.Num r.Kv_system.max_stall);
                ("rounds", Json.Int r.Kv_system.rounds);
                ("wire_delivered", Json.Int r.Kv_system.wire_delivered);
                ("wire_bytes", Json.Int r.Kv_system.wire_bytes);
                ("converged", Json.Str (string_of_bool r.Kv_system.converged));
              ]
          in
          let g, gw = run `Gcs in
          let s, sw = run `Sym in
          check "gcs" g;
          check "sym" s;
          (* cross-arm gate: unique keys, same command set => same bytes *)
          List.iter
            (fun (p, dg) ->
              match List.assoc_opt p s.Kv_system.digests with
              | Some ds when String.equal dg ds -> ()
              | Some _ ->
                  failwith
                    (Fmt.str "E18 %s n=%d: arms disagree on p%d's store" mode n
                       p)
              | None -> ())
            g.Kv_system.digests;
          row "gcs" g gw;
          row "sym" s sw)
        (scripts n))
    [ 3; 5; 8 ]

(* -- Driver ------------------------------------------------------------------ *)

let all : (string * string * (unit -> unit)) list =
  [
    ("E1", "view-change rounds", e1);
    ("E2", "sync-message overhead", e2);
    ("E3", "forwarding strategies", e3);
    ("E4", "throughput", e4);
    ("E5", "obsolete views", e5);
    ("E6", "delivery during reconfiguration", e6);
    ("E7", "client-server end-to-end", e7);
    ("E8", "state transfer", e8);
    ("E9", "two-tier hierarchy ablation", e9);
    ("E11", "wire throughput", e11);
    ("E13", "executor scheduling cached vs rescan", e13);
    ("E14", "hot-path codec + transport", e14);
    ("E16", "effect-sanitizer overhead", e16);
    ("E17", "replicated KV service: load, batching, SLO", e17);
    ("E18", "total-order bake-off: GCS sequencer vs symmetric Skeen", e18);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  smoke := List.mem "-smoke" args;
  let requested = List.filter (fun a -> a <> "-smoke") args in
  let selected =
    if requested = [] then all
    else List.filter (fun (id, _, _) -> List.mem id requested) all
  in
  Fmt.pr "vsgc benchmark harness — experiments %a%s@."
    Fmt.(list ~sep:(any ",") string)
    (List.map (fun (id, _, _) -> id) selected)
    (if !smoke then " (smoke: reduced iterations, no JSON)" else "");
  List.iter (fun (_, _, f) -> f ()) selected;
  write_rows ();
  Fmt.pr "@.done.@."
