(* The hot-path equivalence properties (qcheck).

   The incremental scheduler and the pooled wire buffers are pure
   optimisations: nothing observable may change. Two families of
   properties pin that down.

   1. Scheduler equivalence: for random seeds, schedules, and fault
      knobs, a [`Cached] executor and a [`Rescan] executor produce
      IDENTICAL trace fingerprints — under the free-running scheduler,
      the explorer's replay machinery, the round-synchronous runner,
      and the loopback (net) runtime. The fingerprint hashes every
      rendered action in order, so equality means the entire scheduling
      history (hence the RNG stream) matched decision for decision.

   2. Pool safety: frames encoded through the shared buffer pool are
      OWNED — arbitrarily interleaved encodes and decodes never alias a
      live buffer, so bytes handed out earlier are never mutated by
      later pool reuse. *)

open Vsgc_types
module E = Vsgc_explore
module Sched = E.Schedule
module System = Vsgc_harness.System
module Net_system = Vsgc_harness.Net_system
module Executor = Vsgc_ioa.Executor
module Trace_stats = Vsgc_ioa.Trace_stats
module Loopback = Vsgc_net.Loopback
module Frame = Vsgc_wire.Frame
module Packet = Vsgc_wire.Packet

let with_mode mode f = Executor.with_config { (Executor.config ()) with mode } f

(* -- Random driving scripts --------------------------------------------- *)

let n = 3

type op = Reconf of int | Send of int | Run of int | Change

let pp_op = function
  | Reconf bits -> Fmt.str "reconf(%#x)" bits
  | Send p -> Fmt.str "send(%d)" p
  | Run k -> Fmt.str "run(%d)" k
  | Change -> "change"

let entries_of_ops ops =
  let all = Proc.Set.of_range 0 (n - 1) in
  let origin = ref 0 in
  let counter = ref 0 in
  let start = [ Sched.Env (Sched.Reconfigure { origin = 0; set = all }) ] in
  start
  @ List.concat_map
      (fun op ->
        match op with
        | Reconf bits ->
            let set = Proc.Set.filter (fun p -> bits land (1 lsl p) <> 0) all in
            if Proc.Set.is_empty set then []
            else begin
              incr origin;
              [ Sched.Env (Sched.Reconfigure { origin = !origin; set }) ]
            end
        | Send p ->
            incr counter;
            [ Sched.Env (Sched.Send { from = p; payload = Fmt.str "x%d" !counter }) ]
        | Run k -> [ Sched.Run k ]
        | Change ->
            [
              Sched.Env (Sched.Start_change all);
              Sched.Env (Sched.Deliver_view { origin = 1; set = all });
            ])
      ops

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun b -> Reconf b) (int_range 1 ((1 lsl n) - 1)));
        (4, map (fun p -> Send p) (int_range 0 (n - 1)));
        (3, map (fun k -> Run k) (int_range 5 60));
        (2, return Change);
      ])

let gen_case = QCheck.Gen.(pair (int_range 0 9999) (list_size (int_range 1 6) gen_op))

let arb_case =
  QCheck.make gen_case
    ~print:(fun (seed, ops) ->
      Fmt.str "seed=%d [%s]" seed (String.concat "; " (List.map pp_op ops)))
    ~shrink:
      QCheck.Shrink.(
        fun (seed, ops) yield -> list ops (fun ops' -> yield (seed, ops')))

let fingerprint_of sys =
  Trace_stats.fingerprint (Vsgc_ioa.Executor.trace (System.exec sys))

(* -- 1a. Free-running scheduler + explorer replay ----------------------- *)

(* The replay machinery exercises [Executor.run] (Run entries), public
   [candidates]/[perform] (environment injections), and the harness's
   direct state mutations (Send pushes into the client ref) — exactly
   the paths the resync-at-public-entry rule must protect. *)
let random_runner_equivalent (seed, ops) =
  let build mode =
    with_mode mode (fun () ->
        let sys = System.create ~seed ~n ~layer:`Full ~monitors:`None () in
        E.Replay.replay sys (entries_of_ops ops);
        ignore (System.run ~max_steps:50_000 sys);
        fingerprint_of sys)
  in
  String.equal (build `Cached) (build `Rescan)

(* -- 1b. Round-synchronous runner --------------------------------------- *)

let sync_runner_equivalent (seed, ops) =
  let build mode =
    with_mode mode (fun () ->
        let sys = System.create ~seed ~n ~layer:`Full ~monitors:`None () in
        ignore (System.reconfigure sys ~set:(Proc.Set.of_range 0 (n - 1)));
        List.iter
          (function
            | Send p -> System.send sys p (Fmt.str "s%d" p)
            | Reconf _ | Run _ | Change -> ())
          ops;
        ignore (System.run_rounds ~max_rounds:200 sys);
        fingerprint_of sys)
  in
  String.equal (build `Cached) (build `Rescan)

(* -- 1c. The loopback (net) runtime, across fault knobs ------------------ *)

let gen_knobs =
  QCheck.Gen.(
    map3
      (fun delay drop reorder ->
        { Loopback.delay; drop = float_of_int drop /. 10.; reorder = float_of_int reorder /. 10. })
      (int_range 0 4) (int_range 0 4) (int_range 0 4))

let arb_net_case =
  QCheck.make
    QCheck.Gen.(pair (int_range 0 9999) gen_knobs)
    ~print:(fun (seed, k) ->
      Fmt.str "seed=%d delay=%d drop=%.1f reorder=%.1f" seed k.Loopback.delay
        k.Loopback.drop k.Loopback.reorder)

let net_runner_equivalent (seed, knobs) =
  let build mode =
    with_mode mode (fun () ->
        let net = Net_system.create ~seed ~knobs ~n () in
        ignore (Net_system.reconfigure net ~set:(Proc.Set.of_range 0 (n - 1)));
        Net_system.run net;
        Net_system.broadcast net ~senders:(Proc.Set.of_range 0 (n - 1)) ~per_sender:2;
        Net_system.run net;
        ignore (Net_system.reconfigure net ~set:(Proc.Set.of_range 0 (n - 2)));
        Net_system.run net;
        Net_system.fingerprint net)
  in
  String.equal (build `Cached) (build `Rescan)

(* -- 2. Pool safety ------------------------------------------------------ *)

(* Interleave encodes and decodes driven by a random program; every
   byte string the codec hands out must still equal a fresh re-encode
   of its packet at the end — if pool reuse ever aliased a live
   buffer, some earlier frame's bytes would have been clobbered. *)
let pool_never_aliases (seed, steps) =
  let rng = Vsgc_ioa.Rng.make seed in
  let mk_packet i =
    match i mod 4 with
    | 0 -> Packet.Hello (Vsgc_wire.Node_id.client i)
    | 1 -> Packet.Join i
    | 2 ->
        Packet.Rf
          {
            from = i;
            wire = Msg.Wire.App (Msg.App_msg.make (String.make (1 + (i mod 97)) 'x'));
          }
    | _ ->
        Packet.Start_change
          { target = i mod n; cid = i; set = Proc.Set.of_range 0 (i mod 4) }
  in
  let live = ref [] in
  for step = 0 to steps - 1 do
    match Vsgc_ioa.Rng.int rng 3 with
    | 0 ->
        let pkt = mk_packet step in
        live := (pkt, Frame.encode pkt) :: !live
    | 1 -> (
        (* decode a random live frame — decoders go through the same
           pooled machinery on the read side *)
        match !live with
        | [] -> ()
        | l ->
            let _, bytes = List.nth l (Vsgc_ioa.Rng.int rng (List.length l)) in
            ignore (Frame.decode bytes))
    | _ ->
        (* a nested encode inside a decode window's lifetime *)
        ignore (Frame.encode (mk_packet (step + 1)))
  done;
  List.for_all
    (fun (pkt, bytes) ->
      Bytes.equal bytes (Frame.encode pkt)
      && match Frame.decode bytes with
         | Ok pkt' -> Packet.equal pkt pkt'
         | Error _ -> false)
    !live

let arb_pool =
  QCheck.make
    QCheck.Gen.(pair (int_range 0 9999) (int_range 10 120))
    ~print:(fun (seed, steps) -> Fmt.str "seed=%d steps=%d" seed steps)

let suite =
  let t ?(count = 30) name arb prop =
    QCheck_alcotest.to_alcotest ~long:false
      ~rand:(Random.State.make [| 0x1407 |])
      (QCheck.Test.make ~count ~name arb prop)
  in
  [
    t "cached = rescan: free-running + explorer replay" arb_case
      random_runner_equivalent;
    t "cached = rescan: round-synchronous runner" arb_case
      sync_runner_equivalent;
    t ~count:15 "cached = rescan: loopback runtime x fault knobs" arb_net_case
      net_runner_equivalent;
    t "pooled encode/decode never aliases a live buffer" arb_pool
      pool_never_aliases;
  ]
