(* The symmetric (logical-timestamp) total order: agreement everywhere,
   consistency across view changes, and the traffic/latency tradeoff
   against the sequencer variant — the two endpoints of [13]'s adaptive
   protocol, both atop the same WV_RFIFO substrate — plus the
   blocking-client shell of Figure 12, tested once over each of its
   instances: the scripted client and both arms. *)

open Vsgc_types
module System = Vsgc_harness.System
module Sym = Vsgc_totalorder.Tord_sym_client
module Seq = Vsgc_totalorder.Tord_client

let build_sym ~seed ~n =
  let refs = Hashtbl.create 8 in
  let sys =
    System.create ~seed ~n
      ~client_builder:(fun p ->
        let c, r = Sym.component p in
        Hashtbl.replace refs p r;
        c)
      ()
  in
  (sys, fun p -> Hashtbl.find refs p)

let orders_equal a b =
  List.length a = List.length b
  && List.for_all2 (fun (p, s) (q, t) -> Proc.equal p q && String.equal s t) a b

let test_agreement () =
  let sys, sym = build_sym ~seed:151 ~n:3 in
  ignore (System.reconfigure sys ~set:(Proc.Set.of_range 0 2));
  System.settle sys;
  List.iter
    (fun p ->
      for i = 1 to 5 do
        Sym.push (sym p) (Fmt.str "s%d.%d" p i)
      done)
    [ 0; 1; 2 ];
  System.settle sys;
  let o0 = Sym.total_order !(sym 0) in
  Alcotest.(check int) "all ordered" 15 (List.length o0);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Fmt.str "p%d agrees" p)
        true
        (orders_equal o0 (Sym.total_order !(sym p))))
    [ 1; 2 ]

let test_order_respects_timestamps () =
  (* entries come out sorted per view segment by (ts, sender) *)
  let sys, sym = build_sym ~seed:152 ~n:2 in
  ignore (System.reconfigure sys ~set:(Proc.Set.of_range 0 1));
  System.settle sys;
  Sym.push (sym 0) "a";
  Sym.push (sym 0) "b";
  Sym.push (sym 1) "c";
  System.settle sys;
  let o = Sym.total_order !(sym 0) in
  (* p0's a,b keep their relative order; all three present *)
  let payloads = List.map snd o in
  Alcotest.(check int) "three entries" 3 (List.length o);
  Alcotest.(check bool) "a before b" true
    (let rec idx x i = function
       | [] -> -1
       | y :: _ when String.equal x y -> i
       | _ :: r -> idx x (i + 1) r
     in
     idx "a" 0 payloads < idx "b" 0 payloads)

let test_across_view_change () =
  let sys, sym = build_sym ~seed:153 ~n:3 in
  ignore (System.reconfigure sys ~set:(Proc.Set.of_range 0 2));
  System.settle sys;
  List.iter (fun p -> Sym.push (sym p) (Fmt.str "pre%d" p)) [ 0; 1; 2 ];
  (match System.run sys ~max_steps:150 with _ -> ());
  ignore (System.reconfigure sys ~set:(Proc.Set.of_range 0 1));
  System.settle sys;
  List.iter (fun p -> Sym.push (sym p) (Fmt.str "post%d" p)) [ 0; 1 ];
  System.settle sys;
  let o0 = Sym.total_order !(sym 0) in
  let o1 = Sym.total_order !(sym 1) in
  Alcotest.(check bool) "survivors agree across the change" true (orders_equal o0 o1);
  Alcotest.(check int) "all five ordered" 5 (List.length o0)

(* The tradeoff against the sequencer variant: symmetric ordering costs
   O(n²) ack copies per multicast but no sequencer hotspot; the
   sequencer costs O(n) announcement copies. *)
let test_traffic_tradeoff () =
  let app_copies sys =
    Vsgc_ioa.Metrics.sent_count (Vsgc_ioa.Executor.metrics (System.exec sys)) Msg.Wire.K_app
  in
  let n = 5 in
  let run_sym () =
    let sys, sym = build_sym ~seed:154 ~n in
    ignore (System.reconfigure sys ~set:(Proc.Set.of_range 0 (n - 1)));
    System.settle sys;
    let before = app_copies sys in
    Sym.push (sym 2) "solo";
    System.settle sys;
    app_copies sys - before
  in
  let run_seq () =
    let refs = Hashtbl.create 8 in
    let sys =
      System.create ~seed:154 ~n
        ~client_builder:(fun p ->
          let c, r = Seq.component p in
          Hashtbl.replace refs p r;
          c)
        ()
    in
    ignore (System.reconfigure sys ~set:(Proc.Set.of_range 0 (n - 1)));
    System.settle sys;
    let before = app_copies sys in
    Seq.push (Hashtbl.find refs 2) "solo";
    System.settle sys;
    app_copies sys - before
  in
  let sym = run_sym () and seq = run_seq () in
  (* sequencer: data (n-1) + announcement (n-1) = 8;
     symmetric: data (n-1) + an ack from each other member ((n-1)²) = 20 *)
  Alcotest.(check int) "sequencer copies" (2 * (n - 1)) seq;
  Alcotest.(check bool)
    (Fmt.str "symmetric costs more copies (%d > %d)" sym seq)
    true (sym > seq)

(* -- The blocking-client shell, once over every instance ------------------ *)

(* An instance driven directly through its component functions with no
   GCS below: the Figure 12 machine is the same shell in all three. *)
module type SHELL = sig
  include Vsgc_core.Client_shell.S

  val initial : Proc.t -> t
end

(* A total-order arm: the shell plus its ordered log. *)
module type ARM = sig
  include Vsgc_totalorder.Total_order.S

  val initial : Proc.t -> t
end

module Seq_arm = struct
  include Seq

  let initial p = Seq.initial p
end

let shells : (string * (module SHELL)) list =
  [
    ("scripted", (module Vsgc_core.Client));
    ("sequencer", (module Seq_arm));
    ("symmetric", (module Sym));
  ]

let arms : (string * (module ARM)) list =
  [ ("sequencer", (module Seq_arm)); ("symmetric", (module Sym)) ]

let view_of members =
  let set = Proc.Set.of_list members in
  View.make
    ~id:(View.Id.make ~num:1 ~origin:0)
    ~set
    ~start_ids:(Proc.Set.fold (fun p m -> Proc.Map.add p 1 m) set Proc.Map.empty)

let sends = List.filter_map (function Action.App_send (_, m) -> Some m | _ -> None)
let block_oks = List.filter (function Action.Block_ok _ -> true | _ -> false)

(* p0 with one payload queued and a block requested. *)
let queued_then_blocked (type s) (module A : SHELL with type t = s) : s =
  let r = ref (A.initial 0) in
  A.push r "x";
  A.apply !r (Action.Block 0)

let test_block_offers_block_ok (module A : SHELL) () =
  let s = A.apply (A.initial 0) (Action.Block 0) in
  Alcotest.(check int) "Block_ok offered" 1 (List.length (block_oks (A.outputs s)));
  Alcotest.(check bool) "status requested" true
    (A.block_status s = Vsgc_core.Gcs.Requested)

let test_blocked_sends_nothing (module A : SHELL) () =
  let s = queued_then_blocked (module A) in
  Alcotest.(check int) "send offered while only requested" 1
    (List.length (sends (A.outputs s)));
  let s = A.apply s (Action.Block_ok 0) in
  Alcotest.(check int) "no App_send once blocked" 0 (List.length (sends (A.outputs s)))

(* Blocked p0 with its payload still queued, then a singleton view. *)
let unblocked_by_view (type s) (module A : SHELL with type t = s) : s =
  let s = A.apply (queued_then_blocked (module A)) (Action.Block_ok 0) in
  A.apply s (Action.App_view (0, view_of [ 0 ], Proc.Set.singleton 0))

let test_view_unblocks (module A : SHELL) () =
  let s = unblocked_by_view (module A) in
  Alcotest.(check bool) "status unblocked" true
    (A.block_status s = Vsgc_core.Gcs.Unblocked);
  Alcotest.(check int) "one view" 1 (List.length (A.views s));
  Alcotest.(check bool) "a send is offered" true (sends (A.outputs s) <> [])

(* Unblocked, p0 loops its own sends back as GCS deliveries until it
   falls quiet: the queued payload is then ordered. *)
let test_view_orders (module A : ARM) () =
  let s = unblocked_by_view (module A) in
  let rec loop s fuel =
    match sends (A.outputs s) with
    | m :: _ when fuel > 0 ->
        let s = A.apply s (Action.App_send (0, m)) in
        loop (A.apply s (Action.App_deliver (0, 0, m))) (fuel - 1)
    | _ -> s
  in
  let s = loop s 10 in
  Alcotest.(check (list (pair int string)))
    "the queued payload went out" [ (0, "x") ] (A.total_order s);
  Alcotest.(check (list string)) "cursor at 0" [ "x" ] (A.ordered_from s 0);
  Alcotest.(check (list string))
    "cursor beyond the log reads empty" [] (A.ordered_from s 5)

let test_crash_silences (module A : SHELL) () =
  let s = queued_then_blocked (module A) in
  Alcotest.(check int) "send and Block_ok offered" 2 (List.length (A.outputs s));
  let s = A.apply s (Action.Crash 0) in
  Alcotest.(check int) "crashed: no output" 0 (List.length (A.outputs s));
  let s = A.apply s (Action.App_view (0, view_of [ 0 ], Proc.Set.singleton 0)) in
  Alcotest.(check int) "inputs ignored while crashed" 0 (List.length (A.outputs s));
  let s = A.apply s (Action.Recover 0) in
  Alcotest.(check bool) "recovered" false (A.crashed s);
  Alcotest.(check int) "fresh: no views" 0 (List.length (A.views s));
  Alcotest.(check int) "fresh: nothing queued" 0 (List.length (A.outputs s))

(* Recover restores the core the component was built with: the
   sequencer's batching survives a crash. *)
let test_recover_keeps_batching () =
  let module Core = Vsgc_totalorder.Tord_core in
  let backlog s =
    let s = Seq.apply s (Action.App_view (0, view_of [ 0; 1 ], Proc.Set.singleton 0)) in
    let data x = Msg.App_msg.make (Core.encode_data x) in
    let s = Seq.apply s (Action.App_deliver (0, 1, data "a")) in
    let s = Seq.apply s (Action.App_deliver (0, 1, data "b")) in
    match sends (Seq.outputs s) with
    | [ m ] -> Core.decode (Msg.App_msg.payload m)
    | _ -> Alcotest.fail "expected exactly one announcement send"
  in
  let reborn =
    Seq.apply
      (Seq.apply (Seq.initial ~batch_orders:true 0) (Action.Crash 0))
      (Action.Recover 0)
  in
  (match backlog reborn with
  | Core.Order_batch [ (1, 1); (1, 2) ] -> ()
  | _ -> Alcotest.fail "reborn batching sequencer: want one Order_batch of both");
  match backlog (Seq.initial 0) with
  | Core.Order (1, 1) -> ()
  | _ -> Alcotest.fail "unbatched sequencer: want the head announcement alone"

let case name instance f =
  Alcotest.test_case (Fmt.str "shell: %s [%s]" name instance) `Quick f

let shell_cases =
  List.concat_map
    (fun (instance, m) ->
      [
        case "Block offers Block_ok" instance (test_block_offers_block_ok m);
        case "blocked sends nothing" instance (test_blocked_sends_nothing m);
        case "view unblocks the send" instance (test_view_unblocks m);
        case "Crash silences, Recover restarts" instance (test_crash_silences m);
      ])
    shells
  @ List.map
      (fun (arm, m) -> case "the unblocked send is ordered" arm (test_view_orders m))
      arms

let suite =
  [
    Alcotest.test_case "symmetric order: agreement" `Quick test_agreement;
    Alcotest.test_case "symmetric order: timestamps respected" `Quick
      test_order_respects_timestamps;
    Alcotest.test_case "symmetric order: across view change" `Quick test_across_view_change;
    Alcotest.test_case "traffic tradeoff vs sequencer" `Quick test_traffic_tradeoff;
    Alcotest.test_case "shell: Recover keeps batch_orders [sequencer]" `Quick
      test_recover_keeps_batching;
  ]
  @ shell_cases
