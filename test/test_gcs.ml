(* Layer tests: Self Delivery and the blocking protocol (Figure 11 and
   the CLIENT spec of Figure 12). *)

open Vsgc_types
module System = Vsgc_harness.System
module Client = Vsgc_core.Client

let check = Alcotest.(check bool)

let test_block_per_reconfiguration () =
  let sys = System.create ~seed:51 ~n:3 () in
  let set = Proc.Set.of_range 0 2 in
  let blocks () =
    List.length
      (List.filter
         (function Action.Block p -> Proc.equal p 0 | _ -> false)
         (Vsgc_ioa.Executor.trace (System.exec sys)))
  in
  ignore (System.reconfigure sys ~set);
  System.settle sys;
  Alcotest.(check int) "one block for the first change" 1 (blocks ());
  ignore (System.reconfigure sys ~set);
  System.settle sys;
  Alcotest.(check int) "one more for the second" 2 (blocks ())

let test_self_delivery () =
  (* every message a client sends in a view is delivered back to it
     before the next view (Figure 7), even under reconfiguration *)
  let sys = System.create ~seed:52 ~n:3 () in
  let set = Proc.Set.of_range 0 2 in
  ignore (System.reconfigure sys ~set);
  System.settle sys;
  System.broadcast sys ~senders:set ~per_sender:6;
  ignore (System.reconfigure sys ~set:(Proc.Set.of_range 0 1));
  System.settle sys;
  List.iter
    (fun p ->
      let c = !(System.client sys p) in
      Alcotest.(check int)
        (Fmt.str "%a delivered everything it sent" Proc.pp p)
        (List.length (Client.sent c))
        (List.length (Client.delivered_from c p)))
    [ 0; 1; 2 ]

let test_sends_resume_after_view () =
  (* a message queued during a reconfiguration is never sent while
     blocked (client_spec enforces that) yet is eventually sent and
     self-delivered; traffic after the view reaches the peer *)
  let sys = System.create ~seed:53 ~n:2 () in
  let set = Proc.Set.of_range 0 1 in
  ignore (System.reconfigure sys ~set);
  System.send sys 0 "early";
  System.settle sys;
  let c0 = !(System.client sys 0) in
  check "early message self-delivered" true
    (List.exists (fun m -> Msg.App_msg.payload m = "early") (Client.delivered_from c0 0));
  System.send sys 0 "late";
  System.settle sys;
  let c1 = !(System.client sys 1) in
  check "post-view traffic reaches the peer" true
    (List.exists (fun m -> Msg.App_msg.payload m = "late") (Client.delivered_from c1 0))

let test_unblocked_without_change () =
  let sys = System.create ~seed:54 ~n:2 () in
  let set = Proc.Set.of_range 0 1 in
  ignore (System.reconfigure sys ~set);
  System.settle sys;
  let g = Vsgc_core.Endpoint.gcs !(System.endpoint sys 0) in
  check "endpoint unblocked in steady state" true (g.Vsgc_core.Gcs.block_status = Vsgc_core.Gcs.Unblocked);
  check "client unblocked in steady state" true
    (Client.block_status !(System.client sys 0) = Vsgc_core.Gcs.Unblocked)

let suite =
  [
    Alcotest.test_case "block once per reconfiguration" `Quick test_block_per_reconfiguration;
    Alcotest.test_case "self delivery" `Quick test_self_delivery;
    Alcotest.test_case "queued sends resume after view" `Quick test_sends_resume_after_view;
    Alcotest.test_case "steady state is unblocked" `Quick test_unblocked_without_change;
  ]
