(* The networked runtime against the in-memory oracle.

   Acceptance criterion: the same scripted scenario produces the same
   per-client delivery sequences (messages and views) on (a) the
   in-memory executor and (b) the loopback transport. Both sides run
   the identical membership script — the standalone oracle inside
   Net_system does the same bookkeeping as System's oracle component,
   so the views compared are literally equal triples.

   Cross-sender interleaving is NOT part of the GCS contract (RFIFO
   orders per sender), so the single-sender scenario compares whole
   sequences and the multi-sender one compares per-sender
   subsequences plus the delivered multiset. *)

open Vsgc_types
module System = Vsgc_harness.System
module Net_system = Vsgc_harness.Net_system
module Loopback = Vsgc_net.Loopback
module Node = Vsgc_net.Node

let payloads_of deliveries = List.map (fun (q, m) -> (q, Msg.App_msg.payload m)) deliveries

let check_same_views what expected actual =
  Alcotest.(check int) (what ^ ": view count") (List.length expected) (List.length actual);
  List.iter2
    (fun (v, tset) (v', tset') ->
      Alcotest.(check bool)
        (Fmt.str "%s: view %a = %a" what View.pp v View.pp v')
        true
        (View.equal v v' && Proc.Set.equal tset tset'))
    expected actual

(* (a): the scripted scenario on the in-memory composition. *)
let run_in_memory ~n ~script =
  let sys = System.create ~seed:11 ~n () in
  script
    ~reconfigure:(fun set -> ignore (System.reconfigure sys ~set))
    ~send:(System.send sys)
    ~settle:(fun () -> System.settle sys);
  sys

(* (b): the same scenario over the loopback transport. *)
let run_on_loopback ?(seed = 23) ?knobs ~n ~script () =
  let net = Net_system.create ~seed ?knobs ~n () in
  script
    ~reconfigure:(fun set -> ignore (Net_system.reconfigure net ~set))
    ~send:(Net_system.send net)
    ~settle:(fun () -> Net_system.run net);
  net

let compare_equivalent ~n ~script ?seed ?knobs ~single_sender () =
  let sys = run_in_memory ~n ~script in
  let net = run_on_loopback ?seed ?knobs ~n ~script () in
  for p = 0 to n - 1 do
    let what = Fmt.str "p%d" p in
    check_same_views what (System.views_of sys p) (Net_system.views_of net p);
    let mem = payloads_of (System.delivered sys p) in
    let lo = payloads_of (Net_system.delivered net p) in
    if single_sender then
      Alcotest.(check (list (pair int string))) (what ^ ": deliveries") mem lo
    else begin
      Alcotest.(check (list (pair int string)))
        (what ^ ": delivered multiset")
        (List.sort compare mem) (List.sort compare lo);
      for q = 0 to n - 1 do
        let from_q l = List.filter_map (fun (s, m) -> if s = q then Some m else None) l in
        Alcotest.(check (list string))
          (Fmt.str "%s: FIFO from p%d" what q)
          (from_q mem) (from_q lo)
      done
    end
  done;
  Alcotest.(check int) "no malformed traffic" 0 (Net_system.malformed net)

let script_single_sender ~reconfigure ~send ~settle =
  reconfigure (Proc.Set.of_range 0 2);
  settle ();
  for i = 1 to 5 do
    send 0 (Fmt.str "m%d" i)
  done;
  settle ();
  reconfigure (Proc.Set.of_range 0 1);
  settle ()

let script_multi_sender ~reconfigure ~send ~settle =
  reconfigure (Proc.Set.of_range 0 2);
  settle ();
  for i = 1 to 3 do
    for p = 0 to 2 do
      send p (Fmt.str "m-p%d-%d" p i)
    done
  done;
  settle ();
  reconfigure (Proc.Set.of_range 0 2);
  settle ()

let test_equivalence_single_sender () =
  compare_equivalent ~n:3 ~script:script_single_sender ~single_sender:true ()

let test_equivalence_multi_sender () =
  compare_equivalent ~n:3 ~script:script_multi_sender ~single_sender:false ()

(* The equivalence survives adverse link timing under every knob, on
   several hub seeds: all three knobs resolve to per-packet latency
   behind a resequencing link (the connection is a stream, like TCP),
   so delay, drop and reorder change schedules, not outcomes. *)
let test_equivalence_under_faults () =
  List.iter
    (fun seed ->
      List.iter
        (fun knobs ->
          compare_equivalent ~n:3 ~script:script_multi_sender ~seed ~knobs
            ~single_sender:false ())
        [
          { Loopback.delay = 3; drop = 0.0; reorder = 0.0 };
          { Loopback.delay = 2; drop = 0.3; reorder = 0.0 };
          { Loopback.delay = 2; drop = 0.2; reorder = 0.25 };
          { Loopback.delay = 5; drop = 0.4; reorder = 0.5 };
        ])
    [ 23; 101; 4096 ]

(* Real client-server membership over the wire: joins, proposal wave,
   commit, views shipped as packets — all clients agree. *)
let test_server_mode_agreement () =
  let net = Net_system.create ~seed:5 ~n:4 ~n_servers:2 () in
  Net_system.run net;
  let v0 =
    match Net_system.last_view_of net 0 with
    | Some (v, _) -> v
    | None -> Alcotest.fail "p0 got no view"
  in
  Alcotest.(check bool) "view covers all clients" true
    (Proc.Set.equal (View.set v0) (Proc.Set.of_range 0 3));
  Alcotest.(check bool) "all clients in the same view" true
    (Net_system.all_in_view net v0);
  Net_system.send net 2 "hello";
  Net_system.send net 2 "world";
  Net_system.run net;
  for p = 0 to 3 do
    Alcotest.(check (list (pair int string)))
      (Fmt.str "p%d delivered" p)
      [ (2, "hello"); (2, "world") ]
      (payloads_of (Net_system.delivered net p))
  done;
  Alcotest.(check int) "no malformed traffic" 0 (Net_system.malformed net)

(* A server node survives malformed frames: counted, never fatal. *)
let test_node_survives_malformed () =
  let node = Node.create (Node.Server_node { server = 0 }) in
  Node.handle node
    (Vsgc_net.Transport.Malformed
       {
         peer = None;
         error = Vsgc_wire.Frame.Bad_magic { got = ('x', 'y') };
       });
  ignore (Node.step node);
  Alcotest.(check int) "counted" 1 (Node.malformed node);
  Alcotest.(check bool) "still quiescent" true (Node.quiescent node)

(* A peer crash costs the link, never the process: once the peer is
   gone, writes to it fail with EPIPE. Under SIGPIPE's default action
   that write would kill this process (the test runner); Tcp ignores
   the signal, so the write error drops the link and reports Down. *)
let test_tcp_survives_dead_peer () =
  let module Tcp = Vsgc_net.Tcp in
  let module Transport = Vsgc_net.Transport in
  let module Node_id = Vsgc_wire.Node_id in
  (* A port the kernel just handed out, so none is hard-coded. *)
  let free_port =
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close s)
      (fun () ->
        Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        match Unix.getsockname s with
        | Unix.ADDR_INET (_, port) -> port
        | Unix.ADDR_UNIX _ -> assert false)
  in
  let addr = ("127.0.0.1", free_port) in
  let a_id = Node_id.Client 0 and b_id = Node_id.Client 1 in
  let a = Tcp.create (Tcp.config ~listen:(Some addr) ~poll_timeout:0.01 a_id) in
  let b =
    Tcp.create (Tcp.config ~peers:[ (a_id, addr) ] ~poll_timeout:0.01 b_id)
  in
  let is_b = Node_id.equal b_id in
  let rec until ~tries what step =
    if tries = 0 then Alcotest.failf "timed out waiting for %s" what
    else if not (step ()) then until ~tries:(tries - 1) what step
  in
  until ~tries:500 "the link to come up" (fun () ->
      ignore (Transport.recv b);
      List.exists
        (function Transport.Up id -> is_b id | _ -> false)
        (Transport.recv a));
  (* Drained, b's close sends a FIN rather than a reset, so a's first
     write succeeds and draws the reset that makes its second write
     fail with EPIPE — the signal-raising case. *)
  for _ = 1 to 5 do
    ignore (Transport.recv b)
  done;
  Transport.close b;
  Unix.sleepf 0.02;
  let pkt = Vsgc_wire.Packet.Join 0 in
  until ~tries:500 "Down after the peer closed" (fun () ->
      Transport.send a b_id pkt;
      Unix.sleepf 0.005;
      Transport.send a b_id pkt;
      List.exists
        (function Transport.Down id -> is_b id | _ -> false)
        (Transport.recv a));
  Transport.close a

let suite =
  [
    Alcotest.test_case "loopback = in-memory (single sender)" `Quick
      test_equivalence_single_sender;
    Alcotest.test_case "loopback = in-memory (multi sender)" `Quick
      test_equivalence_multi_sender;
    Alcotest.test_case "loopback = in-memory (seed x knobs matrix)" `Quick
      test_equivalence_under_faults;
    Alcotest.test_case "server mode: wire membership agreement" `Quick
      test_server_mode_agreement;
    Alcotest.test_case "malformed events never kill a node" `Quick
      test_node_survives_malformed;
    Alcotest.test_case "tcp: a dead peer costs the link, not the process"
      `Quick test_tcp_survives_dead_peer;
  ]
