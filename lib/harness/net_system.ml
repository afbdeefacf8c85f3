(* Networked system assembly: the Figure 8 (a) composition again, but
   with every end-point (and, optionally, every membership server) in
   its own executor behind the deterministic loopback transport —
   deployment topology under harness control.

   Two membership modes:
   - [n_servers = 0]: scripted membership. A standalone Oracle state
     validates and sequences the scripted events exactly as the
     in-memory System's oracle component does, then the events are
     injected into each client node. Same script => same cids and
     views on both sides, which is what the equivalence tests check.
   - [n_servers > 0]: real client-server membership. Server nodes run
     the Servers automaton; clients join over the wire; views are
     proposed, committed and shipped as packets.

   The drive loop is synchronous and deterministic: recv+handle at
   every node (fixed order), step every node and ship its packets,
   tick the hub — until nothing is in flight and every node is
   quiescent.

   Fault surface (lib/fault drives it, tests use it directly too):
   - [set_partition]/[heal] force hub links down/up along the
     topology established at [create] (the base links). A link is up
     iff no partition class separates its ends AND neither end is
     crashed; every fault operation recomputes that predicate over all
     base links, so crash+partition compose.
   - [crash_client]/[restart_client] reuse the §8 crash/recovery layer
     of the hosted end-point (Crash/Recover actions) and take the
     node's links down/up with it. On restart the transport [Up] from
     the attach server re-triggers the Join handshake, so a reborn
     client re-enters membership by the ordinary protocol.
   - [attach_monitors] attaches shared spec monitors to every CLIENT
     node executor: the drive loop is single-threaded and visits nodes
     in a fixed order, so the monitors observe one deterministic
     merged trace. Server executors are excluded — the membership
     actions they share with clients would otherwise be observed
     twice. [check_invariants] snapshots the client-hosted automata at
     quiescent points (in-flight CO_RFIFO state is not reconstructible
     from outside, and at quiescence the channels are empty). *)

open Vsgc_types
module Node = Vsgc_net.Node
module Transport = Vsgc_net.Transport
module Loopback = Vsgc_net.Loopback
module Node_id = Vsgc_wire.Node_id
module Oracle = Vsgc_mbrshp.Oracle

type t = {
  hub : Loopback.hub;
  clients : (Proc.t * (Node.t * Transport.t)) list;  (* ascending *)
  servers : (Server.t * (Node.t * Transport.t)) list;  (* ascending *)
  script : Oracle.state ref;  (* drives membership when servers = [] *)
  layer : Vsgc_core.Endpoint.layer;
  blocks : (Proc.t * (unit -> Vsgc_core.Gcs.block_status option)) list;
      (* each hosted client's block status, None while crashed *)
  base_links : (Node_id.t * Node_id.t) list;  (* topology at create *)
  mutable partition : Node_id.t list list option;  (* None = healed *)
  mutable down_nodes : Node_id.t list;  (* currently crashed clients *)
  ever_crashed : Proc.Set.t ref;
  mutable monitors : Vsgc_ioa.Monitor.t list;
  mutable healing : Proc.t list;  (* detected last round, restart next *)
  mutable detections : (Proc.t * string * int) list;  (* newest first *)
  mutable corruptions : (Proc.t * int) list;  (* newest first *)
}

let create ?(seed = 42) ?knobs ?(layer = `Full) ?(arm = `Gcs) ~n
    ?(n_servers = 0) () =
  let hub = Loopback.hub ~seed ?knobs () in
  (* The arm picks the hosted app (DESIGN.md §16.2): the sequencer arm
     hosts the scripted application client, the symmetric arm its
     total-order client. Both are the blocking client of Figure 12,
     whose block status the snapshot reads. *)
  let blocks = ref [] in
  let status (type a) (module S : Vsgc_core.Client_shell.S with type t = a) p r =
    let read () = if S.crashed !r then None else Some (S.block_status !r) in
    blocks := (p, read) :: !blocks
  in
  let app p =
    match arm with
    | `Gcs ->
        let ((_, r) as c) = Vsgc_core.Client.component p in
        status (module Vsgc_core.Client) p r;
        Node.client_app c
    | `Sym ->
        let module O = Vsgc_totalorder.Tord_sym_client in
        let ((_, r) as c) = O.component p in
        status (module O) p r;
        Node.order_app (module O) c
  in
  let clients =
    List.init n (fun p ->
        let attach = Server.of_int (if n_servers = 0 then 0 else p mod n_servers) in
        let role = Node.Client_node { proc = p; attach; app = app p } in
        let node = Node.create ~seed:(seed + 1 + p) ~layer role in
        (p, (node, Loopback.attach hub (Node_id.Client p))))
  in
  let servers =
    List.init n_servers (fun s ->
        let node =
          Node.create ~seed:(seed + 1 + n + s) (Node.Server_node { server = s })
        in
        (s, (node, Loopback.attach hub (Node_id.Server s))))
  in
  (* Full client mesh (CO_RFIFO is point-to-point between any two
     members), each client to its own server, full server mesh. *)
  let base_links = ref [] in
  let connect tr a b =
    Transport.connect tr b;
    base_links := (a, b) :: !base_links
  in
  List.iter
    (fun (p, (_, tr)) ->
      List.iter
        (fun (q, _) ->
          if q > p then connect tr (Node_id.Client p) (Node_id.Client q))
        clients;
      if n_servers > 0 then
        connect tr (Node_id.Client p) (Node_id.Server (p mod n_servers)))
    clients;
  List.iter
    (fun (s, (_, tr)) ->
      List.iter
        (fun (s', _) ->
          if s' > s then connect tr (Node_id.Server s) (Node_id.Server s'))
        servers)
    servers;
  {
    hub;
    clients;
    servers;
    script = ref Oracle.initial;
    layer;
    blocks = !blocks;
    base_links = List.rev !base_links;
    partition = None;
    down_nodes = [];
    ever_crashed = ref Proc.Set.empty;
    monitors = [];
    healing = [];
    detections = [];
    corruptions = [];
  }

let hub t = t.hub

let client_node t p =
  match List.assoc_opt p t.clients with
  | Some (node, _) -> node
  | None -> invalid_arg (Fmt.str "Net_system.client_node: no client %a" Proc.pp p)

let server_node t s =
  match List.assoc_opt s t.servers with
  | Some (node, _) -> node
  | None ->
      invalid_arg (Fmt.str "Net_system.server_node: no server %a" Server.pp s)

let nodes t = List.map snd t.clients @ List.map snd t.servers

let procs t = Proc.Set.of_list (List.map fst t.clients)

let crashed_clients t =
  List.fold_left
    (fun acc id ->
      match id with
      | Node_id.Client p -> Proc.Set.add p acc
      | Node_id.Server _ | Node_id.Kv_client _ -> acc)
    Proc.Set.empty t.down_nodes

(* -- Fault surface -------------------------------------------------------- *)

let is_down t id = List.exists (Node_id.equal id) t.down_nodes

let same_class classes a b =
  List.exists
    (fun cls ->
      List.exists (Node_id.equal a) cls && List.exists (Node_id.equal b) cls)
    classes

(* Recompute every base link's desired state from the partition and
   the crash set. Idempotent per link (Loopback.set_link only pushes
   Up/Down on actual transitions), so fault operations compose by
   just calling this again. *)
let apply_links t =
  List.iter
    (fun (a, b) ->
      let up =
        (match t.partition with
        | None -> true
        | Some classes -> same_class classes a b)
        && (not (is_down t a))
        && not (is_down t b)
      in
      Loopback.set_link t.hub a b ~up)
    t.base_links

let set_partition t classes =
  t.partition <- Some classes;
  apply_links t

let heal t =
  t.partition <- None;
  apply_links t

let crash_client t p =
  let node = client_node t p in
  if Node.crashed node then
    invalid_arg (Fmt.str "Net_system.crash_client: %a already crashed" Proc.pp p);
  Node.inject node (Action.Crash p);
  t.down_nodes <- Node_id.Client p :: t.down_nodes;
  t.ever_crashed := Proc.Set.add p !(t.ever_crashed);
  apply_links t;
  (* The dead node's session buffers die with it: §8's corfifo crash
     wipes the channels into p and lets p's outgoing traffic drop. *)
  Loopback.discard t.hub (Node_id.Client p)

let restart_client t p =
  let node = client_node t p in
  if not (is_down t (Node_id.Client p)) then
    invalid_arg (Fmt.str "Net_system.restart_client: %a not crashed" Proc.pp p);
  t.down_nodes <-
    List.filter (fun id -> not (Node_id.equal id (Node_id.Client p))) t.down_nodes;
  Node.inject node (Action.Recover p);
  apply_links t

let set_knobs t knobs = Loopback.set_knobs t.hub knobs

let corrupt_client t p ~salt field =
  let node = client_node t p in
  if Node.crashed node || is_down t (Node_id.Client p) then
    invalid_arg (Fmt.str "Net_system.corrupt_client: %a is crashed" Proc.pp p);
  t.corruptions <- (p, Loopback.now t.hub) :: t.corruptions;
  Node.corrupt node ~salt field

let detections t = List.rev t.detections
let corruptions t = List.rev t.corruptions

(* -- Driving ------------------------------------------------------------- *)

let quiescent t =
  t.healing = []
  && Loopback.idle t.hub
  && List.for_all (fun (n, _) -> Node.quiescent n) (nodes t)

(* Self-stabilization (DESIGN.md §13): before a round's inputs reach
   the automata, restart the clients whose corruption was detected last
   round, then run every live client's local legitimacy guards. A
   detected client is crashed on the spot — so a detectably corrupted
   end-point never takes another locally controlled step — and queued
   for restart at the next round's scan, one round of downtime, exactly
   the ordinary §8 crash-rejoin path (bounded counters recycle because
   rejoining from initial state resets them all). *)
let self_stabilize t =
  let heal = t.healing in
  t.healing <- [];
  List.iter
    (fun p -> if is_down t (Node_id.Client p) then restart_client t p)
    heal;
  List.iter
    (fun (p, (node, _)) ->
      if (not (Node.crashed node)) && not (is_down t (Node_id.Client p)) then
        match Node.self_check node with
        | Some reason ->
            t.detections <- (p, reason, Loopback.now t.hub) :: t.detections;
            crash_client t p;
            t.healing <- t.healing @ [ p ]
        | None -> ())
    t.clients

(* One synchronous round: drain the wire into every node, then step
   every node and ship what it produced. Fixed node order makes the
   merged action stream (and so the shared monitors) deterministic. *)
let round t =
  self_stabilize t;
  List.iter
    (fun (node, tr) -> List.iter (Node.handle node) (Transport.recv tr))
    (nodes t);
  List.iter
    (fun (node, tr) ->
      List.iter (fun (dst, pkt) -> Transport.send tr dst pkt) (Node.step node))
    (nodes t)

let run ?(max_ticks = 50_000) t =
  let rec go budget =
    round t;
    if not (quiescent t) then
      if budget = 0 then failwith "Net_system.run: tick budget exhausted"
      else begin
        Loopback.tick t.hub;
        go (budget - 1)
      end
  in
  go max_ticks

(* Exactly [k] rounds, quiescent or not — for injecting faults into
   the middle of a protocol exchange (e.g. mid view-change). *)
let run_ticks t k =
  for _ = 1 to k do
    round t;
    Loopback.tick t.hub
  done

(* -- Specification oracles ------------------------------------------------ *)

let attach_monitors t ms =
  t.monitors <- t.monitors @ ms;
  List.iter
    (fun m ->
      List.iter
        (fun (_, (node, _)) -> Vsgc_ioa.Executor.add_monitor (Node.executor node) m)
        t.clients)
    ms

let finish t =
  List.iter
    (fun (m : Vsgc_ioa.Monitor.t) ->
      match m.at_end () with
      | [] -> ()
      | msg :: _ ->
          raise (Vsgc_ioa.Monitor.Violation { monitor = m.name; message = msg }))
    t.monitors

let snapshot t : Vsgc_checker.Invariants.snapshot =
  let endpoints =
    List.fold_left
      (fun m (p, (node, _)) ->
        let ep = Node.endpoint_state node in
        if Vsgc_core.Endpoint.crashed ep then m else Proc.Map.add p ep m)
      Proc.Map.empty t.clients
  in
  let client_block =
    List.fold_left
      (fun m (p, status) ->
        match status () with Some b -> Proc.Map.add p b m | None -> m)
      Proc.Map.empty t.blocks
  in
  {
    endpoints;
    client_block;
    (* The wire state lives in the hub as frames, not as CO_RFIFO
       channel contents; at the quiescent points where this snapshot
       is taken the channels are empty, which [initial] renders. *)
    net = Vsgc_corfifo.initial;
    mbrshp = (if t.servers = [] then Some !(t.script) else None);
    reborn = !(t.ever_crashed);
  }

(* The blocking invariants (6.11, 6.12) assert the Figure 11/12 block
   protocol, which the layers below `Full omit by construction. *)
let check_invariants t =
  let invs =
    match t.layer with
    | `Full -> Vsgc_checker.Invariants.all
    | `Wv | `Vs ->
        List.filter
          (fun (name, _) -> name <> "6.11" && name <> "6.12")
          Vsgc_checker.Invariants.all
  in
  let snap = snapshot t in
  List.iter (fun (_, check) -> check snap) invs

(* -- Scenario drivers ---------------------------------------------------- *)

let send t p payload = Node.push (client_node t p) payload

let broadcast t ~senders ~per_sender =
  Proc.Set.iter
    (fun p ->
      for i = 1 to per_sender do
        send t p (Fmt.str "m-%a-%d" Proc.pp p i)
      done)
    senders

(* Scripted membership: queue through the standalone oracle state (so
   identifiers and view ids follow exactly the in-memory System's
   bookkeeping), then move the queued events into the node inboxes. *)
let require_scripted t what =
  if t.servers <> [] then
    invalid_arg (Fmt.str "Net_system.%s: system runs real servers" what)

let drain_script t =
  Proc.Map.iter
    (fun p (pst : Oracle.pst) ->
      List.iter
        (fun a -> Node.inject (client_node t p) a)
        (List.rev pst.Oracle.pending))
    !(t.script);
  t.script :=
    Proc.Map.map (fun (pst : Oracle.pst) -> { pst with Oracle.pending = [] })
      !(t.script)

let start_change t ~set =
  require_scripted t "start_change";
  let cids = Oracle.queue_start_change t.script ~set in
  drain_script t;
  cids

let deliver_view ?(origin = 0) t ~set =
  require_scripted t "deliver_view";
  let v = Oracle.form_view t.script ~origin ~set in
  drain_script t;
  v

let reconfigure ?(origin = 0) t ~set =
  require_scripted t "reconfigure";
  let v = Oracle.change t.script ~origin ~set () in
  drain_script t;
  v

(* -- Observations --------------------------------------------------------- *)

let delivered t p = Node.delivered (client_node t p)
let views_of t p = Node.views (client_node t p)
let last_view_of t p = Node.last_view (client_node t p)

let all_in_view t view =
  Proc.Set.for_all
    (fun p ->
      match last_view_of t p with
      | Some (v, _) -> View.equal v view
      | None -> false)
    (View.set view)

let malformed t =
  List.fold_left (fun acc (n, _) -> acc + Node.malformed n) 0 (nodes t)

let steps t = List.fold_left (fun acc (n, _) -> acc + Node.steps n) 0 (nodes t)

(* One digest for the whole deployment: per-node trace fingerprints in
   node order plus the hub's traffic counters. Equal iff every node
   behaved identically — the determinism regression's yardstick. *)
let fingerprint t =
  let parts =
    List.map
      (fun (node, _) ->
        Fmt.str "%s=%s" (Node_id.to_string (Node.id node)) (Node.fingerprint node))
      (nodes t)
  in
  Fmt.str "%s|hub:%d/%d/%d" (String.concat ";" parts)
    (Loopback.delivered t.hub) (Loopback.dropped t.hub)
    (Loopback.retransmits t.hub)
