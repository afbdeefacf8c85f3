(* A deployable vsgc node: one OS-process-worth of the system.

   A node hosts the UNCHANGED automata — a GCS end-point plus the
   application component its builder hands in (the scripted client, a
   total-order arm, a replica), or a membership server — inside a
   private [Executor], bridged to a transport by an [Io_pump]:

     transport events --[handle]--> environment inputs
     [step]: pump to quiescence, captured outputs --> packets out

   The translation is mechanical and total:

   client p            Rf packet            -> Rf_deliver(q, p, wire)
                       Start_change packet  -> Mb_start_change
                       View packet          -> Mb_view
                       Up(its server)       -> emits a Join packet
                       Rf_send(p, set, w)   -> one Rf packet per target

   server s            Join/Leave packet    -> Client_join/Client_leave
                       Srv packet           -> Srv_deliver
                       Up/Down(server)      -> Fd_change(s, connected+s)
                       Down(client p)       -> Client_leave(p, s)
                       Srv_send(s, s', m)   -> one Srv packet to s'
                       Mb_start_change/view -> Start_change/View packet

   Malformed transport events bump a counter and nothing else: a bad
   frame can cost a link (the transport's business), never the node. *)

open Vsgc_types
open Vsgc_wire

(* The application a client node hosts next to its end-point, as the
   component plus the observations the node answers for it. Whoever
   builds the component keeps its typed ref. *)
type app = {
  component : Vsgc_ioa.Component.packed;
  push : string -> unit;
  delivered : unit -> (Proc.t * Msg.App_msg.t) list;
  views : unit -> (View.t * Proc.Set.t) list;
  last_view : unit -> (View.t * Proc.Set.t) option;
}

let client_app (component, client) =
  let module C = Vsgc_core.Client in
  {
    component;
    push = C.push client;
    delivered = (fun () -> C.delivered !client);
    views = (fun () -> C.views !client);
    last_view = (fun () -> C.last_view !client);
  }

(* A total-order arm's deliveries are its total order. *)
let order_app (type a) (module O : Vsgc_totalorder.Total_order.S with type t = a)
    (component, (r : a ref)) =
  {
    component;
    push = O.push r;
    delivered =
      (fun () ->
        List.map
          (fun (sender, payload) -> (sender, Msg.App_msg.make payload))
          (O.total_order !r));
    views = (fun () -> O.views !r);
    last_view = (fun () -> O.last_view !r);
  }

type role =
  | Client_node of { proc : Proc.t; attach : Server.t; app : app }
  | Server_node of { server : Server.t }

type kind =
  | Client_k of {
      proc : Proc.t;
      attach : Server.t;
      app : app;
      endpoint : Vsgc_core.Endpoint.t ref;
    }
  | Server_k of {
      server : Server.t;
      state : Vsgc_mbrshp.Servers.t ref;
      mutable connected : Server.Set.t;  (* live links to peer servers *)
      mutable attached : Proc.Set.t;  (* clients that sent Join *)
    }

type t = {
  id : Node_id.t;
  exec : Vsgc_ioa.Executor.t;
  pump : Vsgc_ioa.Io_pump.t;
  outq : (Node_id.t * Packet.t) Queue.t;
  mutable malformed : int;
  kind : kind;
}

let create ?(seed = 0) ?(layer = `Full) role =
  match role with
  | Client_node { proc; attach; app } ->
      let ep_packed, endpoint = Vsgc_core.Endpoint.component ~layer proc in
      let exec =
        Vsgc_ioa.Executor.create ~seed ~keep_trace:true [ ep_packed; app.component ]
      in
      let capture = function
        | Action.Rf_send (q, _, _) -> Proc.equal q proc
        | _ -> false
      in
      {
        id = Node_id.Client proc;
        exec;
        pump = Vsgc_ioa.Io_pump.create ~capture exec;
        outq = Queue.create ();
        malformed = 0;
        kind = Client_k { proc; attach; app; endpoint };
      }
  | Server_node { server } ->
      let packed, state =
        Vsgc_mbrshp.Servers.component
          ~servers:(Server.Set.singleton server)
          server
      in
      let exec = Vsgc_ioa.Executor.create ~seed ~keep_trace:true [ packed ] in
      let capture = function
        | Action.Srv_send (s, _, _) -> Server.equal s server
        | Action.Mb_start_change _ | Action.Mb_view _ -> true
        | _ -> false
      in
      {
        id = Node_id.Server server;
        exec;
        pump = Vsgc_ioa.Io_pump.create ~capture exec;
        outq = Queue.create ();
        malformed = 0;
        kind =
          Server_k
            {
              server;
              state;
              connected = Server.Set.empty;
              attached = Proc.Set.empty;
            };
      }

let id t = t.id
let executor t = t.exec
let malformed t = t.malformed

let send_pkt t dst pkt = Queue.add (dst, pkt) t.outq
let enqueue t a = Vsgc_ioa.Io_pump.enqueue t.pump a

let handle t ev =
  match t.kind with
  (* -- client side -- *)
  | Client_k { proc; attach; _ } -> (
      match ev with
      | Transport.Malformed _ -> t.malformed <- t.malformed + 1
      | Transport.Up (Node_id.Server s) when Server.equal s attach ->
          send_pkt t (Node_id.Server s) (Packet.Join proc)
      | Transport.Up _ | Transport.Down _ -> ()
      | Transport.Received (_, Packet.Rf { from; wire }) ->
          enqueue t (Action.Rf_deliver (from, proc, wire))
      | Transport.Received (_, Packet.Start_change { target; cid; set })
        when Proc.equal target proc ->
          enqueue t (Action.Mb_start_change (proc, cid, set))
      | Transport.Received (_, Packet.View { target; view })
        when Proc.equal target proc ->
          enqueue t (Action.Mb_view (proc, view))
      | Transport.Received _ -> ())
  (* -- server side -- *)
  | Server_k sk -> (
      match ev with
      | Transport.Malformed _ -> t.malformed <- t.malformed + 1
      | Transport.Up (Node_id.Server s') ->
          sk.connected <- Server.Set.add s' sk.connected;
          enqueue t
            (Action.Fd_change (sk.server, Server.Set.add sk.server sk.connected))
      | Transport.Down (Node_id.Server s') ->
          sk.connected <- Server.Set.remove s' sk.connected;
          enqueue t
            (Action.Fd_change (sk.server, Server.Set.add sk.server sk.connected))
      | Transport.Up (Node_id.Client _ | Node_id.Kv_client _) -> ()
      | Transport.Down (Node_id.Client p) ->
          if Proc.Set.mem p sk.attached then begin
            sk.attached <- Proc.Set.remove p sk.attached;
            enqueue t (Action.Client_leave (p, sk.server))
          end
      | Transport.Down (Node_id.Kv_client _) -> ()
      | Transport.Received (_, Packet.Join p) ->
          sk.attached <- Proc.Set.add p sk.attached;
          enqueue t (Action.Client_join (p, sk.server))
      | Transport.Received (_, Packet.Leave p) ->
          if Proc.Set.mem p sk.attached then begin
            sk.attached <- Proc.Set.remove p sk.attached;
            enqueue t (Action.Client_leave (p, sk.server))
          end
      | Transport.Received (_, Packet.Srv { from; msg }) ->
          enqueue t (Action.Srv_deliver (from, sk.server, msg))
      | Transport.Received _ -> ())

(* Captured executor outputs become packets. *)
let route t a =
  match (t.kind, a) with
  | Client_k { proc; _ }, Action.Rf_send (p, targets, wire) when Proc.equal p proc
    ->
      Proc.Set.iter
        (fun q -> send_pkt t (Node_id.Client q) (Packet.Rf { from = p; wire }))
        targets
  | Server_k sk, Action.Srv_send (from, dst, msg) when Server.equal from sk.server
    ->
      send_pkt t (Node_id.Server dst) (Packet.Srv { from; msg })
  | Server_k _, Action.Mb_start_change (p, cid, set) ->
      send_pkt t (Node_id.Client p) (Packet.Start_change { target = p; cid; set })
  | Server_k _, Action.Mb_view (p, view) ->
      send_pkt t (Node_id.Client p) (Packet.View { target = p; view })
  | _ -> ()

let step ?max_steps t =
  Vsgc_ioa.Io_pump.pump ?max_steps t.pump;
  List.iter (route t) (Vsgc_ioa.Io_pump.drain t.pump);
  let pkts = List.of_seq (Queue.to_seq t.outq) in
  Queue.clear t.outq;
  pkts

let inject = enqueue

let hosted t what =
  match t.kind with
  | Client_k { app; _ } -> app
  | Server_k _ -> invalid_arg (Fmt.str "Node.%s: not a client node" what)

let push t payload = (hosted t "push").push payload

let endpoint_state t =
  match t.kind with
  | Client_k { endpoint; _ } -> !endpoint
  | Server_k _ -> invalid_arg "Node.endpoint_state: not a client node"

let crashed t =
  match t.kind with
  | Client_k { endpoint; _ } -> Vsgc_core.Endpoint.crashed !endpoint
  | Server_k _ -> false

(* -- Self-stabilization (DESIGN.md §13) --------------------------------- *)

(* The harness writes the corrupted state straight into the component
   ref, like [Client.push] does for payloads: the executor re-syncs
   cached enabled-sets from the refs at its next public entry, so the
   out-of-band write is safe under both scheduler modes. *)
let corrupt t ~salt field =
  match t.kind with
  | Client_k { endpoint; _ } ->
      endpoint := Vsgc_core.Endpoint.corrupt ~salt field !endpoint
  | Server_k _ -> invalid_arg "Node.corrupt: not a client node"

let self_check t =
  match t.kind with
  | Client_k { endpoint; _ } -> Vsgc_core.Endpoint.self_check !endpoint
  | Server_k sk -> Vsgc_mbrshp.Servers.self_check !(sk.state)

let steps t = Vsgc_ioa.Executor.trace_length t.exec

let delivered t = (hosted t "delivered").delivered ()
let views t = (hosted t "views").views ()
let last_view t = (hosted t "last_view").last_view ()

let current_view t =
  match t.kind with
  | Client_k { endpoint; _ } -> Vsgc_core.Endpoint.current_view !endpoint
  | Server_k _ -> invalid_arg "Node.current_view: not a client node"

let attached t =
  match t.kind with
  | Server_k sk -> sk.attached
  | Client_k _ -> invalid_arg "Node.attached: not a server node"

let trace t = Vsgc_ioa.Executor.trace t.exec

let quiescent t =
  Vsgc_ioa.Io_pump.quiescent t.pump && Queue.is_empty t.outq

let fingerprint t = Vsgc_ioa.Trace_stats.fingerprint (trace t)
