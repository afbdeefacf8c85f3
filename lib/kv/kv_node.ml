(* A deployable KV server node: one OS-process-worth of the replicated
   KV service.

   A [Vsgc_net.Node] client node hosting a replica of the selected
   total-order arm (instead of the scripted client), with the KV
   service engine at the edge. The node does all of the GCS wire
   translation; this module adds only the KV edge:

     kv client           Kv_req packet        -> service request
                         (writes -> replica's ordered stream,
                          stable writes -> Kv_resp acks out)

   The replica component runs strict (ordered codec drift raises) and
   in the batched or unbatched announcement mode the deployment
   selects. *)

open Vsgc_wire
module Transport = Vsgc_net.Transport
module Node = Vsgc_net.Node
module Replica = Vsgc_replication.Replica

type t = { node : Node.t; service : Kv_service.t }

let create ?(seed = 0) ?(layer = `Full) ?(batch = false) ?(arm = `Gcs) ~attach
    proc =
  let host (type a) (module R : Vsgc_totalorder.Total_order.S with type t = a)
      (component, (r : a ref)) =
    let app = Node.order_app (module R) (component, r) in
    {
      node = Node.create ~seed ~layer (Node.Client_node { proc; attach; app });
      service = Kv_service.create ~batch (module R) r;
    }
  in
  (* The arm selects the replica instance (DESIGN.md §16). *)
  match arm with
  | `Gcs ->
      host (module Replica) (Replica.component ~strict:true ~batch_orders:batch proc)
  | `Sym -> host (module Replica.Sym) (Replica.Sym.component ~strict:true proc)

let id t = Node.id t.node
let executor t = Node.executor t.node
let malformed t = Node.malformed t.node
let service t = t.service
let inject t a = Node.inject t.node a

let handle t ev =
  match ev with
  | Transport.Received (_, Packet.Kv_req req) ->
      Kv_service.handle_request t.service req
  | _ -> Node.handle t.node ev

let response_target (resp : Kv_msg.response) =
  match resp with
  | Kv_msg.Put_ack { client; _ } | Kv_msg.Get_reply { client; _ } ->
      Node_id.Kv_client client

let step ?max_steps t =
  let pkts = Node.step ?max_steps t.node in
  (* Stable-delivery edge: fold newly ordered entries into the store
     and ship the acknowledgements that became due. *)
  Kv_service.advance t.service;
  pkts
  @ List.map
      (fun resp -> (response_target resp, Packet.Kv_resp resp))
      (Kv_service.take_acks t.service)

let store t = Kv_service.store t.service
let digest t = Kv_service.digest t.service
let crashed t = Node.crashed t.node
let current_view t = Node.current_view t.node
let views t = Node.views t.node
let steps t = Node.steps t.node
let trace t = Node.trace t.node
let fingerprint t = Node.fingerprint t.node
let quiescent t = Node.quiescent t.node
