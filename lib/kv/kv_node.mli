(** A deployable KV server node: a [Vsgc_net.Node] client node (the
    unchanged automata in a private executor behind an [Io_pump])
    hosting a GCS end-point plus a strict replica of the selected
    total-order arm ({!Vsgc_replication.Replica} or its [Sym]
    instance), with the {!Kv_service} engine translating
    [Kv_req]/[Kv_resp] packets at the edge (DESIGN.md §15, §16). *)

open Vsgc_types
open Vsgc_wire
module Transport = Vsgc_net.Transport
type t

val create :
  ?seed:int ->
  ?layer:Vsgc_core.Endpoint.layer ->
  ?batch:bool ->
  ?arm:[ `Gcs | `Sym ] ->
  attach:Server.t ->
  Proc.t ->
  t
(** [batch] selects the coalesced announcement + one-round stable
    delivery path (the symmetric arm has no announcement mode, so
    there [batch] only selects the service's stable-delivery rounds);
    [arm] picks the hosted total-order arm (default [`Gcs]); the
    hosted replica always runs strict. *)

val id : t -> Node_id.t
val executor : t -> Vsgc_ioa.Executor.t
val malformed : t -> int
val service : t -> Kv_service.t

val handle : t -> Transport.event -> unit
(** Translate one transport event into environment inputs (or a
    service request). Total: unknown packets are ignored, malformed
    events only bump a counter. *)

val step : ?max_steps:int -> t -> (Node_id.t * Packet.t) list
(** Pump to quiescence, advance the service (stable writes become
    acks), and return the packets to ship. *)

val inject : t -> Action.t -> unit
(** Out-of-band environment input (Crash/Recover from the fault
    layer). *)

val store : t -> Kv_store.t
val digest : t -> string
val crashed : t -> bool
val current_view : t -> View.t
val views : t -> (View.t * Proc.Set.t) list
val steps : t -> int
val trace : t -> Action.t list
val fingerprint : t -> string
val quiescent : t -> bool
