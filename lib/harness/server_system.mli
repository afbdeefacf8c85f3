(** System assembly with the client-server membership stack of the
    paper's Figure 1: GCS end-points and clients as in {!System}, with
    views produced by dedicated membership servers exchanging proposals
    over their own reliable transport. Client p attaches to server
    [p mod n_servers]. *)

open Vsgc_types

type t

val create :
  ?seed:int ->
  ?weights:(Action.t -> float) ->
  ?strategy:Vsgc_core.Forwarding.kind ->
  ?layer:Vsgc_core.Endpoint.layer ->
  ?monitors:System.monitors ->
  ?endpoint_builder:(Proc.t -> Vsgc_ioa.Component.packed) ->
  n_clients:int ->
  n_servers:int ->
  unit ->
  t
(** @raise Invalid_argument when [n_servers <= 0]. *)

val sys : t -> System.t
val server : t -> Server.t -> Vsgc_mbrshp.Servers.t ref
val srv_net : t -> Vsgc_mbrshp.Srv_net.state ref
val server_of : t -> Proc.t -> Server.t

val bootstrap : t -> unit
(** Kick every server's failure detector with the full server set —
    triggers the initial view agreement. *)

val fd_change : t -> perceived:Server.Set.t -> unit
(** Inject a consistent failure-detector event at every server in
    [perceived]: they now believe exactly [perceived] are alive. *)

val join : t -> Proc.t -> unit
val leave : t -> Proc.t -> unit
