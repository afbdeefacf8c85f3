(** A deployable vsgc node: one OS-process-worth of the system.

    Hosts the unchanged automata — a GCS end-point plus an application
    component, or a membership server — inside a private executor,
    bridged to a transport by an I/O pump. Transport events go in via
    {!handle}; {!step} pumps the composition to quiescence and
    returns the packets to ship (DESIGN.md §10).

    There is one client kind: whatever application it hosts (the
    scripted {!Vsgc_core.Client}, either total-order arm, a replica),
    the wire translation is the same. The application's builder keeps
    its typed state ref; the node answers {!push}/{!delivered}/{!views}
    through the {!app} record. *)

open Vsgc_types
open Vsgc_wire

type app = {
  component : Vsgc_ioa.Component.packed;  (** composed after the end-point *)
  push : string -> unit;  (** queue a payload for multicast *)
  delivered : unit -> (Proc.t * Msg.App_msg.t) list;  (** oldest first *)
  views : unit -> (View.t * Proc.Set.t) list;  (** oldest first *)
  last_view : unit -> (View.t * Proc.Set.t) option;
}
(** The application a client node hosts. *)

val client_app : Vsgc_ioa.Component.packed * Vsgc_core.Client.t ref -> app
(** The scripted application client ({!Vsgc_core.Client.component}). *)

val order_app :
  (module Vsgc_totalorder.Total_order.S with type t = 'a) ->
  Vsgc_ioa.Component.packed * 'a ref ->
  app
(** A total-order arm, or a replica over one: its deliveries are its
    total order. *)

type role =
  | Client_node of { proc : Proc.t; attach : Server.t; app : app }
      (** a GCS end-point hosting [app], registering with membership
          server [attach] *)
  | Server_node of { server : Server.t }  (** a membership server *)

type t

val create : ?seed:int -> ?layer:Vsgc_core.Endpoint.layer -> role -> t
(** [layer] (default [`Full]) selects the end-point's inheritance
    layer; ignored for servers. *)

val id : t -> Node_id.t
val executor : t -> Vsgc_ioa.Executor.t

val handle : t -> Transport.event -> unit
(** Translate one transport event into environment inputs (queued for
    the next {!step}). Total: malformed events only bump a counter. *)

val step : ?max_steps:int -> t -> (Node_id.t * Packet.t) list
(** Pump every queued input and run the composition to quiescence;
    returns the packets this produced, oldest first, addressed. *)

val inject : t -> Action.t -> unit
(** Queue a raw environment input — scripted membership events in
    server-less deployments, crash/recover, ... *)

val push : t -> string -> unit
(** Queue an application payload for multicast (client nodes).
    @raise Invalid_argument on a server node. *)

val corrupt : t -> salt:int -> Vsgc_core.Endpoint.corruption -> unit
(** Apply a seeded state corruption to the hosted end-point
    (DESIGN.md §13), out-of-band like {!push}.
    @raise Invalid_argument on a server node or a crashed end-point. *)

val self_check : t -> string option
(** The hosted automaton's local legitimacy guards
    ({!Vsgc_core.Endpoint.self_check} / {!Vsgc_mbrshp.Servers.self_check});
    [Some reason] witnesses corrupt or counter-exhausted state. *)

(** {1 Observation} *)

val steps : t -> int
(** Actions this node's executor has performed (trace length). *)

val delivered : t -> (Proc.t * Msg.App_msg.t) list
(** Client node: application deliveries, oldest first. *)

val views : t -> (View.t * Proc.Set.t) list
(** Client node: views delivered to the application, oldest first. *)

val last_view : t -> (View.t * Proc.Set.t) option
val current_view : t -> View.t

val attached : t -> Proc.Set.t
(** Server node: clients currently joined. *)

val endpoint_state : t -> Vsgc_core.Endpoint.t
(** Client node: the hosted GCS end-point's state — what the §6/§7
    invariant checkers consume.
    @raise Invalid_argument on a server node. *)

val crashed : t -> bool
(** Client node currently crashed (§8)? Always [false] for servers. *)

val malformed : t -> int
(** Malformed transport events survived so far. *)

val trace : t -> Action.t list
val quiescent : t -> bool

val fingerprint : t -> string
(** {!Vsgc_ioa.Trace_stats.fingerprint} of this node's trace. *)
