(** The scripted application client: the blocking client of Figure 12
    (CLIENT_p : SPEC, {!Client_shell}) over a core that multicasts the
    payloads the harness queues and logs what it sends and is
    delivered — the integration tests and the liveness assertions read
    the logs. Its component is named [client_p]. *)

open Vsgc_types

type t

val initial : Proc.t -> t
val component : Proc.t -> Vsgc_ioa.Component.packed * t ref

include Client_shell.S with type t := t

val push_many : t ref -> string list -> unit

val sent : t -> Msg.App_msg.t list
(** Oldest first. *)

val delivered : t -> (Proc.t * Msg.App_msg.t) list
(** Oldest first. *)

val delivered_from : t -> Proc.t -> Msg.App_msg.t list
