(** Real-socket transport: non-blocking TCP under a select loop.

    Topology is configured, not discovered: a node listens on one
    address and dials the peers it is told to (each deployment lists
    every edge exactly once). Both sides ship a [Hello] as their
    first frame; a link is [Up] when the peer's [Hello] arrives.

    A malformed frame or a peer crash costs the link, never the
    process: the connection is dropped, [Down]/[Malformed] reported,
    and every configured peer is redialed forever with exponential
    backoff. *)

open Vsgc_wire

type addr = string * int
(** Host (dotted quad) and port. *)

type config = {
  me : Node_id.t;
  listen : addr option;
  peers : (Node_id.t * addr) list;  (** peers this node dials *)
  poll_timeout : float;  (** seconds {!Transport.recv} may block *)
  backoff_min : float;
  backoff_max : float;
}

val config :
  ?listen:addr option ->
  ?peers:(Node_id.t * addr) list ->
  ?poll_timeout:float ->
  ?backoff_min:float ->
  ?backoff_max:float ->
  Node_id.t ->
  config
(** Defaults: no listener, no peers, 50 ms poll, backoff 50 ms - 2 s. *)

val create : config -> Transport.t
(** Binds the listener (if any) and arms the dials; actual connecting
    happens inside {!Transport.recv} polls. [close] makes a bounded
    best-effort flush of queued output before tearing links down.

    Sets the process's SIGPIPE disposition to ignore: a write to a
    peer that crashed a moment earlier then fails with [EPIPE] and
    drops the link ([Down]) instead of killing the writer.
    @raise Unix.Unix_error if binding the listen address fails. *)
