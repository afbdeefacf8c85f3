(** The totally-ordered-multicast application component: plays the
    blocking-client role (Figure 12) toward a GCS end-point and exposes
    the total order built by {!Tord_core}. *)

open Vsgc_types

type block_status = Unblocked | Requested | Blocked

type t = {
  core : Tord_core.t;
  me : Proc.t;
  block_status : block_status;
  to_send : string list;  (** encoded data payloads, oldest first *)
  announce_queue : (Proc.t * int) list;
      (** unsent sequencer announcements, oldest first *)
  views : (View.t * Proc.Set.t) list;  (** newest first *)
  crashed : bool;
  batch_orders : bool;
      (** coalesce the announcement backlog into one multicast
          ({!Tord_core.encode_order_batch}) — identical total order,
          fewer wire messages *)
}

val initial : ?batch_orders:bool -> Proc.t -> t

include Total_order.S with type t := t

val def : ?batch_orders:bool -> Proc.t -> t Vsgc_ioa.Component.def
val component : ?batch_orders:bool -> Proc.t -> Vsgc_ioa.Component.packed * t ref
