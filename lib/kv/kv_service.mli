(** The KV service engine between a hosted replica (of either
    total-order arm) and the request/response protocol: writes enter the totally ordered
    stream stamped with their command id, reads answer from the
    materialized committed prefix, and {!advance} folds newly ordered
    entries into the store — one apply+ack round per contiguous run
    when batched, one per command when not, byte-identical stores
    either way (DESIGN.md §15). *)

module Kv_msg = Vsgc_wire.Kv_msg

type t

val create :
  batch:bool ->
  (module Vsgc_totalorder.Total_order.S with type t = 'a) ->
  'a ref ->
  t
(** Host the engine on a replica of either arm (DESIGN.md §16): writes
    are pushed into its ordered stream as {!Vsgc_replication.Replica}
    write commands, and the stable prefix is read through its cursor. *)

val handle_request : t -> Kv_msg.request -> unit
(** A request off the wire: [Put] is pushed into the replica's ordered
    stream (acknowledged by {!advance} once stable), [Get] queues an
    immediate reply from the committed store. *)

val advance : t -> unit
(** Fold entries ordered since the last call into the store and queue
    one [Put_ack] per newly stable write. Detects a reborn replica
    (log restarted below the cursor) and refolds from scratch. *)

val take_acks : t -> Kv_msg.response list
(** Drain queued responses, oldest first. *)

val store : t -> Kv_store.t
val digest : t -> string
val cursor : t -> int

val apply_rounds : t -> int
(** Apply+ack rounds so far — the per-message bookkeeping count the
    batched path collapses. *)

val requests : t -> int
val rebirths : t -> int
val batched : t -> bool
