(** A replicated key-value state machine over totally ordered multicast
    — the application motif the paper gives for Virtual Synchrony
    (§4.1.2). Replicas that travel together stay byte-identical with no
    synchronization exchange; on merges, the minimum member of each
    transitional set multicasts one snapshot, folded into the same
    totally ordered log as the commands (so adoption is deterministic
    everywhere). The [transfer_blind] ablation models a system without
    transitional sets: every member ships its snapshot at every view
    change (bench E8).

    The replica is written once, as {!Make}, over any total-order arm
    ({!Vsgc_totalorder.Total_order.S}). This module's top level is the
    sequencer-arm instance; {!Sym} is the symmetric-arm instance
    (DESIGN.md §16). Both share the codec and the fold below, so their
    states are the same pure function of their ordered logs. *)

open Vsgc_types
module Smap : Map.S with type key = string

exception Codec_drift of string
(** Raised in strict mode when an undecodable command reaches the
    totally ordered log. *)

(** {1 Commands and snapshots} *)

val encode_set : key:string -> value:string -> string

val encode_write :
  client:int -> seq:int -> key:string -> value:string -> string
(** A KV-service write stamped with the originating command id
    [(client, seq)] — idempotent under retransmission, acks dedup by
    id (DESIGN.md §15). *)

val encode_snapshot : version:int -> string Smap.t -> string

type cmd =
  | Set of string * string
  | Write of { client : int; seq : int; key : string; value : string }
  | Snapshot of int * string Smap.t
  | Unknown

val decode : string -> cmd

val fold_state : ('a * string) list -> int * string Smap.t
(** Fold decoded commands over an ordered (sender, payload) log — the
    pure function every replica's {!S.state} is defined by. *)

(** {1 A replica over one total-order arm} *)

module type S = sig
  type t

  include Vsgc_totalorder.Total_order.S with type t := t
  (** A replica is itself a total order: {!push} queues a raw payload,
      the cursor reads the arm's log, and {!apply} raises {!Codec_drift}
      in strict mode on an Unknown ordered command. *)

  val unknowns : t -> int

  (** {2 State (a pure fold of the totally ordered log)} *)

  val state : t -> string Smap.t
  val version : t -> int
  val get : t -> string -> string option

  (** {2 Scripting} *)

  val set : t ref -> key:string -> value:string -> unit

  val write :
    t ref -> client:int -> seq:int -> key:string -> value:string -> unit
end

module Make (_ : Vsgc_totalorder.Total_order.S) : S
(** The replica over the given arm. Each instance below adds its own
    component constructor, so arm-specific construction (the
    sequencer's [batch_orders], its [transfer_blind] ablation) stays
    with that arm. *)

(** {1 The sequencer-arm instance} *)

type t = {
  tc : Vsgc_totalorder.Tord_client.t;
  me : Proc.t;
  transfer_blind : bool;
  snapshot_bytes : int;  (** total snapshot payload bytes multicast *)
  snapshots_sent : int;
  strict : bool;  (** raise {!Codec_drift} on Unknown ordered commands *)
  unknowns : int;  (** Unknown commands tolerated (non-strict mode) *)
}

include S with type t := t

val component :
  ?transfer_blind:bool ->
  ?strict:bool ->
  ?batch_orders:bool ->
  Proc.t ->
  Vsgc_ioa.Component.packed * t ref
(** [strict] defaults to [true]; with [false], codec drift is counted
    in {!unknowns} instead of raised. [batch_orders] selects the
    coalesced announcement path
    ({!Vsgc_totalorder.Tord_client.t.batch_orders}). *)

(** {1 The symmetric-arm instance} *)

module Sym : sig
  include S

  val component : ?strict:bool -> Proc.t -> Vsgc_ioa.Component.packed * t ref
  (** [strict] defaults as for the sequencer instance. *)
end
