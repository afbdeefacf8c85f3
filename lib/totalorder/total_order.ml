(* The one interface both total-order arms satisfy (DESIGN.md §16): the
   sequencer arm ({!Tord_client}) and the symmetric arm
   ({!Tord_sym_client}) are blocking-client components over a GCS
   end-point that expose a totally ordered log. Everything layered on
   a total order — the replica, the hosting node, the KV service — is
   written once against this signature.

   Construction is deliberately not part of it: each arm's [initial]
   takes its own options (the sequencer's [batch_orders]), and the
   caller hands the resulting state in. *)

open Vsgc_types

module type S = sig
  type t

  val push : t ref -> string -> unit
  (** Queue a payload for totally ordered multicast. *)

  val total_order : t -> (Proc.t * string) list
  (** (original sender, payload), oldest first. *)

  val views : t -> (View.t * Proc.Set.t) list
  (** Views delivered to the arm, oldest first. *)

  val last_view : t -> (View.t * Proc.Set.t) option
  val crashed : t -> bool

  (** {1 Stable-prefix cursor} *)

  val log_length : t -> int
  (** Totally ordered entries so far (O(1)). *)

  val ordered_from : t -> int -> string list
  (** Ordered payloads from global position [k], oldest first; a
      beyond-the-log cursor (reborn arm) reads as empty. *)

  (** {1 Component} *)

  val outputs : t -> Action.t list
  val accepts : Proc.t -> Action.t -> bool
  val apply : t -> Action.t -> t
  val footprint : Proc.t -> Action.t -> Vsgc_ioa.Footprint.t
  val emits : Proc.t -> Action.t -> bool
end
