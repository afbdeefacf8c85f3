(* The one interface both total-order arms satisfy (DESIGN.md §16): the
   sequencer arm ({!Tord_client}) and the symmetric arm
   ({!Tord_sym_client}) are the blocking-client shell of Figure 12
   ({!Vsgc_core.Client_shell}) over a GCS end-point, each over its own
   ordering core, and expose a totally ordered log. Everything layered
   on a total order — the replica, the hosting node, the KV service —
   is written once against this signature.

   Construction is deliberately not part of it: each arm's [initial]
   builds its core with its own options (the sequencer's
   [batch_orders]), and the caller hands the resulting state in. *)

open Vsgc_types

module type S = sig
  include Vsgc_core.Client_shell.S

  val total_order : t -> (Proc.t * string) list
  (** (original sender, payload), oldest first. *)

  (** {1 Stable-prefix cursor} *)

  val log_length : t -> int
  (** Totally ordered entries so far (O(1)). *)

  val ordered_from : t -> int -> string list
  (** Ordered payloads from global position [k], oldest first; a
      beyond-the-log cursor (reborn arm) reads as empty. *)
end
