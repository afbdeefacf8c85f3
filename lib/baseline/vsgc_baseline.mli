(** The sequential-rounds baseline comparator.

    Models the classical virtual-synchrony construction the paper
    contrasts with ([7, 22]-style, §1, §5.2, §9): synchronization
    messages must carry a globally unique pre-agreed identifier — in
    practice the identifier of the view being installed — so the cut
    exchange can only start once the membership algorithm has
    terminated and announced that view. The rounds are SEQUENTIAL where
    the paper's algorithm overlaps them (bench E1/E7), and membership
    views are processed to termination in FIFO order, so views already
    known to be out of date are still delivered (bench E5).

    The message-stream machinery is inherited from the paper's own
    {!Vsgc_core.Wv_rfifo} layer, so the baseline differs only in the
    reconfiguration protocol. Forwarding is not modelled; comparison
    scenarios keep members connected. *)

open Vsgc_types

module Vid_map : Map.S with type key = View.Id.t

type bsync = { view : View.t; cut : Msg.Cut.t }

type t = {
  wv : Vsgc_core.Wv_rfifo.t;
  start_change : Proc.Set.t option;
  pending_views : View.t list;  (** membership views, processed FIFO *)
  bsyncs : bsync Vid_map.t Proc.Map.t;  (** bsyncs[q][target view id] *)
  block_status : Vsgc_core.Gcs.block_status;
  crashed : bool;
}

val initial : Proc.t -> t
val target : t -> View.t option
(** The head pending view, when newer than the current one. *)

val view_ready : t -> (View.t * Proc.Set.t) option
val outputs : t -> Action.t list
val accepts : Proc.t -> Action.t -> bool
val apply : t -> Action.t -> t
val def : Proc.t -> t Vsgc_ioa.Component.def
val component : Proc.t -> Vsgc_ioa.Component.packed * t ref
