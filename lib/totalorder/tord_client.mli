(** The totally-ordered-multicast application component: the
    blocking-client shell ({!Tord_shell}, Figure 12) over the sequencer
    core {!Tord_core}. *)

open Vsgc_types

type t

val initial : ?batch_orders:bool -> Proc.t -> t
(** With [batch_orders] the sequencer coalesces its announcement backlog
    into one multicast ({!Tord_core.encode_order_batch}) — identical
    total order, fewer wire messages. The option survives
    [Crash]/[Recover]. *)

include Total_order.S with type t := t

val component : ?batch_orders:bool -> Proc.t -> Vsgc_ioa.Component.packed * t ref
