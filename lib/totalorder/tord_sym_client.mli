(** The symmetric-total-order application component: the blocking-client
    shell ({!Tord_shell}, Figure 12) over {!Tord_symmetric}. Timestamps
    are assigned at actual send time; send priority is Flush (owed after
    every view change), then queued data, then the derived
    acknowledgment. Every append to the local total order is reported as
    a {!Vsgc_types.Action.Sym_deliver} output for the Skeen trace
    monitor. *)

open Vsgc_types

type t

val initial : Proc.t -> t

include Total_order.S with type t := t

val component : Proc.t -> Vsgc_ioa.Component.packed * t ref
