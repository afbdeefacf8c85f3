(* What both total-order arms add to the blocking-client shell
   ({!Vsgc_core.Client_shell}, Figure 12): a core that keeps an ordered
   log ({!Tord_log}), read through the {!Total_order.S} accessors. *)

open Vsgc_types

module type CORE = sig
  include Vsgc_core.Client_shell.CORE

  type entry

  val log : t -> entry Tord_log.t
  val sender : entry -> Proc.t
  val payload : entry -> string
end

module Make (C : CORE) : sig
  include Total_order.S

  val make : Proc.t -> C.t -> t
  (** The shell of [p] over a freshly built core. *)

  val component_of : t -> Vsgc_ioa.Component.packed * t ref
end = struct
  include Vsgc_core.Client_shell.Make (C)

  let log t = C.log (core t)

  let total_order t =
    List.map (fun e -> (C.sender e, C.payload e)) (Tord_log.to_list (log t))

  let log_length t = Tord_log.length (log t)
  let ordered_from t k = List.map C.payload (Tord_log.from (log t) k)
end
