(* The totally-ordered-multicast application component: the
   blocking-client shell of Figure 12 ({!Tord_shell}) over the sequencer
   core {!Tord_core}. This module supplies only the sequencer's send
   queues.

   Announcements the sequencer could not send while blocked are dropped
   at the view boundary: Virtual Synchrony means no member saw them, and
   the deterministic flush of {!Tord_core.on_view} orders the affected
   messages identically everywhere.

   With [batch_orders] the sequencer coalesces its whole announcement
   backlog into one [Tord_core.encode_order_batch] multicast instead of
   one wire message per data message — the Derecho-style batching that
   keeps throughput wire-bound (DESIGN.md §15). The resulting total
   order is identical to the unbatched path: a batch delivers its
   members in announcement order. *)

open Vsgc_types

module Core = struct
  type t = {
    order : Tord_core.t;
    to_send : string list;  (* encoded data payloads, oldest first *)
    announce_queue : (Proc.t * int) list;  (* unsent announcements, oldest first *)
    batch_orders : bool;  (* coalesce the backlog into one multicast *)
  }

  type entry = Tord_core.entry

  let name = "tord"
  let log t = Tord_core.log t.order
  let sender (e : entry) = e.sender
  let payload (e : entry) = e.payload
  let push t payload = { t with to_send = t.to_send @ [ Tord_core.encode_data payload ] }

  (* The pending announcement multicast, if any: the head alone, or the
     whole backlog in one batch payload when [batch_orders] is set. *)
  let announcement_payload t =
    match t.announce_queue with
    | [] -> None
    | [ (sender, index) ] -> Some (Tord_core.encode_order ~sender ~index)
    | (sender, index) :: _ when not t.batch_orders ->
        Some (Tord_core.encode_order ~sender ~index)
    | batch -> Some (Tord_core.encode_order_batch batch)

  let next_send t =
    match announcement_payload t with
    | Some a -> Some a
    | None -> ( match t.to_send with d :: _ -> Some d | [] -> None)

  let on_sent t s =
    match announcement_payload t with
    | Some a when String.equal a s ->
        (* A batch payload covers the whole backlog; a single encoding
           covers exactly the head. *)
        let announce_queue =
          if t.batch_orders then []
          else match t.announce_queue with _ :: rest -> rest | [] -> []
        in
        { t with announce_queue }
    | _ -> (
        match t.to_send with
        | d :: rest when String.equal d s -> { t with to_send = rest }
        | _ -> t)

  let on_deliver t sender payload =
    let order, _, announcements = Tord_core.on_deliver t.order ~sender ~payload in
    { t with order; announce_queue = t.announce_queue @ announcements }

  let on_view t view transitional =
    let order, _ = Tord_core.on_view t.order ~view ~transitional in
    { t with order; announce_queue = [] }

  include Vsgc_core.Client_shell.Silent
end

include Tord_shell.Make (Core)

let initial ?(batch_orders = false) me =
  make me { order = Tord_core.create me; to_send = []; announce_queue = []; batch_orders }

let component ?batch_orders me = component_of (initial ?batch_orders me)
