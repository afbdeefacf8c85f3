(* The totally-ordered-multicast application component: plays the
   blocking-client role (Figure 12) toward a GCS end-point and exposes
   a totally ordered delivery log built by {!Tord_core}.

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

type block_status = Unblocked | Requested | Blocked

type t = {
  core : Tord_core.t;
  me : Proc.t;
  block_status : block_status;
  to_send : string list;  (* encoded data payloads, oldest first *)
  announce_queue : (Proc.t * int) list;  (* unsent announcements, oldest first *)
  views : (View.t * Proc.Set.t) list;  (* newest first *)
  crashed : bool;
  batch_orders : bool;  (* coalesce the backlog into one multicast *)
}

let initial ?(batch_orders = false) me =
  {
    core = Tord_core.create me;
    me;
    block_status = Unblocked;
    to_send = [];
    announce_queue = [];
    views = [];
    crashed = false;
    batch_orders;
  }

(* -- Scripting / observation API ----------------------------------------- *)

let push (r : t ref) payload =
  r := { !r with to_send = !r.to_send @ [ Tord_core.encode_data payload ] }

let total_order t =
  List.map (fun (e : Tord_core.entry) -> (e.Tord_core.sender, e.Tord_core.payload))
    (Tord_core.total_order t.core)

let views t = List.rev t.views
let last_view t = match t.views with [] -> None | v :: _ -> Some v
let crashed t = t.crashed

(* -- Stable-prefix cursor ------------------------------------------------- *)

let log_length t = Tord_core.total_count t.core

let ordered_from t k =
  List.map
    (fun (e : Tord_core.entry) -> e.Tord_core.payload)
    (Tord_core.entries_from t.core k)

(* -- Component ------------------------------------------------------------ *)

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

let outputs t =
  if t.crashed then []
  else
    let acc = if t.block_status = Requested then [ Action.Block_ok t.me ] else [] in
    match next_send t with
    | Some s when t.block_status <> Blocked ->
        Action.App_send (t.me, Msg.App_msg.make s) :: acc
    | _ -> acc

let accepts me (a : Action.t) =
  match a with
  | Action.App_deliver (p, _, _) | Action.App_view (p, _, _) | Action.Block p
  | Action.Crash p | Action.Recover p -> Proc.equal p me
  | _ -> false

let apply t (a : Action.t) =
  if t.crashed then
    match a with
    | Action.Recover p when Proc.equal p t.me ->
        initial ~batch_orders:t.batch_orders t.me
    | _ -> t
  else
    match a with
    | Action.App_send (_, m) -> (
        let s = Msg.App_msg.payload m in
        match announcement_payload t with
        | Some a when String.equal a s ->
            (* A batch payload covers the whole backlog; a single
               encoding covers exactly the head. *)
            let announce_queue =
              if t.batch_orders then []
              else match t.announce_queue with _ :: rest -> rest | [] -> []
            in
            { t with announce_queue }
        | _ -> (
            match t.to_send with
            | d :: rest when String.equal d s -> { t with to_send = rest }
            | _ -> t))
    | Action.Block_ok _ -> { t with block_status = Blocked }
    | Action.Block _ -> { t with block_status = Requested }
    | Action.App_deliver (_, q, m) ->
        let core, _newly, announcements =
          Tord_core.on_deliver t.core ~sender:q ~payload:(Msg.App_msg.payload m)
        in
        { t with core; announce_queue = t.announce_queue @ announcements }
    | Action.App_view (_, v, tset) ->
        let core, _flushed = Tord_core.on_view t.core ~view:v ~transitional:tset in
        { t with
          core;
          announce_queue = [];
          views = (v, tset) :: t.views;
          block_status = Unblocked }
    | Action.Crash _ -> { t with crashed = true }
    | _ -> t

(* Client-role component: everything is co-located at me. *)
let footprint me (a : Action.t) =
  let open Vsgc_ioa.Footprint in
  match a with
  | Action.App_send (p, _) | Action.Block_ok p | Action.App_deliver (p, _, _)
  | Action.App_view (p, _, _) | Action.Block p | Action.Crash p | Action.Recover p
    when Proc.equal p me -> rw [ Proc_state me ]
  | _ -> empty

let emits me (a : Action.t) =
  match a with
  | Action.App_send (p, _) | Action.Block_ok p -> Proc.equal p me
  | _ -> false

let observe me (st : t) =
  [ (Vsgc_ioa.Footprint.Proc_state me, Vsgc_ioa.Component.digest st) ]

let def ?batch_orders me : t Vsgc_ioa.Component.def =
  {
    name = Fmt.str "tord_%a" Proc.pp me;
    init = initial ?batch_orders me;
    accepts = accepts me;
    outputs;
    apply;
    footprint = footprint me;
    emits = emits me;
    observe = observe me;
  }

let component ?batch_orders me =
  let d = def ?batch_orders me in
  let r = ref d.Vsgc_ioa.Component.init in
  (Vsgc_ioa.Component.pack_with_ref d r, r)
