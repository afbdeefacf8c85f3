(* The blocking application client of Figure 12 (CLIENT_p : SPEC),
   written once as a shell over a core. The shell answers [Block] with
   [Block_ok], sends nothing while blocked, unblocks on a view, keeps
   the views, goes silent on [Crash] and restarts from the core it was
   built with on [Recover] (so a core's construction options survive a
   crash).

   A core ({!CORE}) supplies only what it does with the traffic: the
   next payload to send, what a send consumes, and what a delivery and
   a view do to it. The scripted client ({!Client}) and both
   total-order arms are cores of this one shell. *)

open Vsgc_types

module type CORE = sig
  type t

  val name : string
  (** Component-name prefix: the component of [p] is [name_p]. *)

  val push : t -> string -> t
  (** Queue a payload for multicast. *)

  val next_send : t -> string option
  (** The next payload to send, if any; a pure function of the state. *)

  val on_sent : t -> string -> t
  (** The effect of sending the given payload. *)

  val on_deliver : t -> Proc.t -> string -> t
  (** A delivery: the sender and the payload. *)

  val on_view : t -> View.t -> Proc.Set.t -> t

  (** {2 A core's own output}

      A core may offer one more locally controlled output, placed
      between [App_send] and [Block_ok] (the symmetric arm's
      [Sym_deliver] reports). {!Silent} offers none. *)

  val report : Proc.t -> t -> Action.t list -> Action.t list
  (** [report me t acc] puts the pending own output, if any, on [acc]. *)

  val reported : t -> t
  (** The effect of performing that output. *)

  val reports : Proc.t -> Action.t -> bool
  (** The static signature of that output at [me]. *)
end

(* The own-output part of a core that has none. *)
module Silent = struct
  let report _ _ acc = acc
  let reported t = t
  let reports _ _ = false
end

(* What every shell answers, whatever its core. *)
module type S = sig
  type t

  val push : t ref -> string -> unit
  (** Queue a payload for multicast. *)

  val views : t -> (View.t * Proc.Set.t) list
  (** Views delivered to the client, oldest first. *)

  val last_view : t -> (View.t * Proc.Set.t) option
  val crashed : t -> bool

  val block_status : t -> Gcs.block_status
  (** Invariant 6.11: equal to the end-point's at every reachable state. *)

  val outputs : t -> Action.t list
  val accepts : Proc.t -> Action.t -> bool
  val apply : t -> Action.t -> t
  val footprint : Proc.t -> Action.t -> Vsgc_ioa.Footprint.t
  val emits : Proc.t -> Action.t -> bool
end

module Make (C : CORE) : sig
  include S

  val make : Proc.t -> C.t -> t
  (** The shell of [p] over a freshly built core. *)

  val core : t -> C.t
  val component_of : t -> Vsgc_ioa.Component.packed * t ref
end = struct
  type t = {
    me : Proc.t;
    core : C.t;
    init : C.t;  (* the core as built; Recover restarts from it *)
    block_status : Gcs.block_status;
    views : (View.t * Proc.Set.t) list;  (* newest first *)
    crashed : bool;
  }

  let make me core =
    { me; core; init = core; block_status = Unblocked; views = []; crashed = false }

  let core t = t.core
  let push (r : t ref) payload = r := { !r with core = C.push !r.core payload }
  let views t = List.rev t.views
  let last_view t = match t.views with [] -> None | v :: _ -> Some v
  let crashed t = t.crashed
  let block_status t = t.block_status

  (* Candidates in a fixed order — App_send, the core's own output,
     Block_ok — the executor picks among them by index. *)
  let outputs t =
    if t.crashed then []
    else
      let acc = if t.block_status = Requested then [ Action.Block_ok t.me ] else [] in
      let acc = C.report t.me t.core acc in
      if t.block_status = Blocked then acc
      else
        match C.next_send t.core with
        | Some s -> Action.App_send (t.me, Msg.App_msg.make s) :: acc
        | None -> acc

  let accepts me (a : Action.t) =
    match a with
    | Action.App_deliver (p, _, _) | Action.App_view (p, _, _) | Action.Block p
    | Action.Crash p | Action.Recover p -> Proc.equal p me
    | _ -> false

  let apply t (a : Action.t) =
    if t.crashed then
      match a with Action.Recover p when Proc.equal p t.me -> make t.me t.init | _ -> t
    else
      match a with
      | Action.App_send (_, m) -> { t with core = C.on_sent t.core (Msg.App_msg.payload m) }
      | Action.Block_ok _ -> { t with block_status = Blocked }
      | Action.Block _ -> { t with block_status = Requested }
      | Action.App_deliver (_, q, m) ->
          { t with core = C.on_deliver t.core q (Msg.App_msg.payload m) }
      | Action.App_view (_, v, tset) ->
          { t with
            core = C.on_view t.core v tset;
            views = (v, tset) :: t.views;
            block_status = Unblocked }
      | Action.Crash _ -> { t with crashed = true }
      | _ when C.reports t.me a -> { t with core = C.reported t.core }
      | _ -> t

  (* Client-role component: everything is co-located at me, in the
     Proc_state me cell it shares with its end-point. *)
  let footprint me (a : Action.t) =
    let open Vsgc_ioa.Footprint in
    match a with
    | Action.App_send (p, _) | Action.Block_ok p | Action.App_deliver (p, _, _)
    | Action.App_view (p, _, _) | Action.Block p | Action.Crash p | Action.Recover p
      when Proc.equal p me -> rw [ Proc_state me ]
    | _ when C.reports me a -> rw [ Proc_state me ]
    | _ -> empty

  let emits me (a : Action.t) =
    match a with
    | Action.App_send (p, _) | Action.Block_ok p -> Proc.equal p me
    | _ -> C.reports me a

  let observe me (st : t) =
    [ (Vsgc_ioa.Footprint.Proc_state me, Vsgc_ioa.Component.digest st) ]

  let component_of init =
    let me = init.me in
    let def : t Vsgc_ioa.Component.def =
      {
        name = Fmt.str "%s_%a" C.name Proc.pp me;
        init;
        accepts = accepts me;
        outputs;
        apply;
        footprint = footprint me;
        emits = emits me;
        observe = observe me;
      }
    in
    let r = ref init in
    (Vsgc_ioa.Component.pack_with_ref def r, r)
end
