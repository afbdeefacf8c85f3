(* The blocking-client shell both total-order arms share: the CLIENT
   automaton of Figure 12 toward a GCS end-point, written once. It
   answers [Block] with [Block_ok], sends nothing while blocked,
   unblocks on a view, goes silent on [Crash] and restarts from the core
   it was built with on [Recover] (so arm options such as the
   sequencer's [batch_orders] survive a crash). It also keeps the views
   and exposes the core's ordered log through {!Total_order.S}.

   A core ({!CORE}) supplies only what differs between the arms: the
   next wire payload, what a send consumes, and what a delivery and a
   view do to the ordering state. A core that reports its ordered
   appends ([report]) gets a [Sym_deliver] queue; only such a core
   declares [Sym_deliver] in its static signature. *)

open Vsgc_types

module type CORE = sig
  type t
  type entry

  val name : string
  (** Component-name prefix: the component of [p] is [name_p]. *)

  val log : t -> entry Tord_log.t
  val sender : entry -> Proc.t
  val payload : entry -> string

  val push : t -> string -> t
  (** Queue a payload for totally ordered multicast. *)

  val next_send : t -> string option
  (** The next wire payload, if any; a pure function of the state. *)

  val on_sent : t -> string -> t
  (** The effect of sending the given wire payload. *)

  val on_deliver : t -> sender:Proc.t -> payload:string -> t * entry list
  (** A GCS delivery; returns the entries it totally ordered. *)

  val on_view : t -> view:View.t -> transitional:Proc.Set.t -> t * entry list
  (** A GCS view; returns the entries flushed at the boundary. *)

  val report : (entry -> Proc.t * int * string) option
  (** If set, every ordered entry is reported as a
      [Sym_deliver (me, sender, ts, payload)] output, in log order. *)
end

module Make (C : CORE) : sig
  include Total_order.S

  val make : Proc.t -> C.t -> t
  (** The shell of [p] over a freshly built core. *)

  val component_of : t -> Vsgc_ioa.Component.packed * t ref
end = struct
  type block_status = Unblocked | Requested | Blocked

  type t = {
    me : Proc.t;
    core : C.t;
    init : C.t;  (* the core as built; Recover restarts from it *)
    block_status : block_status;
    reports : (Proc.t * int * string) list;  (* Sym_deliver queue, oldest first *)
    views : (View.t * Proc.Set.t) list;  (* newest first *)
    crashed : bool;
  }

  let make me core =
    {
      me;
      core;
      init = core;
      block_status = Unblocked;
      reports = [];
      views = [];
      crashed = false;
    }

  (* -- Scripting / observation API --------------------------------------- *)

  let push (r : t ref) payload = r := { !r with core = C.push !r.core payload }

  let total_order t =
    List.map (fun e -> (C.sender e, C.payload e)) (Tord_log.to_list (C.log t.core))

  let views t = List.rev t.views
  let last_view t = match t.views with [] -> None | v :: _ -> Some v
  let crashed t = t.crashed

  (* -- Stable-prefix cursor ----------------------------------------------- *)

  let log_length t = Tord_log.length (C.log t.core)
  let ordered_from t k = List.map C.payload (Tord_log.from (C.log t.core) k)

  (* -- Component ---------------------------------------------------------- *)

  let queue_reports t entries =
    match C.report with
    | None -> t.reports
    | Some f -> t.reports @ List.map f entries

  (* Candidates in a fixed order — App_send, Sym_deliver, Block_ok — the
     executor picks among them by index. *)
  let outputs t =
    if t.crashed then []
    else
      let acc = if t.block_status = Requested then [ Action.Block_ok t.me ] else [] in
      let acc =
        match t.reports with
        | (sender, ts, payload) :: _ ->
            Action.Sym_deliver (t.me, sender, ts, payload) :: acc
        | [] -> acc
      in
      match C.next_send t.core with
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
      match a with Action.Recover p when Proc.equal p t.me -> make t.me t.init | _ -> t
    else
      match a with
      | Action.App_send (_, m) ->
          { t with core = C.on_sent t.core (Msg.App_msg.payload m) }
      | Action.Sym_deliver _ -> (
          match t.reports with [] -> t | _ :: rest -> { t with reports = rest })
      | Action.Block_ok _ -> { t with block_status = Blocked }
      | Action.Block _ -> { t with block_status = Requested }
      | Action.App_deliver (_, q, m) ->
          let core, newly =
            C.on_deliver t.core ~sender:q ~payload:(Msg.App_msg.payload m)
          in
          { t with core; reports = queue_reports t newly }
      | Action.App_view (_, v, tset) ->
          let core, flushed = C.on_view t.core ~view:v ~transitional:tset in
          { t with
            core;
            reports = queue_reports t flushed;
            views = (v, tset) :: t.views;
            block_status = Unblocked }
      | Action.Crash _ -> { t with crashed = true }
      | _ -> t

  (* Only a reporting core emits Sym_deliver, so only its static
     signature names it (the explorer's independence relation and
     [vet effects] read these). *)
  let reports_at me = function
    | Action.Sym_deliver (p, _, _, _) -> Option.is_some C.report && Proc.equal p me
    | _ -> false

  (* Client-role component: everything is co-located at me. *)
  let footprint me (a : Action.t) =
    let open Vsgc_ioa.Footprint in
    match a with
    | Action.App_send (p, _) | Action.Block_ok p | Action.App_deliver (p, _, _)
    | Action.App_view (p, _, _) | Action.Block p | Action.Crash p | Action.Recover p
      when Proc.equal p me -> rw [ Proc_state me ]
    | _ when reports_at me a -> rw [ Proc_state me ]
    | _ -> empty

  let emits me (a : Action.t) =
    match a with
    | Action.App_send (p, _) | Action.Block_ok p -> Proc.equal p me
    | _ -> reports_at me a

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
