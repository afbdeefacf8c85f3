(* The sequential-rounds baseline comparator.

   This end-point models the classical virtual-synchrony construction
   the paper contrasts with ([7, 22]-style, §1, §5.2, §9): the
   synchronization messages must be tagged with a globally unique
   identifier that all members pre-agree on — in practice the
   identifier of the view being delivered — so the synchronization
   round can only start once the membership algorithm has terminated
   and announced that view. The rounds are therefore SEQUENTIAL:
   membership first, then one cut-exchange round, where the paper's
   algorithm overlaps them.

   Two deliberate behavioural differences from the paper's algorithm,
   measured by benches E1/E2/E5/E7:
   - the cut exchange starts only after the membership view arrives
     (one extra message-round of view-change latency);
   - membership views are processed to termination in FIFO order, so a
     view already known to be out of date is still delivered ("proceed
     to termination, then reconfigure again", §1).

   The message-stream machinery (view_msg / app_msg bookkeeping) is
   inherited from the paper's own WV_RFIFO layer, so the baseline
   differs only in the reconfiguration protocol. Forwarding of messages
   from disconnected end-points is not modelled; the comparison
   scenarios keep all members connected. *)

open Vsgc_types
module Wv = Vsgc_core.Wv_rfifo
module Gcs = Vsgc_core.Gcs

module Vid_map = Map.Make (struct
  type t = View.Id.t

  let compare = View.Id.compare
end)

type bsync = { view : View.t; cut : Msg.Cut.t }

type t = {
  wv : Wv.t;
  start_change : Proc.Set.t option;  (* set of the last membership start_change *)
  pending_views : View.t list;  (* membership views, processed in FIFO order *)
  bsyncs : bsync Vid_map.t Proc.Map.t;  (* bsyncs[q][target view id] *)
  block_status : Gcs.block_status;
  crashed : bool;
}

let initial me =
  {
    wv = Wv.initial me;
    start_change = None;
    pending_views = [];
    bsyncs = Proc.Map.empty;
    block_status = Gcs.Unblocked;
    crashed = false;
  }

let me st = st.wv.Wv.me

let bsync_of st q vid =
  match Proc.Map.find_opt q st.bsyncs with
  | None -> None
  | Some per_vid -> Vid_map.find_opt vid per_vid

let set_bsync st q vid b =
  let per_vid =
    match Proc.Map.find_opt q st.bsyncs with None -> Vid_map.empty | Some x -> x
  in
  { st with bsyncs = Proc.Map.add q (Vid_map.add vid b per_vid) st.bsyncs }

(* The head pending view is the current reconfiguration target. *)
let target st =
  match st.pending_views with
  | v' :: _ when View.Id.lt (View.id st.wv.Wv.current_view) (View.id v') -> Some v'
  | _ -> None

let in_change st = st.start_change <> None || target st <> None

let reliable_target st =
  let base = View.set st.wv.Wv.current_view in
  let base =
    match st.start_change with Some set -> Proc.Set.union base set | None -> base
  in
  match target st with Some v' -> Proc.Set.union base (View.set v') | None -> base

let block_enabled st = in_change st && st.block_status = Gcs.Unblocked

(* The cut-exchange round, taggable only once the target view is known. *)
let own_bsync_sent st =
  match target st with Some v' -> bsync_of st (me st) (View.id v') <> None | None -> false

let bsync_cut st =
  let v = st.wv.Wv.current_view in
  Proc.Set.fold
    (fun q acc -> Msg.Cut.set acc q (Wv.longest_prefix st.wv q v))
    (View.set v) Msg.Cut.empty

let bsync_send_enabled st =
  st.block_status = Gcs.Blocked
  && (not (own_bsync_sent st))
  && (match target st with
     | Some v' ->
         Proc.Set.subset
           (Proc.Set.union (View.set v') (View.set st.wv.Wv.current_view))
           st.wv.Wv.reliable_set
     | None -> false)

let bsync_send_action st =
  match target st with
  | Some v' ->
      let dests =
        Proc.Set.remove (me st)
          (Proc.Set.union (View.set v') (View.set st.wv.Wv.current_view))
      in
      Action.Rf_send
        ( me st,
          dests,
          Msg.Wire.Bsync
            { vid = View.id v'; view = st.wv.Wv.current_view; cut = bsync_cut st } )
  | None -> invalid_arg "Baseline.bsync_send_action"

let bsync_send_effect st =
  match target st with
  | Some v' ->
      set_bsync st (me st) (View.id v')
        { view = st.wv.Wv.current_view; cut = bsync_cut st }
  | None -> st

(* View delivery: all members moving with us must have exchanged cuts
   tagged with the target view's identifier. *)
let view_ready st =
  match target st with
  | Some v' when View.mem (me st) v' ->
      let vid = View.id v' in
      let inter = Proc.Set.inter (View.set v') (View.set st.wv.Wv.current_view) in
      if not (Proc.Set.for_all (fun q -> bsync_of st q vid <> None) inter) then None
      else
        let tset =
          Proc.Set.filter
            (fun q ->
              match bsync_of st q vid with
              | Some b -> View.equal b.view st.wv.Wv.current_view
              | None -> false)
            inter
        in
        let cuts =
          Proc.Set.fold
            (fun r acc ->
              match bsync_of st r vid with Some b -> b.cut :: acc | None -> acc)
            tset []
        in
        if
          Proc.Set.for_all
            (fun q -> Wv.last_dlvrd st.wv q = Msg.Cut.max_over cuts q)
            (View.set st.wv.Wv.current_view)
        then Some (v', tset)
        else None
  | _ -> None

(* Delivery restriction: once the own cut for the target view is out,
   never deliver beyond the committed cuts of the joint movers. *)
let deliver_restriction st q =
  match target st with
  | Some v' when own_bsync_sent st ->
      let vid = View.id v' in
      let inter = Proc.Set.inter (View.set v') (View.set st.wv.Wv.current_view) in
      let cuts =
        Proc.Set.fold
          (fun r acc ->
            match bsync_of st r vid with
            | Some b when View.equal b.view st.wv.Wv.current_view -> b.cut :: acc
            | _ -> acc)
          inter []
      in
      Wv.last_dlvrd st.wv q + 1 <= Msg.Cut.max_over cuts q
  | _ -> true

(* -- Component ----------------------------------------------------------- *)

let outputs st =
  if st.crashed then []
  else
    let p = me st in
    let acc = ref [] in
    let add a = acc := a :: !acc in
    let rt = reliable_target st in
    if Wv.reliable_enabled st.wv ~target:rt then add (Action.Rf_reliable (p, rt));
    if Wv.view_msg_send_enabled st.wv then add (Wv.view_msg_send_action st.wv);
    if Wv.app_msg_send_enabled st.wv then add (Wv.app_msg_send_action st.wv);
    if block_enabled st then add (Action.Block p);
    if bsync_send_enabled st then add (bsync_send_action st);
    Proc.Set.iter
      (fun q ->
        if deliver_restriction st q && Wv.deliver_enabled st.wv q then
          match Wv.deliver_next st.wv q with
          | Some m -> add (Action.App_deliver (p, q, m))
          | None -> ())
      (Wv.known_senders st.wv);
    (match view_ready st with
    | Some (v', tset) -> add (Action.App_view (p, v', tset))
    | None -> ());
    !acc

let accepts = Vsgc_core.Endpoint.accepts

let lift st f = { st with wv = f st.wv }

(* Drop pending membership views superseded before their turn. *)
let rec gc_pending st =
  match st.pending_views with
  | v' :: rest when not (View.Id.lt (View.id st.wv.Wv.current_view) (View.id v')) ->
      gc_pending { st with pending_views = rest }
  | _ -> st

let apply st (a : Action.t) =
  let p = me st in
  if st.crashed then
    match a with Action.Recover q when Proc.equal p q -> initial p | _ -> st
  else
    gc_pending
      (match a with
      | Action.App_send (_, m) -> lift st (fun w -> Wv.send_effect w m)
      | Action.Mb_view (_, v) ->
          let st = { st with pending_views = st.pending_views @ [ v ] } in
          lift st (fun w -> Wv.mbrshp_view_effect w v)
      | Action.Mb_start_change (_, _, set) -> { st with start_change = Some set }
      | Action.Block_ok _ -> { st with block_status = Gcs.Blocked }
      | Action.Rf_deliver (q, _, w) -> (
          match w with
          | Msg.Wire.Bsync { vid; view; cut } -> set_bsync st q vid { view; cut }
          | _ -> lift st (fun wst -> Wv.recv wst q w))
      | Action.Crash _ -> { st with crashed = true }
      | Action.Recover _ -> st
      | Action.Block _ -> { st with block_status = Gcs.Requested }
      | Action.Rf_reliable (_, set) -> lift st (fun w -> Wv.reliable_effect w set)
      | Action.Rf_send (_, _, Msg.Wire.View_msg _) -> lift st Wv.view_msg_send_effect
      | Action.Rf_send (_, _, Msg.Wire.App _) -> lift st Wv.app_msg_send_effect
      | Action.Rf_send (_, _, Msg.Wire.Bsync _) -> bsync_send_effect st
      | Action.App_deliver (_, q, _) -> lift st (fun w -> Wv.deliver_effect w q)
      | Action.App_view (_, v, _) ->
          let st =
            { st with
              pending_views =
                (match st.pending_views with _ :: rest -> rest | [] -> []);
              start_change = None;
              block_status = Gcs.Unblocked }
          in
          lift st (fun w -> Wv.view_effect w v)
      | _ -> st)

(* End-point-role component: co-located at p (same cell as the client
   and the real end-point tower it replaces). *)
let footprint p (a : Action.t) =
  let open Vsgc_ioa.Footprint in
  match a with
  | Action.App_send (q, _) | Action.Block_ok q | Action.Mb_start_change (q, _, _)
  | Action.Mb_view (q, _) | Action.Crash q | Action.Recover q
  | Action.Rf_reliable (q, _) | Action.Rf_send (q, _, _)
  | Action.App_deliver (q, _, _) | Action.App_view (q, _, _) | Action.Block q
    when Proc.equal p q -> rw [ Proc_state p ]
  | Action.Rf_deliver (_, q, _) when Proc.equal p q -> rw [ Proc_state p ]
  | _ -> empty

let emits p (a : Action.t) =
  match a with
  | Action.Rf_reliable (q, _) | Action.App_deliver (q, _, _)
  | Action.App_view (q, _, _) | Action.Block q -> Proc.equal p q
  | Action.Rf_send (q, _, w) -> (
      Proc.equal p q
      &&
      match Msg.Wire.kind w with
      | Msg.Wire.K_view_msg | Msg.Wire.K_app | Msg.Wire.K_bsync -> true
      | Msg.Wire.K_sync | Msg.Wire.K_sync_batch | Msg.Wire.K_fwd -> false)
  | _ -> false

let observe p (st : t) =
  [ (Vsgc_ioa.Footprint.Proc_state p, Vsgc_ioa.Component.digest st) ]

let def p : t Vsgc_ioa.Component.def =
  {
    name = Fmt.str "baseline_%a" Proc.pp p;
    init = initial p;
    accepts = accepts p;
    outputs;
    apply;
    footprint = footprint p;
    emits = emits p;
    observe = observe p;
  }

let component p =
  let d = def p in
  let r = ref d.Vsgc_ioa.Component.init in
  (Vsgc_ioa.Component.pack_with_ref d r, r)
