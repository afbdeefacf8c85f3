(* Executable renderings of the paper's proof obligations.

   Each function checks one invariant of §6/§7 on a snapshot of the
   composed system's global state (the end-point states, the CO_RFIFO
   channels, and the membership bookkeeping). The test harness runs
   them after every step of randomized executions, which is this
   reproduction's analogue of the paper's inductive proofs: the
   invariants must hold in every reachable state we ever visit.

   Invariants that quantify over crashed end-points are vacuous for
   them (§8: "all the invariants still hold whenever crashed_p is
   false"). *)

open Vsgc_types
module Endpoint = Vsgc_core.Endpoint
module Wv = Vsgc_core.Wv_rfifo
module Vs = Vsgc_core.Vs_rfifo_ts
module Gcs = Vsgc_core.Gcs

exception Invariant_violation of { name : string; message : string }

let fail name fmt =
  Fmt.kstr (fun message -> raise (Invariant_violation { name; message })) fmt

let checkf name cond fmt = if cond then Fmt.kstr ignore fmt else fail name fmt

type snapshot = {
  endpoints : Endpoint.t Proc.Map.t;  (* live (non-crashed) end-point states *)
  client_block : Gcs.block_status Proc.Map.t;
      (* each live client's block status *)
  net : Vsgc_corfifo.state;
  mbrshp : Vsgc_mbrshp.Oracle.state option;
  reborn : Proc.Set.t;
      (* processes that crashed at least once: their pre-crash queues
         are gone (§8, no stable storage), so sender-side checks about
         their old messages are vacuous *)
}

let wv_of e = Endpoint.wv e
let vs_of e = Endpoint.vs e

(* Invariant 6.1: self inclusion of both view variables. *)
let inv_6_1 s =
  Proc.Map.iter
    (fun p e ->
      let w = wv_of e in
      checkf "6.1" (View.mem p w.Wv.current_view)
        "%a not a member of its current_view %a" Proc.pp p View.pp w.Wv.current_view;
      checkf "6.1" (View.mem p w.Wv.mbrshp_view)
        "%a not a member of its mbrshp_view %a" Proc.pp p View.pp w.Wv.mbrshp_view)
    s.endpoints

(* Invariant 6.2: once the view_msg for the current view is out, the
   reliable set covers the current members. *)
let inv_6_2 s =
  Proc.Map.iter
    (fun p e ->
      let w = wv_of e in
      if View.equal w.Wv.current_view (Wv.view_msg_of w p) then
        checkf "6.2"
          (Proc.Set.subset (View.set w.Wv.current_view) w.Wv.reliable_set)
          "%a sent view_msg but reliable_set %a misses members of %a" Proc.pp p
          Proc.Set.pp w.Wv.reliable_set View.pp w.Wv.current_view)
    s.endpoints

(* Invariant 6.3: the stream of view markers from p to q — q's recorded
   view_msg[p] followed by the view_msgs in transit — is strictly
   increasing; p's current view bounds it per parts 2 and 3. *)
let inv_6_3 s =
  Proc.Map.iter
    (fun p e ->
      let wp = wv_of e in
      Proc.Map.iter
        (fun q e_q ->
          (* §8: either side having crashed wipes one end of the
             stream bookkeeping; the invariant is stated for pairs
             whose records are intact *)
          if (not (Proc.equal p q))
             && (not (Proc.Set.mem p s.reborn))
             && not (Proc.Set.mem q s.reborn)
          then begin
            let wq = wv_of e_q in
            let in_transit =
              List.filter_map
                (function Msg.Wire.View_msg v -> Some v | _ -> None)
                (Vsgc_corfifo.channel_contents s.net p q)
            in
            let seq = Wv.view_msg_of wq p :: in_transit in
            let rec strictly_mono = function
              | a :: (b :: _ as rest) ->
                  checkf "6.3.1"
                    (View.Id.lt (View.id a) (View.id b))
                    "view_msg stream %a->%a not monotone: %a then %a" Proc.pp p
                    Proc.pp q View.Id.pp (View.id a) View.Id.pp (View.id b);
                  strictly_mono rest
              | _ -> ()
            in
            strictly_mono seq;
            let last = List.nth seq (List.length seq - 1) in
            if not (View.equal wp.Wv.current_view (Wv.view_msg_of wp p)) then
              checkf "6.3.2"
                (View.Id.lt (View.id last) (View.id wp.Wv.current_view))
                "%a has not announced %a yet but the stream to %a already reaches %a"
                Proc.pp p View.Id.pp (View.id wp.Wv.current_view) Proc.pp q
                View.Id.pp (View.id last)
            else if View.mem q wp.Wv.current_view then
              checkf "6.3.3" (View.equal last wp.Wv.current_view)
                "%a announced %a but the stream to member %a ends at %a" Proc.pp p
                View.Id.pp (View.id wp.Wv.current_view) Proc.pp q View.Id.pp
                (View.id last)
          end)
        s.endpoints)
    s.endpoints

(* Invariants 6.4-6.6 (condensed, without explicit history variables):
   walking each channel and associating every application message with
   the view of the closest preceding view marker (or the receiver's
   recorded one) and with its FIFO index, the message equals the entry
   at that position of the sender's own queue; and anything already
   filed at a receiver matches the sender's queue. *)
let inv_6_6 s =
  (* parts 1 & 2: messages in transit *)
  Proc.Map.iter
    (fun p e_p ->
      let wp = wv_of e_p in
      Proc.Map.iter
        (fun q e_q ->
          if (not (Proc.equal p q))
             && (not (Proc.Set.mem p s.reborn))
             && not (Proc.Set.mem q s.reborn)
          then begin
            let wq = wv_of e_q in
            let hv = ref (Wv.view_msg_of wq p) in
            let hi = ref (Wv.last_rcvd wq p) in
            List.iter
              (fun (w : Msg.Wire.t) ->
                match w with
                | Msg.Wire.View_msg v ->
                    hv := v;
                    hi := 0
                | Msg.Wire.App m -> (
                    incr hi;
                    match Wv.msgs_get wp p !hv !hi with
                    | Some m' when Msg.App_msg.equal m m' -> ()
                    | Some m' ->
                        fail "6.6.1"
                          "in-transit %a->%a message %a at (%a,%d) mismatches sender queue %a"
                          Proc.pp p Proc.pp q Msg.App_msg.pp m View.Id.pp
                          (View.id !hv) !hi Msg.App_msg.pp m'
                    | None ->
                        fail "6.6.1"
                          "in-transit %a->%a message %a at (%a,%d) absent from sender queue"
                          Proc.pp p Proc.pp q Msg.App_msg.pp m View.Id.pp
                          (View.id !hv) !hi)
                | Msg.Wire.Fwd { origin; view; index; msg } -> (
                    match
                      (if Proc.Set.mem origin s.reborn then None
                       else Proc.Map.find_opt origin s.endpoints)
                    with
                    | None -> ()  (* origin crashed: its queue is gone *)
                    | Some e_o -> (
                        match Wv.msgs_get (wv_of e_o) origin view index with
                        | Some m' ->
                            checkf "6.6.2" (Msg.App_msg.equal msg m')
                              "forwarded copy of (%a,%a,%d) differs from origin's queue"
                              Proc.pp origin View.Id.pp (View.id view) index
                        | None -> ()))
                | Msg.Wire.Sync _ | Msg.Wire.Sync_batch _ | Msg.Wire.Bsync _ -> ())
              (Vsgc_corfifo.channel_contents s.net p q)
          end)
        s.endpoints)
    s.endpoints;
  (* part 3: anything filed at any receiver matches the sender's queue.
     A receiver that has crashed and recovered may hold peers' later
     messages misfiled under their default initial views (the stream
     markers were lost with the crash); such entries are never
     deliverable, so the check is vacuous for reborn receivers (§8). *)
  Proc.Map.iter
    (fun q e_q ->
      if Proc.Set.mem q s.reborn then ()
      else
      let wq = wv_of e_q in
      Proc.Map.iter
        (fun p per_view ->
          match
            (if Proc.Set.mem p s.reborn then None else Proc.Map.find_opt p s.endpoints)
          with
          | None -> ()
          | Some e_p ->
              let wp = wv_of e_p in
              View.Map.iter
                (fun v qmap ->
                  Wv.Int_map.iter
                    (fun i m ->
                      match Wv.msgs_get wp p v i with
                      | Some m' ->
                          checkf "6.6.3" (Msg.App_msg.equal m m')
                            "receiver's msgs[%a][%a][%d] differs from sender's"
                            Proc.pp p View.Id.pp (View.id v) i
                      | None ->
                          fail "6.6.3"
                            "receiver holds msgs[%a][%a][%d] the sender never sent"
                            Proc.pp p View.Id.pp (View.id v) i)
                    qmap)
                per_view)
        wq.Wv.msgs)
    s.endpoints

(* Invariant 6.7: a received synchronization message equals the
   sender's own record of it. *)
let inv_6_7 s =
  Proc.Map.iter
    (fun q e_q ->
      Proc.Map.iter
        (fun p per_cid ->
          if (not (Proc.equal p q)) && not (Proc.Set.mem p s.reborn) then
            match Proc.Map.find_opt p s.endpoints with
            | None -> ()
            | Some e_p ->
                Vs.Sc_map.iter
                  (fun cid (sm : Vs.sync) ->
                    (* §5.2.4 markers are recorded by the sender only as
                       a flag; their shape is fixed *)
                    let is_marker =
                      Vs.Sc_set.mem cid (vs_of e_p).Vs.marker_sent
                      && View.equal sm.Vs.view (View.initial p)
                      && Msg.Cut.equal sm.Vs.cut Msg.Cut.empty
                    in
                    if not is_marker then
                      match Vs.sync_msg (vs_of e_p) p cid with
                      | Some own ->
                          checkf "6.7"
                            (View.equal own.Vs.view sm.Vs.view
                            && Msg.Cut.equal own.Vs.cut sm.Vs.cut)
                            "%a's copy of %a's sync_msg[%a] differs from the original"
                            Proc.pp q Proc.pp p View.Sc_id.pp cid
                      | None ->
                          fail "6.7" "%a holds a sync_msg %a never recorded sending (cid %a)"
                            Proc.pp q Proc.pp p View.Sc_id.pp cid)
                  per_cid)
        (vs_of e_q).Vs.sync_msgs)
    s.endpoints

(* Invariant 6.8: no end-point has a sync_msg tagged above the last
   start_change identifier the membership issued to it. *)
let inv_6_8 s =
  match s.mbrshp with
  | None -> ()
  | Some oracle ->
      Proc.Map.iter
        (fun p e ->
          let last = (Vsgc_mbrshp.Oracle.pst oracle p).Vsgc_mbrshp.Oracle.last_cid in
          match Proc.Map.find_opt p (vs_of e).Vs.sync_msgs with
          | None -> ()
          | Some per_cid ->
              Vs.Sc_map.iter
                (fun cid _ ->
                  checkf "6.8"
                    (View.Sc_id.compare cid last <= 0)
                    "%a recorded own sync_msg for future start_change %a (last issued %a)"
                    Proc.pp p View.Sc_id.pp cid View.Sc_id.pp last)
                per_cid)
        s.endpoints

(* Invariant 6.9: the own pending sync message was sent in the current view. *)
let inv_6_9 s =
  Proc.Map.iter
    (fun p e ->
      let v = vs_of e in
      match Vs.own_sync v with
      | Some own ->
          checkf "6.9"
            (View.equal own.Vs.view (wv_of e).Wv.current_view)
            "%a's own sync view %a is not its current view %a" Proc.pp p View.Id.pp
            (View.id own.Vs.view) View.Id.pp (View.id (wv_of e).Wv.current_view)
      | None -> ())
    s.endpoints

(* Invariant 6.11: end-point and client agree on the blocking status. *)
let inv_6_11 s =
  Proc.Map.iter
    (fun p e ->
      match Proc.Map.find_opt p s.client_block with
      | None -> ()
      | Some b ->
          checkf "6.11" ((Endpoint.gcs e).Gcs.block_status = b)
            "%a: end-point and client disagree on block status" Proc.pp p)
    s.endpoints

(* Invariant 6.12: before the application is blocked, no sync message
   for the pending start_change has been sent. *)
let inv_6_12 s =
  Proc.Map.iter
    (fun p e ->
      let g = Endpoint.gcs e in
      match (vs_of e).Vs.start_change with
      | Some (cid, _) when g.Gcs.block_status <> Gcs.Blocked ->
          checkf "6.12"
            (Vs.sync_msg (vs_of e) p cid = None)
            "%a sent its sync_msg for %a while not blocked" Proc.pp p
            View.Sc_id.pp cid
      | _ -> ())
    s.endpoints

(* Invariant 6.13: the own cut commits to every own message of the
   current view (Self Delivery's key lemma). *)
let inv_6_13 s =
  Proc.Map.iter
    (fun p e ->
      match Vs.own_sync (vs_of e) with
      | Some own ->
          let w = wv_of e in
          checkf "6.13"
            (Msg.Cut.get own.Vs.cut p = Wv.last_index w p w.Wv.current_view)
            "%a's own cut %d misses own messages (have %d)" Proc.pp p
            (Msg.Cut.get own.Vs.cut p)
            (Wv.last_index w p w.Wv.current_view)
      | None -> ())
    s.endpoints

(* Invariant 7.1: deliveries never exceed the committed cuts once the
   own sync message is out. *)
let inv_7_1 s =
  Proc.Map.iter
    (fun p e ->
      let v = vs_of e in
      let w = wv_of e in
      match (v.Vs.start_change, Vs.own_sync v) with
      | Some (cid, _), Some own ->
          let mb = w.Wv.mbrshp_view in
          let bound q =
            let use_mb =
              View.mem p mb && View.Sc_id.equal (View.start_id mb p) cid
            in
            if not use_mb then Msg.Cut.get own.Vs.cut q
            else
              let cuts =
                Proc.Set.fold
                  (fun r acc ->
                    match Vs.sync_msg v r (View.start_id mb r) with
                    | Some sm when View.equal sm.Vs.view w.Wv.current_view ->
                        sm.Vs.cut :: acc
                    | _ -> acc)
                  (Proc.Set.inter (View.set mb) (View.set w.Wv.current_view))
                  []
              in
              Msg.Cut.max_over cuts q
          in
          Proc.Set.iter
            (fun q ->
              checkf "7.1"
                (Wv.last_dlvrd w q <= bound q)
                "%a delivered %d messages from %a, beyond the committed cut %d"
                Proc.pp p (Wv.last_dlvrd w q) Proc.pp q (bound q))
            (View.set w.Wv.current_view)
      | _ -> ())
    s.endpoints

(* Invariant 7.2: cuts refer to messages actually buffered. *)
let inv_7_2 s =
  Proc.Map.iter
    (fun p e ->
      match Vs.own_sync (vs_of e) with
      | Some own ->
          let w = wv_of e in
          Proc.Set.iter
            (fun q ->
              let k = Msg.Cut.get own.Vs.cut q in
              for i = 1 to k do
                checkf "7.2"
                  (Wv.msgs_get w q w.Wv.current_view i <> None)
                  "%a's cut commits to msgs[%a][%a][%d] which it does not hold"
                  Proc.pp p Proc.pp q View.Id.pp (View.id w.Wv.current_view) i
              done)
            (View.set w.Wv.current_view)
      | None -> ())
    s.endpoints

(* Self-stabilization (DESIGN.md §13): every live automaton passes its
   own local legitimacy guards. Reachable states always do — the guard
   battery is a strict subset of the global invariants — so a failure
   here means corrupted state survived the harness's detect-and-rejoin
   scan: the "silent divergence" the self-checks exist to prevent. *)
let inv_self s =
  Proc.Map.iter
    (fun p e ->
      match Endpoint.self_check e with
      | Some reason -> fail "self" "%a: undetected corrupt state: %s" Proc.pp p reason
      | None -> ())
    s.endpoints

let all =
  [
    ("6.1", inv_6_1);
    ("6.2", inv_6_2);
    ("6.3", inv_6_3);
    ("6.6", inv_6_6);
    ("6.7", inv_6_7);
    ("6.8", inv_6_8);
    ("6.9", inv_6_9);
    ("6.11", inv_6_11);
    ("6.12", inv_6_12);
    ("6.13", inv_6_13);
    ("7.1", inv_7_1);
    ("7.2", inv_7_2);
    (* last: overlapping corruptions classify under the historical
       names above; "self" only fires for corruption no global
       invariant describes (e.g. counter wraparound) *)
    ("self", inv_self);
  ]

let check_all snapshot = List.iter (fun (_, f) -> f snapshot) all
