(* The symmetric-total-order application component: the same
   blocking-client shell as {!Tord_client}, over {!Tord_symmetric}.

   Timestamps are assigned at the moment a message is actually sent
   (the output and its effect recompute the same deterministic stamp
   from the same state), so this process's broadcast timestamps are
   strictly increasing on the wire. Send priority is Flush (owed after
   every view change), then queued data, then the derived
   acknowledgment — each class supersedes the ones after it.

   Every append to the local total order is reported as a
   {!Action.Sym_deliver} output: the queue head is exposed, the effect
   pops it. The reports carry no protocol state — they exist so the
   Skeen trace monitor (and the socket harness) can observe
   implementation deliveries and check them against the specification's
   deliverability condition. *)

open Vsgc_types

type block_status = Unblocked | Requested | Blocked

type t = {
  core : Tord_symmetric.t;
  me : Proc.t;
  block_status : block_status;
  to_send : string list;  (* raw payloads, oldest first *)
  flush_due : string option;  (* flushed-chunk digest owed as a Flush *)
  reports : (Proc.t * int * string) list;  (* Sym_deliver queue, oldest first *)
  views : (View.t * Proc.Set.t) list;  (* newest first *)
  crashed : bool;
}

let initial me =
  {
    core = Tord_symmetric.create me;
    me;
    block_status = Unblocked;
    to_send = [];
    flush_due = None;
    reports = [];
    views = [];
    crashed = false;
  }

let push (r : t ref) payload = r := { !r with to_send = !r.to_send @ [ payload ] }

let total_order t =
  List.map
    (fun (e : Tord_symmetric.entry) -> (e.Tord_symmetric.sender, e.Tord_symmetric.payload))
    (Tord_symmetric.total_order t.core)

let views t = List.rev t.views
let last_view t = match t.views with [] -> None | v :: _ -> Some v
let crashed t = t.crashed
let log_length t = Tord_symmetric.total_count t.core

let ordered_from t k =
  List.map
    (fun (e : Tord_symmetric.entry) -> e.Tord_symmetric.payload)
    (Tord_symmetric.entries_from t.core k)

let report_of (e : Tord_symmetric.entry) =
  (e.Tord_symmetric.sender, e.Tord_symmetric.ts, e.Tord_symmetric.payload)

(* The next wire payload, recomputed identically by outputs and apply:
   an owed flush supersedes data, data supersedes the ack. *)
let next_send t =
  match t.flush_due with
  | Some digest -> Some (snd (Tord_symmetric.flush_stamp t.core ~digest))
  | None -> (
      match t.to_send with
      | payload :: _ -> Some (snd (Tord_symmetric.stamp t.core payload))
      | [] ->
          if Tord_symmetric.ack_due t.core then Some (Tord_symmetric.ack_payload t.core)
          else None)

let outputs t =
  if t.crashed then []
  else
    let acc = if t.block_status = Requested then [ Action.Block_ok t.me ] else [] in
    let acc =
      match t.reports with
      | (sender, ts, payload) :: _ -> Action.Sym_deliver (t.me, sender, ts, payload) :: acc
      | [] -> acc
    in
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
    match a with Action.Recover p when Proc.equal p t.me -> initial t.me | _ -> t
  else
    match a with
    | Action.App_send (_, _) -> (
        match t.flush_due with
        | Some digest ->
            let core, _ = Tord_symmetric.flush_stamp t.core ~digest in
            { t with core; flush_due = None }
        | None -> (
            match t.to_send with
            | payload :: rest ->
                let core, _ = Tord_symmetric.stamp t.core payload in
                { t with core; to_send = rest }
            | [] ->
                if Tord_symmetric.ack_due t.core then
                  { t with core = Tord_symmetric.ack_sent t.core }
                else t))
    | Action.Sym_deliver _ -> (
        match t.reports with [] -> t | _ :: rest -> { t with reports = rest })
    | Action.Block_ok _ -> { t with block_status = Blocked }
    | Action.Block _ -> { t with block_status = Requested }
    | Action.App_deliver (_, q, m) ->
        let core, newly =
          Tord_symmetric.on_deliver t.core ~sender:q ~payload:(Msg.App_msg.payload m)
        in
        { t with core; reports = t.reports @ List.map report_of newly }
    | Action.App_view (_, v, tset) ->
        let core, flushed = Tord_symmetric.on_view t.core ~view:v ~transitional:tset in
        { t with
          core;
          flush_due = Some (Tord_symmetric.flush_digest flushed);
          reports = t.reports @ List.map report_of flushed;
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
  | Action.Sym_deliver (p, _, _, _)
    when Proc.equal p me -> rw [ Proc_state me ]
  | _ -> empty

let emits me (a : Action.t) =
  match a with
  | Action.App_send (p, _) | Action.Block_ok p | Action.Sym_deliver (p, _, _, _) ->
      Proc.equal p me
  | _ -> false

let observe me (st : t) =
  [ (Vsgc_ioa.Footprint.Proc_state me, Vsgc_ioa.Component.digest st) ]

let def me : t Vsgc_ioa.Component.def =
  {
    name = Fmt.str "tord_sym_%a" Proc.pp me;
    init = initial me;
    accepts = accepts me;
    outputs;
    apply;
    footprint = footprint me;
    emits = emits me;
    observe = observe me;
  }

let component me =
  let d = def me in
  let r = ref d.Vsgc_ioa.Component.init in
  (Vsgc_ioa.Component.pack_with_ref d r, r)
