(* The symmetric-total-order application component: the blocking-client
   shell of Figure 12 ({!Tord_shell}) over the symmetric core
   {!Tord_symmetric}. This module supplies only its send discipline and
   its delivery reports.

   Timestamps are assigned at the moment a message is actually sent
   (the output and its effect recompute the same deterministic stamp
   from the same state), so this process's broadcast timestamps are
   strictly increasing on the wire. Send priority is Flush (owed after
   every view change), then queued data, then the derived
   acknowledgment — each class supersedes the ones after it.

   Every append to the local total order is reported as a
   {!Action.Sym_deliver} output, the core's own output in the shell:
   the head of the report queue is exposed, the effect pops it. The
   reports carry no protocol state — they exist so the Skeen trace
   monitor (and the socket harness) can observe implementation
   deliveries and check them against the specification's
   deliverability condition. *)

open Vsgc_types

module Core = struct
  type entry = Tord_symmetric.entry

  type t = {
    order : Tord_symmetric.t;
    to_send : string list;  (* raw payloads, oldest first *)
    flush_due : string option;  (* flushed-chunk digest owed as a Flush *)
    reports : entry list;  (* ordered entries not yet reported, oldest first *)
  }

  let name = "tord_sym"
  let log t = Tord_symmetric.log t.order
  let sender (e : entry) = e.sender
  let payload (e : entry) = e.payload
  let push t payload = { t with to_send = t.to_send @ [ payload ] }

  (* The next wire payload, recomputed identically by outputs and apply:
     an owed flush supersedes data, data supersedes the ack. *)
  let next_send t =
    match t.flush_due with
    | Some digest -> Some (snd (Tord_symmetric.flush_stamp t.order ~digest))
    | None -> (
        match t.to_send with
        | payload :: _ -> Some (snd (Tord_symmetric.stamp t.order payload))
        | [] ->
            if Tord_symmetric.ack_due t.order then
              Some (Tord_symmetric.ack_payload t.order)
            else None)

  let on_sent t _ =
    match t.flush_due with
    | Some digest ->
        let order, _ = Tord_symmetric.flush_stamp t.order ~digest in
        { t with order; flush_due = None }
    | None -> (
        match t.to_send with
        | payload :: rest ->
            let order, _ = Tord_symmetric.stamp t.order payload in
            { t with order; to_send = rest }
        | [] ->
            if Tord_symmetric.ack_due t.order then
              { t with order = Tord_symmetric.ack_sent t.order }
            else t)

  let on_deliver t sender payload =
    let order, newly = Tord_symmetric.on_deliver t.order ~sender ~payload in
    { t with order; reports = t.reports @ newly }

  let on_view t view transitional =
    let order, flushed = Tord_symmetric.on_view t.order ~view ~transitional in
    { t with
      order;
      flush_due = Some (Tord_symmetric.flush_digest flushed);
      reports = t.reports @ flushed }

  let report me t acc =
    match t.reports with
    | e :: _ -> Action.Sym_deliver (me, e.sender, e.ts, e.payload) :: acc
    | [] -> acc

  let reported t = match t.reports with [] -> t | _ :: rest -> { t with reports = rest }
  let reports me = function Action.Sym_deliver (p, _, _, _) -> Proc.equal p me | _ -> false
end

include Tord_shell.Make (Core)

let initial me =
  make me { order = Tord_symmetric.create me; to_send = []; flush_due = None; reports = [] }

let component me = component_of (initial me)
