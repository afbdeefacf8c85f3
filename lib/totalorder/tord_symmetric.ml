(* Symmetric (logical-timestamp) totally ordered multicast atop the
   within-view reliable FIFO service.

   The paper points at Chockler-Huleihel-Dolev [13] — an ADAPTIVE
   totally ordered protocol implemented "atop a service that satisfies
   the WV_RFIFO specification" — which switches between two orderings:
   the sequencer-based one ({!Tord_core}) and the symmetric one built
   here. Every message carries a Lamport timestamp; the total order is
   (timestamp, sender), and a message becomes deliverable once every
   view member has been heard from at or beyond its timestamp (each
   sender's timestamps are strictly increasing, so nothing earlier can
   still arrive). Silent members acknowledge: upon seeing a timestamp
   above the last one it broadcast, a member multicasts an
   acknowledgment — at most one per message received, so ack cascades
   terminate.

   At a view change, Virtual Synchrony gives all transitional-set
   members the same delivered set of data and acks; the undeliverable
   remainder is flushed in (timestamp, sender) order, extending the
   total order consistently with no extra agreement — the same argument
   as for the sequencer variant, which is what makes [13]'s switching
   sound. The member then announces the boundary with a Flush message
   (a fresh timestamp plus a digest of the flushed chunk): it seeds the
   new view's heard maps the way the old re-announcement ack did, and
   gives the Skeen trace monitor (DESIGN.md §16) cross-member evidence
   that all transitional-set members flushed identically.

   Traffic is binary on the wire: {!Vsgc_wire.Sym_msg} carried inside
   the GCS's opaque application payloads. *)

open Vsgc_types
module Sym_msg = Vsgc_wire.Sym_msg

type entry = { ts : int; sender : Proc.t; payload : string }

let entry_compare a b =
  match Int.compare a.ts b.ts with 0 -> Proc.compare a.sender b.sender | c -> c

type t = {
  me : Proc.t;
  view : View.t;
  lamport : int;  (* largest timestamp seen or used *)
  last_broadcast : int;  (* largest timestamp this process multicast *)
  heard : int Proc.Map.t;  (* largest timestamp heard per member, this view *)
  pending : entry list;  (* sorted by (ts, sender) *)
  log : entry Tord_log.t;  (* the delivered total order *)
}

let create me =
  {
    me;
    view = View.initial me;
    lamport = 0;
    last_broadcast = 0;
    heard = Proc.Map.empty;
    pending = [];
    log = Tord_log.empty;
  }

let me t = t.me
let view t = t.view
let log t = t.log

(* The flushed-chunk fingerprint a Flush message announces: position,
   timestamp, sender and payload of every flushed entry, digested. *)
let flush_digest entries =
  let buf = Buffer.create 64 in
  List.iteri
    (fun i (e : entry) ->
      Buffer.add_string buf
        (Fmt.str "%d:%d:%a:%d;" i e.ts Proc.pp e.sender (String.length e.payload));
      Buffer.add_string buf e.payload)
    entries;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* -- Deliverability -------------------------------------------------------- *)

(* Timestamps per sender are strictly increasing, so an entry (t, s) is
   safe once every member has been heard from at or beyond t: anything
   still in flight from them is later in the total order. *)
let deliverable t (e : entry) =
  Proc.Set.for_all
    (fun q -> Proc.Map.find_default ~default:0 q t.heard >= e.ts)
    (View.set t.view)

let rec drain t delivered =
  match t.pending with
  | e :: rest when deliverable t e ->
      drain
        { t with pending = rest; log = Tord_log.add e t.log }
        (e :: delivered)
  | _ -> (t, List.rev delivered)

let insert_sorted e l =
  let rec go = function
    | x :: rest when entry_compare x e < 0 -> x :: go rest
    | rest -> e :: rest
  in
  go l

(* -- Events ------------------------------------------------------------------ *)

(* The broadcast discipline: every message this process multicasts —
   data, flush or ack — carries a timestamp at most (data, flush:
   strictly) greater than its previous one, assigned AT SEND TIME
   (assigning earlier would let a later ack overtake queued data and
   break the per-sender monotonicity the deliverability rule relies
   on). [heard.(me)] advances only at self-delivery, keeping the local
   total order aligned with the GCS's own delivery order. *)

(* Timestamp and encode a payload for sending now. *)
let stamp t payload =
  let ts = t.lamport + 1 in
  ( { t with lamport = ts; last_broadcast = ts },
    Sym_msg.to_payload (Sym_msg.Data { ts; body = payload }) )

(* An acknowledgment is due whenever this process has seen a timestamp
   above everything it has broadcast — i.e. peers may be waiting to
   hear from it. Sending data first supersedes the ack. *)
let ack_due t = t.lamport > t.last_broadcast
let ack_payload t = Sym_msg.to_payload (Sym_msg.Ack { ts = t.lamport })
let ack_sent t = { t with last_broadcast = t.lamport }

(* The view-change boundary announcement: a fresh timestamp (so the
   per-sender monotonicity is strict even across the boundary) plus the
   flushed-chunk digest. Counts as a broadcast — it supersedes the ack
   the old encoding's re-announcement provided. *)
let flush_stamp t ~digest =
  let ts = t.lamport + 1 in
  ( { t with lamport = ts; last_broadcast = ts },
    Sym_msg.to_payload (Sym_msg.Flush { ts; view = View.id t.view; digest }) )

(* A GCS delivery from [sender]. Returns the new state and the newly
   totally ordered entries. *)
let on_deliver t ~sender ~payload =
  let note ts t =
    { t with
      lamport = max t.lamport ts;
      heard =
        Proc.Map.add sender
          (max ts (Proc.Map.find_default ~default:0 sender t.heard))
          t.heard }
  in
  match Sym_msg.of_payload payload with
  | Ok (Sym_msg.Data { ts; body }) ->
      let t = note ts t in
      let t = { t with pending = insert_sorted { ts; sender; payload = body } t.pending } in
      drain t []
  | Ok (Sym_msg.Ack { ts }) | Ok (Sym_msg.Flush { ts; _ }) ->
      let t = note ts t in
      drain t []
  | Error _ -> (t, [])

(* A GCS view: flush the remainder deterministically (identical at all
   transitional-set members, by Virtual Synchrony). The caller owes a
   {!flush_stamp} broadcast in the new view — it re-seeds everyone's
   heard map for the fresh membership. *)
let on_view t ~view ~transitional:_ =
  let flushed = List.sort entry_compare t.pending in
  ( { t with
      view;
      heard = Proc.Map.empty;
      pending = [];
      log = Tord_log.add_all flushed t.log },
    flushed )
