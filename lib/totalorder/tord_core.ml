(* Totally ordered multicast atop the within-view reliable FIFO
   service — the construction the paper points to in §4.1.1 ("the
   totally ordered multicast algorithm of [13] is implemented atop a
   service that satisfies the WV_RFIFO specification").

   A fixed sequencer per view (the minimum member) assigns the total
   order: every process multicasts data messages through the GCS; the
   sequencer, as it delivers each data message, multicasts an order
   announcement naming (original sender, per-sender index). Because the
   announcements travel in the sequencer's own FIFO stream, every
   member receives them in the same order, and delivers data messages
   in exactly that order.

   At a view change, Virtual Synchrony guarantees that processes moving
   together have delivered the same set of data and announcement
   messages; the announced prefix is therefore identical, and the
   unannounced remainder is flushed in a deterministic (sender, index)
   order — so the total order extends consistently across views without
   any extra agreement round. This module is the pure core; see
   {!Tord_client} for the component and [vsgc_replication] for the
   replicated state machine built on top. *)

open Vsgc_types

type entry = { sender : Proc.t; index : int; payload : string }

type t = {
  me : Proc.t;
  view : View.t;
  sequencer : Proc.t;
  recv_count : int Proc.Map.t;  (* data messages delivered per sender, this view *)
  pending : entry list;  (* delivered data not yet totally ordered, oldest first *)
  order_queue : (Proc.t * int) list;  (* announcements not yet matched, oldest first *)
  log : entry Tord_log.t;  (* the totally ordered prefix *)
}

let create me =
  {
    me;
    view = View.initial me;
    sequencer = me;
    recv_count = Proc.Map.empty;
    pending = [];
    order_queue = [];
    log = Tord_log.empty;
  }

let is_sequencer t = Proc.equal t.me t.sequencer
let view t = t.view
let log t = t.log

(* -- Wire encoding (within opaque GCS payloads) -------------------------- *)

let encode_data payload = "D" ^ payload

let encode_order ~sender ~index = Fmt.str "O%d:%d" (Proc.to_int sender) index

(* A batch of announcements in one payload — the sequencer's whole
   backlog coalesced into a single multicast (DESIGN.md §15). The pairs
   keep their announcement order, so delivering a batch is exactly
   delivering its members back to back. *)
let encode_order_batch pairs =
  "B"
  ^ String.concat ";"
      (List.map (fun (s, i) -> Fmt.str "%d:%d" (Proc.to_int s) i) pairs)

type decoded =
  | Data of string
  | Order of Proc.t * int
  | Order_batch of (Proc.t * int) list
  | Other of string

let parse_pair part =
  match String.split_on_char ':' part with
  | [ a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some sender, Some index -> Some (Proc.of_int sender, index)
      | _ -> None)
  | _ -> None

let decode s =
  if String.length s = 0 then Other s
  else
    match s.[0] with
    | 'D' -> Data (String.sub s 1 (String.length s - 1))
    | 'O' -> (
        match parse_pair (String.sub s 1 (String.length s - 1)) with
        | Some (sender, index) -> Order (sender, index)
        | None -> Other s)
    | 'B' -> (
        let body = String.sub s 1 (String.length s - 1) in
        if body = "" then Other s
        else
          let parts = String.split_on_char ';' body in
          let pairs = List.filter_map parse_pair parts in
          if List.length pairs = List.length parts then Order_batch pairs
          else Other s)
    | _ -> Other s

(* -- Matching announcements against pending data ------------------------- *)

let take_pending t sender index =
  let rec go acc = function
    | [] -> None
    | e :: rest when Proc.equal e.sender sender && e.index = index ->
        Some (e, List.rev_append acc rest)
    | e :: rest -> go (e :: acc) rest
  in
  go [] t.pending

(* Deliver every queued announcement whose data message has arrived. *)
let rec drain t delivered =
  match t.order_queue with
  | (sender, index) :: rest -> (
      match take_pending t sender index with
      | Some (e, pending) ->
          drain
            { t with pending; order_queue = rest; log = Tord_log.add e t.log }
            (e :: delivered)
      | None -> (t, List.rev delivered))
  | [] -> (t, List.rev delivered)

(* -- Events --------------------------------------------------------------- *)

(* A data or order message delivered by the GCS from [sender]. Returns
   the new state, the data entries that just became totally ordered,
   and the announcement pairs this process must multicast (non-empty
   only at the sequencer; the client layer picks the single or batched
   encoding). *)
let on_deliver t ~sender ~payload =
  match decode payload with
  | Data body ->
      let index = Proc.Map.find_default ~default:0 sender t.recv_count + 1 in
      let e = { sender; index; payload = body } in
      let t =
        { t with
          recv_count = Proc.Map.add sender index t.recv_count;
          pending = t.pending @ [ e ] }
      in
      let announcements = if is_sequencer t then [ (sender, index) ] else [] in
      let t, newly = drain t [] in
      (t, newly, announcements)
  | Order (sender, index) ->
      let t = { t with order_queue = t.order_queue @ [ (sender, index) ] } in
      let t, newly = drain t [] in
      (t, newly, [])
  | Order_batch pairs ->
      let t = { t with order_queue = t.order_queue @ pairs } in
      let t, newly = drain t [] in
      (t, newly, [])
  | Other _ -> (t, [], [])

(* A view delivered by the GCS. Virtual Synchrony makes the remaining
   pending set identical at all members of the transitional set, so the
   deterministic flush keeps their total orders equal. Returns the
   flushed entries (delivered at the boundary, before the new view's
   traffic). *)
let on_view t ~view ~transitional:_ =
  let flushed =
    List.sort
      (fun a b ->
        match Proc.compare a.sender b.sender with
        | 0 -> Int.compare a.index b.index
        | c -> c)
      t.pending
  in
  let t =
    {
      t with
      view;
      sequencer =
        (match Proc.Set.min_elt_opt (View.set view) with Some s -> s | None -> t.me);
      recv_count = Proc.Map.empty;
      pending = [];
      order_queue = [];
      log = Tord_log.add_all flushed t.log;
    }
  in
  (t, flushed)
