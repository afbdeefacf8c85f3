(* The KV service engine: the glue between a hosted replica and the
   request/response wire protocol.

   Requests arrive off the transport; writes are stamped with their
   command id and pushed into the replica's totally ordered stream,
   reads answer immediately from the materialized store (the committed
   prefix — read-committed, not read-your-writes). [advance] moves the
   store's cursor over the entries that became totally ordered since
   the last call and queues one acknowledgement per stable write.

   Batched vs unbatched stable delivery (DESIGN.md §15): the ordered
   suffix past the cursor is a contiguous run of deliverable commands.
   Unbatched, each command is its own apply+ack round (one round of
   bookkeeping per message — the per-message cost Derecho's batching
   removes); batched, the whole run is one round. Both walk the same
   log, so the resulting store is byte-identical — only [apply_rounds]
   and the wire-level announcement traffic differ. *)

module Replica = Vsgc_replication.Replica
module Kv_msg = Vsgc_wire.Kv_msg

(* The engine is arm-agnostic: any totally ordered log with a write
   entry point and a stable-prefix cursor can host the service — a
   replica instance of either bake-off arm is one. *)
type t = {
  write : client:int -> seq:int -> key:string -> value:string -> unit;
  log_length : unit -> int;
  ordered_from : int -> string list;
  store : Kv_store.t;
  mutable cursor : int;  (* ordered entries consumed into the store *)
  batch : bool;
  mutable apply_rounds : int;
  mutable requests : int;
  acks : Kv_msg.response Queue.t;
  mutable rebirths : int;  (* times the hosting replica restarted *)
}

let create (type a) ~batch
    (module O : Vsgc_totalorder.Total_order.S with type t = a) (r : a ref) =
  {
    write =
      (fun ~client ~seq ~key ~value ->
        O.push r (Replica.encode_write ~client ~seq ~key ~value));
    log_length = (fun () -> O.log_length !r);
    ordered_from = (fun k -> O.ordered_from !r k);
    store = Kv_store.create ();
    cursor = 0;
    batch;
    apply_rounds = 0;
    requests = 0;
    acks = Queue.create ();
    rebirths = 0;
  }

let handle_request t (req : Kv_msg.request) =
  t.requests <- t.requests + 1;
  match req with
  | Kv_msg.Put { client; seq; key; value } ->
      t.write ~client ~seq ~key ~value
  | Kv_msg.Get { client; seq; key } ->
      Queue.add
        (Kv_msg.Get_reply { client; seq; value = Kv_store.get t.store key })
        t.acks

(* Fold the newly ordered suffix into the store. A reborn replica's
   log restarts below the cursor: reset and refold from the new log
   (whose snapshot prefix carries the group state). *)
let advance t =
  let len = t.log_length () in
  if len < t.cursor then begin
    Kv_store.reset t.store;
    Queue.clear t.acks;
    t.cursor <- 0;
    t.rebirths <- t.rebirths + 1
  end;
  let fresh = t.ordered_from t.cursor in
  if fresh <> [] then begin
    let ack payload =
      match Kv_store.apply t.store payload with
      | Some (client, seq) -> Queue.add (Kv_msg.Put_ack { client; seq }) t.acks
      | None -> ()
    in
    if t.batch then begin
      List.iter ack fresh;
      t.apply_rounds <- t.apply_rounds + 1
    end
    else
      List.iter
        (fun payload ->
          ack payload;
          t.apply_rounds <- t.apply_rounds + 1)
        fresh;
    t.cursor <- t.log_length ()
  end

let take_acks t =
  let out = List.of_seq (Queue.to_seq t.acks) in
  Queue.clear t.acks;
  out

let store t = t.store
let digest t = Kv_store.digest t.store
let cursor t = t.cursor
let apply_rounds t = t.apply_rounds
let requests t = t.requests
let rebirths t = t.rebirths
let batched t = t.batch
