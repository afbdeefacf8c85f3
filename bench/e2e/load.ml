(* The load generator and its correctness checks.

   Open mode is an open loop: arrivals are a Poisson process drawn from
   the seed, so request i is due at a fixed instant whatever happened
   to earlier requests, and its latency runs from that DUE instant to
   its response. A stall therefore shows as latency on every request
   that came due during it, and how late the generator itself wrote a
   request is recorded separately (gen.late).

   Fill mode pre-populates the store under its own client id: a closed
   window of Puts, one per key, never measured.

   Checks, per response:
   - a Put_ack or Get_reply must answer a request of this client that
     is still unanswered;
   - a Get must return a value this benchmark wrote to that key, no
     older than the last Put to the key acked before the Get was sent
     (one home replica answers both, so an acked write is visible). *)

open Vsgc_wire
module Ivec = Util.Ivec
module Smap = Vsgc_kv.Kv_store.Smap

let fill_client = 1

type mode =
  | Open of { rate : float; get_share : float; keys : int }
      (** [rate] arrivals per second; each a Get with [get_share], on a
          key drawn uniformly from [0, keys) *)
  | Fill of { count : int; window : int }

type t = {
  conn : Conn.t;
  client : int;
  mode : mode;
  value_bytes : int;
  prepop : int;  (* keys k0 .. k(prepop-1) hold fill values *)
  rng : Random.State.t;
  mutable next_due : float;  (* ns *)
  mutable active : bool;
  mutable joining : bool;  (* Puts go to fresh keys; see [send_due] *)
  mutable fresh : int;  (* fresh keys used so far *)
  (* one slot per request, indexed by its seq *)
  kind : Ivec.t;  (* 0 = Put, 1 = Get *)
  key : Ivec.t;
  due : Ivec.t;
  written : Ivec.t;
  answered : Ivec.t;  (* 0 = not yet *)
  floor : Ivec.t;  (* Get: last acked Put seq on its key when sent, -1 none *)
  gap : Ivec.t;  (* Put: the ack-to-ack gap its ack closed, ns *)
  mutable unstamped : int;  (* first seq whose write has not completed *)
  last_acked : (int, int) Hashtbl.t;  (* key -> highest acked Put seq *)
  mutable outstanding : int;
  mutable overwrites_out : int;  (* outstanding Puts to keys that are not fresh *)
  mutable bad : int;  (* responses that failed a check *)
  mutable last_put_ack : int;
}

let put = 0
let get = 1
let key_name k = "k" ^ string_of_int k

let value_of ~value_bytes client seq =
  let base = Printf.sprintf "v%d.%d." client seq in
  let pad = value_bytes - String.length base in
  if pad <= 0 then base else base ^ String.make pad '.'

let create ~conn ~client ~mode ~value_bytes ~prepop ~seed ~start =
  {
    conn;
    client;
    mode;
    value_bytes;
    prepop;
    rng = Random.State.make [| seed; client |];
    next_due = float_of_int start;
    active = true;
    joining = false;
    fresh = 0;
    kind = Ivec.create ();
    key = Ivec.create ();
    due = Ivec.create ();
    written = Ivec.create ();
    answered = Ivec.create ();
    floor = Ivec.create ();
    gap = Ivec.create ();
    unstamped = 0;
    last_acked = Hashtbl.create 4096;
    outstanding = 0;
    overwrites_out = 0;
    bad = 0;
    last_put_ack = start;
  }

let requests t = Ivec.length t.kind
let last_acked t key = Option.value (Hashtbl.find_opt t.last_acked key) ~default:(-1)

let emit t ~kind ~key ~due =
  let seq = requests t in
  Ivec.push t.kind kind;
  Ivec.push t.key key;
  Ivec.push t.due due;
  Ivec.push t.written 0;
  Ivec.push t.answered 0;
  Ivec.push t.floor (if kind = get then last_acked t key else -1);
  Ivec.push t.gap 0;
  t.outstanding <- t.outstanding + 1;
  let key_s = key_name key in
  Conn.send t.conn
    (if kind = get then Kv_msg.Get { client = t.client; seq; key = key_s }
     else
       Kv_msg.Put
         {
           client = t.client;
           seq;
           key = key_s;
           value = value_of ~value_bytes:t.value_bytes t.client seq;
         })

(* Queue every request that is due by [now], then write them.

   While [joining], each Put goes to a key never written before (ids
   from [keys] up). A replica rejoining takes the group minimum's
   snapshot, taken when the view is delivered but merged, snapshot
   values winning, at its place in the total order: an overwrite
   ordered just ahead of the snapshot and missing from it is reverted
   on every replica, acked or not (Replica.apply / fold_state). A fresh
   key is in no snapshot, so its write survives the merge. *)
let send_due t now =
  (match t.mode with
  | Open { rate; get_share; keys } ->
      if t.active then
        while int_of_float t.next_due <= now do
          let is_get = Random.State.float t.rng 1.0 < get_share in
          let key = Random.State.int t.rng keys in
          let due = int_of_float t.next_due in
          if is_get then emit t ~kind:get ~key ~due
          else if t.joining then begin
            emit t ~kind:put ~key:(keys + t.fresh) ~due;
            t.fresh <- t.fresh + 1
          end
          else begin
            emit t ~kind:put ~key ~due;
            t.overwrites_out <- t.overwrites_out + 1
          end;
          let u = Random.State.float t.rng 1.0 in
          t.next_due <- t.next_due +. (-.log (1.0 -. u) /. rate *. 1e9)
        done
  | Fill { count; window } ->
      while t.active && t.outstanding < window && requests t < count do
        emit t ~kind:put ~key:(requests t) ~due:now
      done);
  if Conn.flush t.conn && t.unstamped < requests t then begin
    let w = Util.now () in
    for i = t.unstamped to requests t - 1 do
      Ivec.set t.written i w
    done;
    t.unstamped <- requests t
  end

let next_wake t =
  match t.mode with
  | Open _ when t.active -> int_of_float t.next_due
  | Open _ | Fill _ -> max_int

let parse_value v =
  match String.split_on_char '.' v with
  | c :: s :: _ when String.length c > 1 && c.[0] = 'v' -> (
      match (int_of_string_opt (String.sub c 1 (String.length c - 1)), int_of_string_opt s) with
      | Some c, Some s -> Some (c, s)
      | _ -> None)
  | _ -> None

let get_ok t seq value =
  let key = Ivec.get t.key seq and floor = Ivec.get t.floor seq in
  match value with
  | None -> floor < 0 && key >= t.prepop
  | Some v -> (
      match parse_value v with
      | Some (c, s) when c = t.client ->
          s < requests t && Ivec.get t.kind s = put && Ivec.get t.key s = key && s >= floor
      | Some (c, s) when c = fill_client -> floor < 0 && s = key && key < t.prepop
      | Some _ | None -> false)

let fresh_answer t seq kind =
  seq >= 0 && seq < requests t && Ivec.get t.kind seq = kind && Ivec.get t.answered seq = 0

let on_response t now (resp : Kv_msg.response) =
  match resp with
  | Kv_msg.Put_ack { client; seq } when client = t.client && fresh_answer t seq put ->
      Ivec.set t.answered seq now;
      t.outstanding <- t.outstanding - 1;
      let key = Ivec.get t.key seq in
      (match t.mode with
      | Open { keys; _ } when key < keys -> t.overwrites_out <- t.overwrites_out - 1
      | Open _ | Fill _ -> ());
      if seq > last_acked t key then Hashtbl.replace t.last_acked key seq;
      Ivec.set t.gap seq (now - max t.last_put_ack (Ivec.get t.written seq));
      t.last_put_ack <- now
  | Kv_msg.Get_reply { client; seq; value } when client = t.client && fresh_answer t seq get ->
      Ivec.set t.answered seq now;
      t.outstanding <- t.outstanding - 1;
      if not (get_ok t seq value) then t.bad <- t.bad + 1
  | Kv_msg.Put_ack _ | Kv_msg.Get_reply _ -> t.bad <- t.bad + 1

(* -- Results ------------------------------------------------------------- *)

(* Requests unanswered [limit] ns after they were due, plus responses
   that failed a check. *)
let failures t ~limit =
  let n = ref t.bad in
  for i = 0 to requests t - 1 do
    let a = Ivec.get t.answered i in
    if a = 0 || a - Ivec.get t.due i > limit then incr n
  done;
  !n

(* The store the replicas must hold: the fill, then every acked Put in
   seq order (one client over one FIFO link, so the highest acked seq
   of a key is its final value). *)
let expected_map t =
  let m = ref Smap.empty in
  for k = 0 to t.prepop - 1 do
    m := Smap.add (key_name k) (value_of ~value_bytes:t.value_bytes fill_client k) !m
  done;
  for i = 0 to requests t - 1 do
    if Ivec.get t.kind i = put && Ivec.get t.answered i > 0 then
      m := Smap.add (key_name (Ivec.get t.key i)) (value_of ~value_bytes:t.value_bytes t.client i) !m
  done;
  !m

let fold_window t ~from ~until f acc =
  let acc = ref acc in
  for i = 0 to requests t - 1 do
    let d = Ivec.get t.due i in
    if d >= from && d < until then acc := f !acc i
  done;
  !acc

let ops t ~from ~until = fold_window t ~from ~until (fun n _ -> n + 1) 0

(* Latencies (µs, due to answered) of the answered requests of one kind
   that came due in the window. *)
let latencies_us t ~kind ~from ~until =
  fold_window t ~from ~until
    (fun acc i ->
      let a = Ivec.get t.answered i in
      if Ivec.get t.kind i = kind && a > 0 then
        float_of_int (a - Ivec.get t.due i) /. 1e3 :: acc
      else acc)
    []

let late_us t ~from ~until =
  fold_window t ~from ~until
    (fun acc i ->
      let w = Ivec.get t.written i in
      if w > 0 then float_of_int (w - Ivec.get t.due i) /. 1e3 :: acc else acc)
    []

(* The longest time Put acks stopped while a Put was waiting, over the
   acks that arrived in [from, until]. *)
let max_stall_ns t ~from ~until =
  let m = ref 0 in
  for i = 0 to requests t - 1 do
    let a = Ivec.get t.answered i in
    if Ivec.get t.kind i = put && a >= from && a <= until then m := max !m (Ivec.get t.gap i)
  done;
  !m
