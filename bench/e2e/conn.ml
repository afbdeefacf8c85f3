(* The harness's side of one TCP link to a replica, speaking the
   runtime's own wire format: a [Hello] naming this KV client first,
   then [Kv_req] frames out and [Kv_resp] frames back. The link is up
   once the replica's [Hello] arrives, exactly as [Tcp] decides. *)

open Vsgc_wire
module Bin = Vsgc_types.Bin

type t = {
  fd : Unix.file_descr;
  feeder : Frame.feeder;
  out : Bin.Wbuf.t;
  mutable off : int;  (* bytes of [out] already written *)
  mutable up : bool;
  mutable broken : bool;
  mutable encode_ns : int;
  mutable decode_ns : int;
}

let connect ~port ~client =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (* The load generator must not add Nagle waits of its own: every
     request leaves in the write that the schedule asked for. *)
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.set_nonblock fd;
  let c =
    {
      fd;
      feeder = Frame.feeder ();
      out = Bin.Wbuf.create 65536;
      off = 0;
      up = false;
      broken = false;
      encode_ns = 0;
      decode_ns = 0;
    }
  in
  Frame.encode_into c.out (Packet.Hello (Node_id.kv_client client));
  c

let pending c = Bin.Wbuf.length c.out - c.off

let send c req =
  let t0 = Util.now () in
  Frame.encode_into c.out (Packet.Kv_req req);
  c.encode_ns <- c.encode_ns + (Util.now () - t0)

(* One non-blocking write of everything queued; true when the buffer
   drained. *)
let flush c =
  match pending c with
  | 0 -> true
  | len -> (
      match Unix.write c.fd (Bin.Wbuf.unsafe_contents c.out) c.off len with
      | n when n = len ->
          c.off <- 0;
          Bin.Wbuf.clear c.out;
          true
      | n ->
          c.off <- c.off + n;
          false
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          false
      | exception Unix.Unix_error _ ->
          c.broken <- true;
          false)

(* Read what the socket holds and hand each decoded response to [f]. *)
let on_readable c buf f =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> c.broken <- true
  | n ->
      Frame.feed c.feeder buf ~off:0 ~len:n;
      let rec go () =
        let t0 = Util.now () in
        let next = Frame.next c.feeder in
        c.decode_ns <- c.decode_ns + (Util.now () - t0);
        match next with
        | None -> ()
        | Some (Ok (Packet.Hello _)) ->
            c.up <- true;
            go ()
        | Some (Ok (Packet.Kv_resp resp)) ->
            f resp;
            go ()
        | Some (Ok _) -> go ()
        | Some (Error _) -> c.broken <- true
      in
      go ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> c.broken <- true

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
