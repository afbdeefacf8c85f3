(* Real-socket transport: non-blocking TCP under a select loop.

   Topology is configured, not discovered: a node [listen]s on one
   address and dials the [peers] it is told to. Each deployment lists
   every edge exactly once (by convention the higher node dials the
   lower), so no connection dedup is needed.

   Identification: both sides ship a [Hello] as their first frame —
   the dialer when its connect completes, the acceptor when it
   accepts. A link is [Up] when the peer's [Hello] arrives, so by
   then both directions are known good.

   Failure policy (the acceptance criterion: a malformed frame or a
   peer crash costs the LINK, never the process):
   - read error / EOF / malformed frame -> drop the connection, emit
     [Down] (and [Malformed] first, when that is the cause);
   - every configured peer we dial is retried forever with exponential
     backoff in [backoff_min, backoff_max];
   - bytes addressed to a peer whose link is down are dropped, as the
     transport contract says — CO_RFIFO sits above and owns
     retransmission semantics via view changes.

   One exception to the drop rule: packets addressed to a peer no link
   has identified YET are parked (bounded, drop-newest) and flushed
   the moment that peer's [Hello] registers. A view change triggers
   its state-transfer burst the instant the membership round closes,
   which can race the direct link's dial at process startup — and a
   FIFO stream never recovers from a lost prefix. Parking bridges
   exactly that window; a [Down] clears the peer's parked queue, so a
   reborn incarnation never inherits a dead view's traffic.

   The loop never blocks except inside [recv]'s select, bounded by
   [poll_timeout]. *)

open Vsgc_wire
module Bin = Vsgc_types.Bin

type addr = string * int

type config = {
  me : Node_id.t;
  listen : addr option;
  peers : (Node_id.t * addr) list;  (* peers this node dials *)
  poll_timeout : float;  (* seconds recv may block in select *)
  backoff_min : float;
  backoff_max : float;
}

let config ?(listen = None) ?(peers = []) ?(poll_timeout = 0.05)
    ?(backoff_min = 0.05) ?(backoff_max = 2.0) me =
  { me; listen; peers; poll_timeout; backoff_min; backoff_max }

type conn = {
  fd : Unix.file_descr;
  feeder : Frame.feeder;
  out : Bin.Wbuf.t;
      (* the coalescing write path: every queued frame is encoded
         straight into this buffer (no per-frame bytes), and one
         [write] syscall flushes everything pending *)
  mutable out_off : int;  (* bytes of [out] already written *)
  mutable peer : Node_id.t option;  (* known once the Hello arrives *)
  mutable hello_sent : bool;
  dialed : Node_id.t option;  (* Some p when we dialed this as p *)
  mutable connecting : bool;  (* non-blocking connect in progress *)
}

let pending conn = Bin.Wbuf.length conn.out - conn.out_off

(* One burst must not pin its high-water buffer forever. *)
let out_shrink_cap = 1 lsl 20

let out_drained conn =
  conn.out_off <- 0;
  if Bin.Wbuf.capacity conn.out > out_shrink_cap then Bin.Wbuf.shrink conn.out
  else Bin.Wbuf.clear conn.out

type dial = {
  addr : addr;
  mutable backoff : float;
  mutable retry_at : float;  (* 0. = dial immediately *)
}

type state = {
  cfg : config;
  listen_fd : Unix.file_descr option;
  mutable conns : conn list;
  dials : (Node_id.t, dial) Hashtbl.t;  (* peers we owe a connection *)
  parked : (Node_id.t, Packet.t Queue.t) Hashtbl.t;
      (* packets addressed to a peer no link has identified yet;
         flushed on that peer's Hello, cleared on its Down *)
  events : Transport.event Queue.t;
  scratch : bytes;
  mutable closed : bool;
}

let nonblock fd = Unix.set_nonblock fd

let mk_listen (host, port) =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen fd 64;
  nonblock fd;
  fd

let emit st ev = Queue.add ev st.events

let enqueue_pkt conn pkt = Frame.encode_into conn.out pkt

(* Startup-race bridge only: far more than any state-transfer burst,
   far less than an unbounded leak if the peer never shows up. Overflow
   drops the NEWEST — a FIFO stream survives losing its tail (CO_RFIFO
   re-syncs on the next view change) but never a hole in its prefix. *)
let park_cap = 512

let park st peer pkt =
  let q =
    match Hashtbl.find_opt st.parked peer with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace st.parked peer q;
        q
  in
  if Queue.length q < park_cap then Queue.add pkt q

let unpark st conn peer =
  match Hashtbl.find_opt st.parked peer with
  | Some q ->
      Queue.iter (enqueue_pkt conn) q;
      Hashtbl.remove st.parked peer
  | None -> ()

let send_hello st conn =
  if not conn.hello_sent then begin
    conn.hello_sent <- true;
    enqueue_pkt conn (Packet.Hello st.cfg.me)
  end

(* Drop a connection. [down] says whether to emit [Down] (only for
   identified links); a dialed peer is always rescheduled. *)
let drop_conn st conn ~down =
  st.conns <- List.filter (fun c -> c.fd != conn.fd) st.conns;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  (match conn.peer with
  | Some p when down ->
      Hashtbl.remove st.parked p;
      emit st (Transport.Down p)
  | _ -> ());
  match conn.dialed with
  | Some p -> (
      match Hashtbl.find_opt st.dials p with
      | Some d ->
          d.retry_at <- Unix.gettimeofday () +. d.backoff;
          d.backoff <- Float.min (d.backoff *. 2.0) st.cfg.backoff_max
      | None -> ())
  | None -> ()

let start_dial st peer (d : dial) =
  let host, port = d.addr in
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ ->
      d.retry_at <- Unix.gettimeofday () +. d.backoff;
      d.backoff <- Float.min (d.backoff *. 2.0) st.cfg.backoff_max
  | fd -> (
      nonblock fd;
      let conn =
        {
          fd;
          feeder = Frame.feeder ();
          out = Bin.Wbuf.create 256;
          out_off = 0;
          peer = None;
          hello_sent = false;
          dialed = Some peer;
          connecting = true;
        }
      in
      d.retry_at <- Float.max_float (* re-armed by drop_conn on failure *);
      match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port)) with
      | () ->
          conn.connecting <- false;
          send_hello st conn;
          st.conns <- conn :: st.conns
      | exception Unix.Unix_error ((EINPROGRESS | EWOULDBLOCK | EAGAIN), _, _)
        ->
          st.conns <- conn :: st.conns
      | exception Unix.Unix_error _ -> drop_conn st conn ~down:false)

let start_due_dials st =
  let nowt = Unix.gettimeofday () in
  Hashtbl.iter
    (fun peer d -> if d.retry_at <= nowt then start_dial st peer d)
    st.dials

(* A completed (or failed) non-blocking connect shows up as writable. *)
let finish_connect st conn =
  conn.connecting <- false;
  match Unix.getsockopt_error conn.fd with
  | None -> send_hello st conn
  | Some _ -> drop_conn st conn ~down:false

let flush_out conn =
  (* Returns false when the connection broke mid-write. Everything
     queued since the last flush goes out in ONE syscall; a partial
     write just advances the offset and the rest goes next pass. *)
  match pending conn with
  | 0 -> true
  | len -> (
      match
        Unix.write conn.fd (Bin.Wbuf.unsafe_contents conn.out) conn.out_off len
      with
      | n when n = len ->
          out_drained conn;
          true
      | n ->
          conn.out_off <- conn.out_off + n;
          true
      | exception Unix.Unix_error ((EWOULDBLOCK | EAGAIN | EINTR), _, _) -> true
      | exception Unix.Unix_error _ -> false)

let handle_frames st conn =
  let rec go () =
    match Frame.next conn.feeder with
    | None -> ()
    | Some (Error error) ->
        emit st (Transport.Malformed { peer = conn.peer; error });
        drop_conn st conn ~down:true
    | Some (Ok (Packet.Hello id)) ->
        (match conn.peer with
        | None ->
            conn.peer <- Some id;
            send_hello st conn;
            unpark st conn id;
            emit st (Transport.Up id)
        | Some _ -> () (* duplicate Hello: harmless *));
        go ()
    | Some (Ok pkt) -> (
        match conn.peer with
        | Some p ->
            emit st (Transport.Received (p, pkt));
            go ()
        | None ->
            (* data before identification: protocol violation *)
            emit st
              (Transport.Malformed
                 {
                   peer = None;
                   error = Frame.Body (Vsgc_types.Bin.Bad_value
                            { what = "hello"; detail = "packet before hello" });
                 });
            drop_conn st conn ~down:false)
  in
  go ()

let handle_readable st conn =
  match Unix.read conn.fd st.scratch 0 (Bytes.length st.scratch) with
  | 0 -> drop_conn st conn ~down:true
  | n ->
      Frame.feed conn.feeder st.scratch ~off:0 ~len:n;
      handle_frames st conn
  | exception Unix.Unix_error ((EWOULDBLOCK | EAGAIN | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> drop_conn st conn ~down:true

let accept_new st listen_fd =
  let rec go () =
    match Unix.accept listen_fd with
    | fd, _ ->
        nonblock fd;
        let conn =
          {
            fd;
            feeder = Frame.feeder ();
            out = Bin.Wbuf.create 256;
            out_off = 0;
            peer = None;
            hello_sent = false;
            dialed = None;
            connecting = false;
          }
        in
        send_hello st conn;
        st.conns <- conn :: st.conns;
        go ()
    | exception Unix.Unix_error ((EWOULDBLOCK | EAGAIN | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let poll st timeout =
  if not st.closed then begin
    start_due_dials st;
    let reads =
      Option.to_list st.listen_fd
      @ List.filter_map
          (fun c -> if c.connecting then None else Some c.fd)
          st.conns
    in
    let writes =
      List.filter_map
        (fun c -> if c.connecting || pending c > 0 then Some c.fd else None)
        st.conns
    in
    match Unix.select reads writes [] timeout with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | rs, ws, _ ->
        (match st.listen_fd with
        | Some lfd when List.memq lfd rs -> accept_new st lfd
        | Some _ | None -> ());
        List.iter
          (fun fd ->
            match List.find_opt (fun c -> c.fd == fd) st.conns with
            | None -> ()
            | Some conn ->
                if conn.connecting then finish_connect st conn
                else if not (flush_out conn) then drop_conn st conn ~down:true)
          ws;
        List.iter
          (fun fd ->
            match List.find_opt (fun c -> c.fd == fd) st.conns with
            | None -> () (* the listen fd, or a conn dropped this pass *)
            | Some conn -> handle_readable st conn)
          rs
  end

let create cfg =
  (* A write to a peer that died a moment ago must cost the link, not
     the process: with SIGPIPE ignored the write fails with EPIPE and
     takes the ordinary [drop_conn ~down:true] path. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_fd = Option.map mk_listen cfg.listen in
  let st =
    {
      cfg;
      listen_fd;
      conns = [];
      dials = Hashtbl.create 8;
      parked = Hashtbl.create 8;
      events = Queue.create ();
      scratch = Bytes.create 65536;
      closed = false;
    }
  in
  List.iter
    (fun (peer, addr) ->
      Hashtbl.replace st.dials peer { addr; backoff = cfg.backoff_min; retry_at = 0.0 })
    cfg.peers;
  let find_peer peer =
    List.find_opt
      (fun c -> (not c.connecting) && match c.peer with
         | Some p -> Node_id.equal p peer
         | None -> false)
      st.conns
  in
  let connect peer =
    (* Dialing is config-driven; connect() only accelerates a pending
       retry so tests need not wait out a backoff. *)
    match Hashtbl.find_opt st.dials peer with
    | Some d -> if find_peer peer = None then d.retry_at <- 0.0
    | None -> ()
  in
  let send peer pkt =
    match find_peer peer with
    | Some conn ->
        enqueue_pkt conn pkt;
        if not (flush_out conn) then drop_conn st conn ~down:true
    | None -> park st peer pkt
  in
  let recv () =
    poll st cfg.poll_timeout;
    let evs = List.of_seq (Queue.to_seq st.events) in
    Queue.clear st.events;
    evs
  in
  let close () =
    if not st.closed then begin
      (* Best-effort flush so frames sent just before exit get out. *)
      let deadline = Unix.gettimeofday () +. 1.0 in
      let rec flush_all () =
        let pending = List.exists (fun c -> pending c > 0) st.conns in
        if pending && Unix.gettimeofday () < deadline then begin
          poll st 0.01;
          flush_all ()
        end
      in
      flush_all ();
      st.closed <- true;
      (match st.listen_fd with
      | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ());
      List.iter
        (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        st.conns;
      st.conns <- []
    end
  in
  { Transport.me = cfg.me; connect; send; recv; close }
