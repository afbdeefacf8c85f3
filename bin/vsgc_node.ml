(* vsgc_node: one node of the group-multicast system as an OS process.

   Two roles (DESIGN.md §10):
   - [server]: a membership server. Listens, meshes with its peer
     servers, accepts client joins, and takes part in the proposal /
     commit protocol. Runs until killed.
   - [client]: a GCS end-point plus a scripted application. Dials its
     membership server and the other clients, joins, waits for a view
     of the requested cardinality, multicasts its payloads, and exits
     once the expected number of deliveries arrived.

   The client prints one machine-readable line per event:
     VIEW id=<vid> members=<set>
     DELIVER view=<vid> from=p<sender> payload=<string>
   which is what the CI socket smoke diffs across processes. *)

open Vsgc_types
module Node = Vsgc_net.Node
module Tcp = Vsgc_net.Tcp
module Transport = Vsgc_net.Transport
module Node_id = Vsgc_wire.Node_id

(* -- Argument parsing ----------------------------------------------------- *)

let parse_addr s =
  match String.index_opt s ':' with
  | Some i -> begin
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when 0 < p && p < 65536 && host <> "" -> Ok (host, p)
      | _ -> Error (`Msg (Fmt.str "bad address %S (want HOST:PORT)" s))
    end
  | None -> Error (`Msg (Fmt.str "bad address %S (want HOST:PORT)" s))

let addr_conv =
  Cmdliner.Arg.conv
    (parse_addr, fun ppf (h, p) -> Fmt.pf ppf "%s:%d" h p)

(* A peer spec names the node behind an address: p<N>=HOST:PORT for a
   client (or KV server), s<N>=HOST:PORT for a membership server,
   k<N>=HOST:PORT for a KV load client. *)
let parse_peer s =
  match String.index_opt s '=' with
  | None -> Error (`Msg (Fmt.str "bad peer %S (want p<N>=HOST:PORT or s<N>=HOST:PORT)" s))
  | Some i -> begin
      let name = String.sub s 0 i in
      let addr = String.sub s (i + 1) (String.length s - i - 1) in
      let id =
        if String.length name >= 2 then
          let n = String.sub name 1 (String.length name - 1) in
          match name.[0], int_of_string_opt n with
          | 'p', Some k when k >= 0 -> Some (Node_id.client k)
          | 's', Some k when k >= 0 -> Some (Node_id.server (Server.of_int k))
          | 'k', Some k when k >= 0 -> Some (Node_id.kv_client k)
          | _ -> None
        else None
      in
      match id, parse_addr addr with
      | Some id, Ok a -> Ok (id, a)
      | None, _ ->
          Error (`Msg (Fmt.str "bad peer name %S (want p<N>, s<N> or k<N>)" name))
      | _, (Error _ as e) -> e
    end

let peer_conv =
  Cmdliner.Arg.conv
    ( parse_peer,
      fun ppf (id, (h, p)) -> Fmt.pf ppf "%s=%s:%d" (Node_id.to_string id) h p )

open Cmdliner

let id_arg =
  Arg.(required & opt (some int) None & info [ "id" ] ~docv:"N" ~doc:"Numeric identity of this node.")

let listen_arg =
  Arg.(value & opt (some addr_conv) None
       & info [ "listen" ] ~docv:"HOST:PORT" ~doc:"Address to accept connections on.")

let peers_arg =
  Arg.(value & opt_all peer_conv []
       & info [ "peer" ] ~docv:"ID=HOST:PORT"
           ~doc:"A peer this node dials (repeatable). $(docv) is \
                 p<N>=HOST:PORT for a client, s<N>=HOST:PORT for a \
                 server. Each deployment lists every edge exactly once.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Executor schedule seed.")

let timeout_arg ~default =
  Arg.(value & opt float default
       & info [ "timeout" ] ~docv:"SECS"
           ~doc:"Give up and exit non-zero after $(docv) seconds (0 = never).")

(* -- Shared drive loop ---------------------------------------------------- *)

let deadline_of timeout = if timeout <= 0.0 then None else Some (Unix.gettimeofday () +. timeout)

let expired = function
  | None -> false
  | Some d -> Unix.gettimeofday () > d

(* One iteration: drain the wire into the automata, pump them, ship
   what they produced. Returns how many transport events arrived. *)
let spin node tr =
  let events = Transport.recv tr in
  List.iter (Node.handle node) events;
  List.iter (fun (dst, pkt) -> Transport.send tr dst pkt) (Node.step node);
  List.length events

(* -- Server role ---------------------------------------------------------- *)

let run_server id listen peers seed timeout =
  let me = Node_id.server (Server.of_int id) in
  let tr = Tcp.create (Tcp.config ~listen ~peers me) in
  let node = Node.create ~seed (Node.Server_node { server = Server.of_int id }) in
  Fmt.pr "READY %s@." (Node_id.to_string me);
  let deadline = deadline_of timeout in
  let rec loop () =
    ignore (spin node tr);
    if expired deadline then begin
      Transport.close tr;
      Fmt.epr "vsgc_node: server timeout after %.1fs@." timeout;
      exit 1
    end
    else loop ()
  in
  loop ()

(* -- Client role ---------------------------------------------------------- *)

let members_arg =
  Arg.(value & opt int 1
       & info [ "members" ] ~docv:"M"
           ~doc:"Start multicasting once a view of cardinality $(docv) is delivered.")

let send_arg =
  Arg.(value & opt int 0
       & info [ "send" ] ~docv:"K" ~doc:"Multicast $(docv) payloads p<id>-1 .. p<id>-K.")

let expect_arg =
  Arg.(value & opt int 0
       & info [ "expect" ] ~docv:"D" ~doc:"Exit successfully after $(docv) application deliveries.")

let attach_arg =
  Arg.(value & opt int 0
       & info [ "attach" ] ~docv:"S" ~doc:"Membership server to register with (default s0).")

let linger_arg =
  Arg.(value & opt float 1.0
       & info [ "linger" ] ~docv:"SECS"
           ~doc:"Keep servicing the protocol for $(docv) seconds after the \
                 expected deliveries arrived, so peers can drain before this \
                 node's departure forces a view change.")

let run_client id attach listen peers seed members send expect linger timeout =
  let me = Node_id.client id in
  let tr = Tcp.create (Tcp.config ~listen ~peers me) in
  let app = Node.client_app (Vsgc_core.Client.component id) in
  let node =
    Node.create ~seed
      (Node.Client_node { proc = id; attach = Server.of_int attach; app })
  in
  Fmt.pr "READY %s@." (Node_id.to_string me);
  let deadline = deadline_of timeout in
  let seen_views = ref 0 and seen_deliveries = ref 0 and sent = ref false in
  let report () =
    let views = Node.views node in
    List.iteri
      (fun i (v, _) ->
        if i >= !seen_views then
          Fmt.pr "VIEW id=%a members=%a@." View.Id.pp (View.id v) Proc.Set.pp
            (View.set v))
      views;
    seen_views := List.length views;
    let vid =
      match Node.last_view node with
      | Some (v, _) -> Fmt.str "%a" View.Id.pp (View.id v)
      | None -> "-"
    in
    let deliveries = Node.delivered node in
    List.iteri
      (fun i (q, m) ->
        if i >= !seen_deliveries then
          Fmt.pr "DELIVER view=%s from=%a payload=%s@." vid Proc.pp q
            (Msg.App_msg.payload m))
      deliveries;
    seen_deliveries := List.length deliveries
  in
  let rec loop () =
    ignore (spin node tr);
    report ();
    if (not !sent) && send > 0 then begin
      match Node.last_view node with
      | Some (v, _) when Proc.Set.cardinal (View.set v) >= members ->
          sent := true;
          for i = 1 to send do
            Node.push node (Fmt.str "p%d-%d" id i)
          done
      | _ -> ()
    end;
    if !seen_deliveries >= expect && Node.quiescent node then begin
      (* Done, but stay responsive: peers may still be pulling the
         messages this node multicast. *)
      let until = Unix.gettimeofday () +. linger in
      while Unix.gettimeofday () < until do
        ignore (spin node tr);
        report ()
      done;
      Transport.close tr;
      Fmt.pr "DONE deliveries=%d@." !seen_deliveries;
      exit 0
    end;
    if expired deadline then begin
      Transport.close tr;
      Fmt.epr "vsgc_node: client timeout after %.1fs (%d/%d deliveries)@."
        timeout !seen_deliveries expect;
      exit 1
    end;
    loop ()
  in
  loop ()

(* -- KV server role (DESIGN.md §15) --------------------------------------- *)

module Kv_node = Vsgc_kv.Kv_node
module Kv_load = Vsgc_kv.Kv_load
module Kv_store = Vsgc_kv.Kv_store

let batch_arg =
  Arg.(value & flag
       & info [ "batch" ]
           ~doc:"Coalesce the sequencer's announcement backlog and apply \
                 contiguous stable commands in one round (batched stable \
                 delivery). Same total order, fewer messages.")

let spin_kv node tr =
  let events = Transport.recv tr in
  List.iter (Kv_node.handle node) events;
  List.iter (fun (dst, pkt) -> Transport.send tr dst pkt) (Kv_node.step node);
  List.length events

let run_kv_server arm arm_name id attach listen peers seed batch timeout =
  let me = Node_id.client id in
  let tr = Tcp.create (Tcp.config ~listen ~peers me) in
  let node =
    Kv_node.create ~seed ~batch ~arm ~attach:(Server.of_int attach) id
  in
  Fmt.pr "READY %s batch=%b arm=%s@." (Node_id.to_string me) batch arm_name;
  let deadline = deadline_of timeout in
  let seen_views = ref 0 and last_digest = ref "" in
  let report () =
    let views = Kv_node.views node in
    List.iteri
      (fun i (v, _) ->
        if i >= !seen_views then
          Fmt.pr "VIEW id=%a members=%a@." View.Id.pp (View.id v) Proc.Set.pp
            (View.set v))
      views;
    seen_views := List.length views;
    let d = Kv_node.digest node in
    if not (String.equal d !last_digest) then begin
      last_digest := d;
      Fmt.pr "STORE digest=%s applied=%d@." d
        (Kv_store.applied_count (Kv_node.store node))
    end
  in
  let rec loop () =
    ignore (spin_kv node tr);
    report ();
    if expired deadline then begin
      Transport.close tr;
      Fmt.epr "vsgc_node: kv-server timeout after %.1fs@." timeout;
      exit 1
    end
    else loop ()
  in
  loop ()

(* -- KV load role --------------------------------------------------------- *)

let rate_arg =
  Arg.(value & opt float 200.0
       & info [ "rate" ] ~docv:"R"
           ~doc:"Offered load in requests per second. Open loop: request i \
                 is due at start + i/R whether or not earlier requests were \
                 answered.")

let count_arg =
  Arg.(value & opt int 500
       & info [ "count" ] ~docv:"K" ~doc:"Total writes to issue.")

let value_bytes_arg =
  Arg.(value & opt int 32
       & info [ "value-bytes" ] ~docv:"B" ~doc:"Size of each written value.")

let key_space_arg =
  Arg.(value & opt (some int) None
       & info [ "key-space" ] ~docv:"S"
           ~doc:"Keys cycle within a per-client namespace of $(docv) keys \
                 (default: one key per write).")

let retransmit_arg =
  Arg.(value & opt float 1.0
       & info [ "retransmit" ] ~docv:"SECS"
           ~doc:"Retransmit unacknowledged writes after $(docv) seconds \
                 (0 disables). Acks dedup by command id, so retransmission \
                 is safe across server restarts.")

let run_kv_load id peers rate count key_space value_bytes retransmit timeout =
  let me = Node_id.kv_client id in
  let home =
    match
      List.filter_map
        (fun (pid, _) ->
          match pid with Node_id.Client p -> Some p | _ -> None)
        peers
    with
    | [ p ] -> p
    | _ ->
        Fmt.epr "vsgc_node: kv-load needs exactly one p<N> peer (its home)@.";
        exit 2
  in
  let tr = Tcp.create (Tcp.config ~listen:None ~peers me) in
  Fmt.pr "READY %s home=p%d@." (Node_id.to_string me) home;
  (* The load core is time-abstract; feed it microseconds so the
     histogram's integer buckets carry microsecond latencies. *)
  let now_us () = Unix.gettimeofday () *. 1e6 in
  let conf =
    {
      Kv_load.client = id;
      rate = rate /. 1e6;
      count;
      key_space = (match key_space with Some s -> s | None -> count);
      value_bytes;
      retransmit_after = retransmit *. 1e6;
    }
  in
  let gen = Kv_load.create ~start:(now_us ()) conf in
  let deadline = deadline_of timeout in
  let finish ~ok =
    let s = (Kv_load.stats gen : Kv_load.stats) in
    Fmt.pr
      "KVLOAD sent=%d acked=%d dup=%d retx=%d lost=%d p50us=%d p99us=%d \
       p999us=%d maxus=%d maxstallus=%.0f@."
      s.Kv_load.sent s.Kv_load.acked s.Kv_load.dup_acks s.Kv_load.retransmits
      s.Kv_load.outstanding s.Kv_load.p50 s.Kv_load.p99 s.Kv_load.p999
      s.Kv_load.max_latency s.Kv_load.max_stall;
    Transport.close tr;
    exit (if ok && s.Kv_load.outstanding = 0 then 0 else 1)
  in
  let rec loop () =
    let now = now_us () in
    List.iter
      (fun ev ->
        match ev with
        | Transport.Received (_, Vsgc_wire.Packet.Kv_resp resp) ->
            Kv_load.on_response gen ~now resp
        | _ -> ())
      (Transport.recv tr);
    List.iter
      (fun req ->
        Transport.send tr (Node_id.client home) (Vsgc_wire.Packet.Kv_req req))
      (Kv_load.due gen ~now);
    if Kv_load.finished gen then finish ~ok:true
    else if expired deadline then begin
      Fmt.epr "vsgc_node: kv-load timeout after %.1fs (%d/%d acked)@." timeout
        (Kv_load.acked gen) (Kv_load.sent gen);
      finish ~ok:false
    end
    else loop ()
  in
  loop ()

(* -- Commands ------------------------------------------------------------- *)

let server_cmd =
  let doc = "run a membership server (runs until killed)" in
  Cmd.v
    (Cmd.info "server" ~doc)
    Term.(
      const run_server $ id_arg $ listen_arg $ peers_arg $ seed_arg
      $ timeout_arg ~default:0.0)

let client_cmd =
  let doc = "run a GCS end-point with a scripted application" in
  Cmd.v
    (Cmd.info "client" ~doc)
    Term.(
      const run_client $ id_arg $ attach_arg $ listen_arg $ peers_arg $ seed_arg
      $ members_arg $ send_arg $ expect_arg $ linger_arg
      $ timeout_arg ~default:30.0)

(* The symmetric arm (DESIGN.md §16) reuses the whole KV edge — same
   Kv_req/Kv_resp packets, same store, same load protocol — with the
   sequencer-based replica swapped for the Skeen-ordered one, so both
   roles are one term. The role name alone fixes the arm and the name
   the READY line prints for it, so the two cannot disagree. *)
let kv_server_cmd name doc =
  let arm, arm_name =
    match name with "sym-server" -> (`Sym, "sym") | _ -> (`Gcs, "gcs")
  in
  Cmd.v
    (Cmd.info name ~doc)
    Term.(
      const (run_kv_server arm arm_name) $ id_arg $ attach_arg $ listen_arg
      $ peers_arg $ seed_arg $ batch_arg $ timeout_arg ~default:0.0)

let kv_load_cmd =
  let doc = "run an open-loop KV load generator against one kv-server" in
  Cmd.v
    (Cmd.info "kv-load" ~doc)
    Term.(
      const run_kv_load $ id_arg $ peers_arg $ rate_arg $ count_arg
      $ key_space_arg $ value_bytes_arg $ retransmit_arg
      $ timeout_arg ~default:60.0)

let () =
  let doc = "a vsgc group-multicast node over TCP" in
  let info = Cmd.info "vsgc_node" ~doc ~version:"%%VERSION%%" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            server_cmd;
            client_cmd;
            kv_server_cmd "kv-server"
              "run a replicated KV server (GCS end-point + strict replica)";
            kv_load_cmd;
            kv_server_cmd "sym-server"
              "run a replicated KV server whose writes are ordered by the \
               symmetric (Skeen-style) total-order protocol instead of the \
               GCS sequencer";
          ]))
