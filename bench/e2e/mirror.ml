(* Traced mirrors of the vsgc_node roles, for the per-layer run.

   [e2e.exe node kv-server|sym-server|server ARGS] is a call-for-call
   copy of [run_kv_server] / [run_server] in bin/vsgc_node.ml: the same
   Tcp.config, the same Kv_node.create / Node.create arguments, the same
   spin -> report order and the same stdout lines. The only addition is
   a clock read around every call into a layer's public functions:

     tcp     Transport.recv (select wait + read + decode), Transport.send
     node    Kv_node.handle / Node.handle, Kv_node.step / Node.step
     report  Kv_node.views + Kv_node.digest + the print

   plus packet and byte counts per Packet kind, and one span per KV
   request: from the Kv_req entering Kv_node.handle to the matching
   Kv_resp leaving Transport.send, with the start of the
   Transport.recv call that delivered the request and the
   Transport.recv time spent inside the span (waiting on peers).

   Everything stays in memory. SIGUSR1 asks for a MARK (a timestamped
   snapshot of every counter); SIGTERM dumps MARK and SPAN lines on
   stdout and exits. Both only set a flag; the loop acts on it at the
   top of its next iteration. *)

open Vsgc_types
open Vsgc_wire
module Tcp = Vsgc_net.Tcp
module Transport = Vsgc_net.Transport
module Node = Vsgc_net.Node
module Kv_node = Vsgc_kv.Kv_node
module Kv_store = Vsgc_kv.Kv_store
module Kv_service = Vsgc_kv.Kv_service
module Bin = Vsgc_types.Bin

let now = Util.now

(* -- Counters ------------------------------------------------------------- *)

let kinds =
  [| "hello"; "rf"; "srv"; "join"; "leave"; "start_change"; "view"; "kv_req"; "kv_resp" |]

let kind_index : Packet.t -> int = function
  | Packet.Hello _ -> 0
  | Packet.Rf _ -> 1
  | Packet.Srv _ -> 2
  | Packet.Join _ -> 3
  | Packet.Leave _ -> 4
  | Packet.Start_change _ -> 5
  | Packet.View _ -> 6
  | Packet.Kv_req _ -> 7
  | Packet.Kv_resp _ -> 8

type counters = {
  mutable recv_ns : int;
  mutable recv_calls : int;
  mutable send_ns : int;
  mutable send_calls : int;
  mutable handle_ns : int;
  mutable step_ns : int;
  mutable report_ns : int;
  mutable digest_ns : int;
  pkts : int array;
  bytes : int array;
}

let c =
  {
    recv_ns = 0;
    recv_calls = 0;
    send_ns = 0;
    send_calls = 0;
    handle_ns = 0;
    step_ns = 0;
    report_ns = 0;
    digest_ns = 0;
    pkts = Array.make (Array.length kinds) 0;
    bytes = Array.make (Array.length kinds) 0;
  }

let sizer = Bin.Wbuf.create 4096

let frame_len pkt =
  Bin.Wbuf.clear sizer;
  Frame.encode_into sizer pkt;
  Bin.Wbuf.length sizer

(* -- Spans ---------------------------------------------------------------- *)

(* request id -> start of the recv call that delivered it, handle
   time, recv time so far *)
let open_spans : (int * int, int * int * int) Hashtbl.t = Hashtbl.create 4096
let spans : (int * int * int * int * int * int) list ref = ref []
let recv_started = ref 0

let request_id = function
  | Kv_msg.Put { client; seq; _ } | Kv_msg.Get { client; seq; _ } -> (client, seq)

let response_id = function
  | Kv_msg.Put_ack { client; seq } | Kv_msg.Get_reply { client; seq; _ } -> (client, seq)

let span_open = function
  | Transport.Received (_, Packet.Kv_req req) ->
      Hashtbl.replace open_spans (request_id req) (!recv_started, now (), c.recv_ns)
  | Transport.Received _ | Transport.Up _ | Transport.Down _ | Transport.Malformed _ -> ()

let span_close t = function
  | Packet.Kv_resp resp -> (
      let id = response_id resp in
      match Hashtbl.find_opt open_spans id with
      | Some (tr, t0, recv0) ->
          Hashtbl.remove open_spans id;
          spans := (fst id, snd id, tr, t0, t, c.recv_ns - recv0) :: !spans
      | None -> ())
  | _ -> ()

(* -- Timed layer calls ----------------------------------------------------- *)

let recv tr =
  let t0 = now () in
  recv_started := t0;
  let evs = Transport.recv tr in
  c.recv_ns <- c.recv_ns + (now () - t0);
  c.recv_calls <- c.recv_calls + 1;
  evs

let send tr dst pkt =
  let t0 = now () in
  Transport.send tr dst pkt;
  let t1 = now () in
  c.send_ns <- c.send_ns + (t1 - t0);
  c.send_calls <- c.send_calls + 1;
  let k = kind_index pkt in
  c.pkts.(k) <- c.pkts.(k) + 1;
  c.bytes.(k) <- c.bytes.(k) + frame_len pkt;
  span_close t1 pkt

let handle f ev =
  span_open ev;
  let t0 = now () in
  f ev;
  c.handle_ns <- c.handle_ns + (now () - t0)

let step f =
  let t0 = now () in
  let pkts = f () in
  c.step_ns <- c.step_ns + (now () - t0);
  pkts

(* -- Marks and the dump ----------------------------------------------------- *)

let marks : string list ref = ref []
let mark_requests = ref 0
let stop_requested = ref false

let take_mark gauges =
  let b = Buffer.create 512 in
  let add k v = Buffer.add_string b (Printf.sprintf " %s=%d" k v) in
  Buffer.add_string b (Printf.sprintf "MARK %d" (now ()));
  add "recv_ns" c.recv_ns;
  add "recv_calls" c.recv_calls;
  add "send_ns" c.send_ns;
  add "send_calls" c.send_calls;
  add "handle_ns" c.handle_ns;
  add "step_ns" c.step_ns;
  add "report_ns" c.report_ns;
  add "digest_ns" c.digest_ns;
  Array.iteri
    (fun i k ->
      add ("pkts_" ^ k) c.pkts.(i);
      add ("bytes_" ^ k) c.bytes.(i))
    kinds;
  List.iter (fun (k, v) -> add k v) (gauges ());
  marks := Buffer.contents b :: !marks

let dump () =
  List.iter print_endline (List.rev !marks);
  List.iter
    (fun (client, seq, tr, t0, t1, wait) ->
      Printf.printf "SPAN %d %d %d %d %d %d\n" client seq tr t0 t1 wait)
    (List.rev !spans);
  flush stdout

let install_signals () =
  Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> incr mark_requests));
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop_requested := true))

let poll_signals gauges =
  if !mark_requests > 0 then begin
    mark_requests := 0;
    take_mark gauges
  end;
  if !stop_requested then begin
    take_mark gauges;
    dump ();
    exit 0
  end

(* -- The roles, mirroring bin/vsgc_node.ml ------------------------------------ *)

let deadline_of timeout = if timeout <= 0.0 then None else Some (Unix.gettimeofday () +. timeout)

let expired = function None -> false | Some d -> Unix.gettimeofday () > d

let spin node tr =
  let events = recv tr in
  List.iter (handle (Node.handle node)) events;
  List.iter (fun (dst, pkt) -> send tr dst pkt) (step (fun () -> Node.step node));
  List.length events

let run_server id listen peers seed timeout =
  let me = Node_id.server (Server.of_int id) in
  let tr = Tcp.create (Tcp.config ~listen ~peers me) in
  let node = Node.create ~seed (Node.Server_node { server = Server.of_int id }) in
  Fmt.pr "READY %s@." (Node_id.to_string me);
  let deadline = deadline_of timeout in
  let gauges () = [ ("actions", Node.steps node) ] in
  let rec loop () =
    poll_signals gauges;
    ignore (spin node tr);
    if expired deadline then begin
      Transport.close tr;
      Fmt.epr "vsgc_node: server timeout after %.1fs@." timeout;
      exit 1
    end
    else loop ()
  in
  loop ()

let spin_kv node tr =
  let events = recv tr in
  List.iter (handle (Kv_node.handle node)) events;
  List.iter (fun (dst, pkt) -> send tr dst pkt) (step (fun () -> Kv_node.step node));
  List.length events

let run_kv_server arm id attach listen peers seed batch timeout =
  let me = Node_id.client id in
  let tr = Tcp.create (Tcp.config ~listen ~peers me) in
  let node = Kv_node.create ~seed ~batch ~arm ~attach:(Server.of_int attach) id in
  Fmt.pr "READY %s batch=%b arm=%s@." (Node_id.to_string me) batch
    (match arm with `Gcs -> "gcs" | `Sym -> "sym");
  let deadline = deadline_of timeout in
  let seen_views = ref 0 and last_digest = ref "" in
  let report () =
    let t0 = now () in
    let views = Kv_node.views node in
    List.iteri
      (fun i (v, _) ->
        if i >= !seen_views then
          Fmt.pr "VIEW id=%a members=%a@." View.Id.pp (View.id v) Proc.Set.pp (View.set v))
      views;
    seen_views := List.length views;
    let t1 = now () in
    let d = Kv_node.digest node in
    c.digest_ns <- c.digest_ns + (now () - t1);
    if not (String.equal d !last_digest) then begin
      last_digest := d;
      Fmt.pr "STORE digest=%s applied=%d@." d (Kv_store.applied_count (Kv_node.store node))
    end;
    c.report_ns <- c.report_ns + (now () - t0)
  in
  let gauges () =
    [
      ("actions", Kv_node.steps node);
      ("apply_rounds", Kv_service.apply_rounds (Kv_node.service node));
      ("store_size", Kv_store.size (Kv_node.store node));
    ]
  in
  let rec loop () =
    poll_signals gauges;
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

(* -- Arguments: the subset of vsgc_node's flags the harness passes ------------- *)

let parse_addr s =
  match String.split_on_char ':' s with
  | [ host; port ] -> (host, int_of_string port)
  | _ -> raise (Arg.Bad ("bad address " ^ s))

let parse_peer s =
  match String.index_opt s '=' with
  | Some i when i >= 2 -> (
      let n = int_of_string (String.sub s 1 (i - 1)) in
      let addr = parse_addr (String.sub s (i + 1) (String.length s - i - 1)) in
      match s.[0] with
      | 'p' -> (Node_id.client n, addr)
      | 's' -> (Node_id.server (Server.of_int n), addr)
      | _ -> raise (Arg.Bad ("bad peer " ^ s)))
  | _ -> raise (Arg.Bad ("bad peer " ^ s))

let main argv =
  let id = ref 0 and attach = ref 0 and listen = ref None and peers = ref [] in
  let seed = ref 1 and batch = ref false and timeout = ref 0.0 in
  let specs =
    [
      ("--id", Arg.Set_int id, "N node id");
      ("--attach", Arg.Set_int attach, "S membership server");
      ("--listen", Arg.String (fun s -> listen := Some (parse_addr s)), "HOST:PORT");
      ("--peer", Arg.String (fun s -> peers := !peers @ [ parse_peer s ]), "ID=HOST:PORT");
      ("--seed", Arg.Set_int seed, "SEED executor seed");
      ("--batch", Arg.Set batch, " batched stable delivery");
      ("--timeout", Arg.Set_float timeout, "SECS exit after");
    ]
  in
  let usage = "e2e.exe node kv-server|sym-server|server [flags]" in
  match Array.to_list argv with
  | role :: _ -> (
      Arg.parse_argv ~current:(ref 0) argv specs
        (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
        usage;
      install_signals ();
      match role with
      | "kv-server" -> run_kv_server `Gcs !id !attach !listen !peers !seed !batch !timeout
      | "sym-server" -> run_kv_server `Sym !id !attach !listen !peers !seed !batch !timeout
      | "server" -> run_server !id !listen !peers !seed !timeout
      | r -> raise (Arg.Bad ("unknown role " ^ r)))
  | [] -> raise (Arg.Bad usage)
