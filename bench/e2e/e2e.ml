(* e2e: the end-to-end benchmark of the replicated KV service over real
   sockets (see README.md for workloads, metrics and how to run it).

   One run deploys 1 membership server and n = 3 replicas of the
   unchanged bin/vsgc_node.exe on 127.0.0.1, with no injected delay,
   and drives them from this single-threaded process: it is the
   open-loop load generator (one TCP link to the home replica, speaking
   the runtime's wire format), it drains every child's stdout in the
   same select loop, it crashes and restarts a replica where the
   workload says so, and it checks every response and the replicas'
   final store digests.

     e2e.exe --workload NAME --seed N --seconds S --trace 0|1
     e2e.exe --workload all --seed N --seconds S --trace 0|1
     e2e.exe --smoke
     e2e.exe node kv-server|sym-server|server ARGS   (traced mirror)

   With --trace 0 it prints the end-to-end metrics, with --trace 1 the
   per-layer ones: one "name value unit" line each, then (for a single
   workload) one JSON object as the last line. The exit code is 0 only
   when every check passed. *)

let now = Util.now

exception Failed of string

let failf fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt
let ms = 1_000_000
let sec = 1_000_000_000

(* -- Workloads ------------------------------------------------------------- *)

type workload = {
  name : string;
  arm : [ `Gcs | `Sym ];
  batch : bool;
  home : int;  (* the replica the load link dials: p0 or p1 *)
  put_rate : float;  (* per second *)
  get_rate : float;
  keys : int;
  prepop : int;  (* keys filled before the load, by another client *)
  crash : bool;  (* a crash/rejoin cycle in every slot of the window *)
}

let workloads =
  [
    (* The full ordering path with a tiny store: p1 forwards to the
       sequencer p0, which announces; every replica applies; p1 acks. *)
    { name = "write-steady"; arm = `Gcs; batch = false; home = 1; put_rate = 2000.;
      get_rate = 200.; keys = 100; prepop = 0; crash = false };
    (* The same KV edge on the symmetric (Skeen) arm: more packets per
       write, so per-packet transport and codec cost weigh more. *)
    { name = "write-sym"; arm = `Sym; batch = false; home = 1; put_rate = 4000.;
      get_rate = 400.; keys = 100; prepop = 0; crash = false };
    (* Reads bypass ordering; cost that scales with the store size
       dominates. The home is the sequencer: a forwarding hop carrying
       only the 150 Put/s waits on Nagle and delayed ACKs, and made the
       write latency swing by a third from one second to the next. *)
    { name = "read-mostly-large"; arm = `Gcs; batch = true; home = 0; put_rate = 150.;
      get_rate = 450.; keys = 10_000; prepop = 10_000; crash = false };
    (* Membership servers, the VS view change, state transfer and the
       reborn replica's refold, under a light steady load. *)
    { name = "crash-rejoin"; arm = `Gcs; batch = true; home = 0; put_rate = 500.;
      get_rate = 150.; keys = 5_000; prepop = 5_000; crash = true };
  ]

let value_bytes = 32

(* The window is read in slots of this many seconds (see run_phase). *)
let slot_s = 2.0

(* How long after a reborn replica caught up its cycle's stall window
   still runs (vc.stall_ms). *)
let settle = 150 * ms

type settings = {
  seconds : float;  (* measured window *)
  warmup : float;  (* load before the window, excluded *)
  setups : int;  (* deployments timed for setup_s *)
  probe_cycles : int;  (* traced runs: crash/rejoin cycles after the window *)
}

(* -- Processes and the select loop -------------------------------------------- *)

type link = { conn : Conn.t; mutable load : Load.t option }

type env = { node_exe : string; buf : bytes; mutable links : link list }

(* One select round: send what is due, then service every link and
   every child pipe that became readable. Never sleeps past [until],
   nor 5 ms. *)
let step env ~until =
  let t = now () in
  List.iter
    (fun l ->
      if l.conn.Conn.broken then
        failf "a load link to the home replica broke; exited: %s"
          (String.concat ", " (Child.exited ()));
      match l.load with
      | Some ld -> Load.send_due ld t
      | None -> ignore (Conn.flush l.conn))
    env.links;
  let wake =
    List.fold_left
      (fun w l -> match l.load with Some ld -> min w (Load.next_wake ld) | None -> w)
      (min until (t + (5 * ms)))
      env.links
  in
  List.iter
    (fun c -> if Child.died c then failf "%s died (%s)" c.Child.name (Child.reap c))
    !Child.live;
  let kids = List.filter (fun c -> not c.Child.eof) !Child.live in
  let reads = List.map (fun l -> l.conn.Conn.fd) env.links @ List.map (fun c -> c.Child.fd) kids in
  let writes =
    List.filter_map
      (fun l -> if Conn.pending l.conn > 0 then Some l.conn.Conn.fd else None)
      env.links
  in
  match Unix.select reads writes [] (float_of_int (max 0 (wake - t)) /. 1e9) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | rs, _, _ ->
      let t = now () in
      List.iter
        (fun l ->
          if List.memq l.conn.Conn.fd rs then
            Conn.on_readable l.conn env.buf (fun r ->
                match l.load with Some ld -> Load.on_response ld t r | None -> ()))
        env.links;
      List.iter (fun c -> if List.memq c.Child.fd rs then Child.on_readable c env.buf t) kids

let poll_until env ~deadline pred =
  let rec go () =
    if pred () then true
    else if now () >= deadline then false
    else begin
      step env ~until:deadline;
      go ()
    end
  in
  go ()

let wait env ~deadline ~what pred =
  if not (poll_until env ~deadline pred) then failf "timed out waiting for %s" what

let idle env until = ignore (poll_until env ~deadline:until (fun () -> false))

(* -- Deployment ------------------------------------------------------------- *)

let full_view = "{p0,p1,p2}"
let survivors_view = "{p0,p1}"
let empty_digest = Vsgc_kv.Kv_store.digest_map Load.Smap.empty

(* Children give up on their own well after any run has ended, in case
   the harness itself is killed. *)
let child_timeout = "170"

let addr port = Printf.sprintf "127.0.0.1:%d" port

let server_args ports =
  [ "server"; "--id"; "0"; "--listen"; addr ports.(0); "--timeout"; child_timeout ]

(* Every edge is dialed by its higher end, so p2 needs no listener. *)
let replica_args w ports i =
  [ (match w.arm with `Gcs -> "kv-server" | `Sym -> "sym-server"); "--id"; string_of_int i ]
  @ (if i < 2 then [ "--listen"; addr ports.(i + 1) ] else [])
  @ [ "--peer"; "s0=" ^ addr ports.(0) ]
  @ List.concat_map (fun j -> [ "--peer"; Printf.sprintf "p%d=%s" j (addr ports.(j + 1)) ])
      (List.init i Fun.id)
  @ (if w.batch then [ "--batch" ] else [])
  @ [ "--timeout"; child_timeout ]

type cluster = {
  w : workload;
  traced : bool;
  ports : int array;  (* s0, p0, p1 *)
  s0 : Child.t;
  reps : Child.t array;  (* the current incarnation of p0, p1, p2 *)
  link : link;
  mutable counting : (Child.t * int) list option;
      (* while the window is open: every process in it, with its CPU
         ns at the window start (0 when spawned inside it) *)
  mutable marks : (string * int) list;  (* traced: label, time sent *)
}

let spawn env cl_traced ~name args =
  if cl_traced then Child.spawn ~name Sys.executable_name ("node" :: args)
  else Child.spawn ~name env.node_exe args

let wait_ready env c =
  wait env ~deadline:(now () + (10 * sec)) ~what:(c.Child.name ^ " READY") (fun () ->
      if c.Child.ready = None && c.Child.eof then failf "%s exited before READY" c.Child.name;
      c.Child.ready <> None)

let add_link env conn =
  let l = { conn; load = None } in
  env.links <- l :: env.links;
  l

let drop_link env l =
  env.links <- List.filter (fun l' -> l' != l) env.links;
  Conn.close l.conn

(* Spawn the server and the replicas one at a time, each after the
   previous printed READY (so no dial waits out a backoff), until all
   three replicas print the full view and the load link is up.
   Returns the cluster and its set-up time in ns. *)
let deploy env w ~traced =
  let ports = Util.free_ports 3 in
  let t0 = now () in
  let s0 = spawn env traced ~name:"s0" (server_args ports) in
  wait_ready env s0;
  let reps =
    Array.init 3 (fun i ->
        let c = spawn env traced ~name:(Printf.sprintf "p%d" i) (replica_args w ports i) in
        wait_ready env c;
        c)
  in
  wait env ~deadline:(now () + (10 * sec)) ~what:"the full view" (fun () ->
      Array.for_all (fun c -> Child.last_view c = Some full_view) reps);
  let link = add_link env (Conn.connect ~port:ports.(w.home + 1) ~client:0) in
  wait env ~deadline:(now () + (10 * sec)) ~what:"the load link" (fun () -> link.conn.Conn.up);
  let setup = now () - t0 in
  ({ w; traced; ports; s0; reps; link; counting = None; marks = [] }, setup)

let members cl = cl.s0 :: Array.to_list cl.reps

let teardown env cl =
  drop_link env cl.link;
  List.iter Child.kill (members cl)

(* A traced deployment: ask every mirror for a counter snapshot. *)
let mark cl label =
  if cl.traced then begin
    cl.marks <- (label, now ()) :: cl.marks;
    List.iter
      (fun c -> if c.Child.ready <> None then Child.signal c Sys.sigusr1)
      (members cl)
  end

(* Fill keys k0 .. k(n-1) through the home replica under the fill
   client id: a closed window of Puts, excluded from every number. *)
let prepopulate env cl ~seed =
  if cl.w.prepop > 0 then begin
    let l = add_link env (Conn.connect ~port:cl.ports.(cl.w.home + 1) ~client:Load.fill_client) in
    wait env ~deadline:(now () + (10 * sec)) ~what:"the fill link" (fun () -> l.conn.Conn.up);
    let fill =
      Load.create ~conn:l.conn ~client:Load.fill_client
        ~mode:(Load.Fill { count = cl.w.prepop; window = 256 })
        ~value_bytes ~prepop:0 ~seed ~start:(now ())
    in
    l.load <- Some fill;
    wait env ~deadline:(now () + (60 * sec)) ~what:"the fill" (fun () ->
        Load.requests fill = cl.w.prepop && fill.Load.outstanding = 0);
    drop_link env l;
    if fill.Load.bad > 0 then failf "the fill got %d bad responses" fill.Load.bad
  end

(* -- Crash and rejoin --------------------------------------------------------- *)

type cycle = {
  t_kill : int;
  view_change : int;  (* SIGKILL until both survivors print {p0,p1} *)
  rejoin : int;  (* restart until the reborn replica's digest matches *)
  refold : int;  (* its full view until then *)
  t_match : int;
}

(* SIGKILL p2, wait for the survivors' view, restart p2 at
   [restart_at t_kill t_view], and wait until the reborn replica prints
   a store digest that a survivor printed too: it has caught up. From
   just before the restart until then the load writes fresh keys only
   (see Load.send_due): an overwrite acked during a join can be lost. *)
let crash_cycle env cl ~index ~restart_at =
  let survivors = [ cl.reps.(0); cl.reps.(1) ] in
  let surv = Hashtbl.create 4096 and reborn = Hashtbl.create 256 in
  let matched = ref None in
  let on_match t = if !matched = None then matched := Some t in
  List.iter
    (fun c ->
      Hashtbl.replace surv c.Child.digest ();
      c.Child.on_store <-
        (fun _ d ->
          Hashtbl.replace surv d ();
          Option.iter on_match (Hashtbl.find_opt reborn d)))
    survivors;
  mark cl (Printf.sprintf "kill%d" index);
  let t_kill = now () in
  Child.kill cl.reps.(2);
  wait env ~deadline:(t_kill + (10 * sec)) ~what:"the survivors' view" (fun () ->
      List.for_all (fun c -> Child.view_at c ~since:t_kill survivors_view <> None) survivors);
  let t_view =
    List.fold_left
      (fun acc c -> max acc (Option.get (Child.view_at c ~since:t_kill survivors_view)))
      t_kill survivors
  in
  idle env (restart_at t_kill t_view);
  let load = Option.get cl.link.load in
  load.Load.joining <- true;
  wait env ~deadline:(now () + (10 * sec)) ~what:"the overwrites before the rejoin" (fun () ->
      load.Load.overwrites_out = 0);
  mark cl (Printf.sprintf "restart%d" index);
  let t_restart = now () in
  let p2 = spawn env cl.traced ~name:"p2" (replica_args cl.w cl.ports 2) in
  (match cl.counting with Some l -> cl.counting <- Some ((p2, 0) :: l) | None -> ());
  p2.Child.on_store <-
    (fun t d ->
      if (not (String.equal d empty_digest)) && not (Hashtbl.mem reborn d) then begin
        Hashtbl.replace reborn d t;
        if Hashtbl.mem surv d then on_match t
      end);
  cl.reps.(2) <- p2;
  wait env ~deadline:(t_restart + (20 * sec)) ~what:"the reborn replica's catch-up" (fun () ->
      !matched <> None);
  mark cl (Printf.sprintf "match%d" index);
  load.Load.joining <- false;
  List.iter (fun c -> c.Child.on_store <- (fun _ _ -> ())) (p2 :: survivors);
  let t_match = Option.get !matched in
  let t_full = Option.value (Child.view_at p2 ~since:t_restart full_view) ~default:t_match in
  {
    t_kill;
    view_change = t_view - t_kill;
    rejoin = t_match - t_restart;
    refold = max 0 (t_match - t_full);
    t_match;
  }

(* -- One measured deployment ------------------------------------------------------ *)

type phase = {
  cl : cluster;
  load : Load.t;
  ws : int;  (* window start *)
  we : int;  (* window end *)
  cpu_per_op : float list;  (* node CPU ns per request, one per slot of the window *)
  harness_cpu_ns : int;
  encode_ns : int;  (* harness frame codec, over the window *)
  decode_ns : int;
  rss_kb : int;
  cycles : cycle list;
  attempted : int;
  failed : int;
}

let self_cpu () = Util.cpu_ns (Unix.getpid ())

let run_phase env cl ~settings ~seed ~probe =
  let w = cl.w in
  prepopulate env cl ~seed;
  let start = now () + ms in
  let rate = w.put_rate +. w.get_rate in
  let load =
    Load.create ~conn:cl.link.conn ~client:0
      ~mode:(Load.Open { rate; get_share = w.get_rate /. rate; keys = w.keys })
      ~value_bytes ~prepop:w.prepop ~seed ~start
  in
  cl.link.load <- Some load;
  let ws = start + Util.ns_of_s settings.warmup in
  let we = ws + Util.ns_of_s settings.seconds in
  idle env ws;
  mark cl "ws";
  cl.counting <- Some (List.map (fun c -> (c, Child.cpu_ns c)) (members cl));
  let harness0 = self_cpu () and enc0 = cl.link.conn.Conn.encode_ns
  and dec0 = cl.link.conn.Conn.decode_ns in
  let node_cpu () =
    List.fold_left
      (fun acc (c, base) -> acc + (Child.cpu_ns c - base))
      0
      (Option.value cl.counting ~default:[])
  in
  (* The window in slots of [slot_s]: node CPU is read at every slot
     edge, and a crashing workload runs one cycle per slot, killing a
     tenth into it and restarting a third of a slot after the kill. *)
  let slot = Util.ns_of_s slot_s in
  let slots = max 1 ((we - ws) / slot) in
  let edges = ref [ (ws, 0) ] in
  let in_window =
    List.concat
      (List.init slots (fun i ->
           let t0 = ws + (i * slot) in
           if i > 0 then begin
             idle env t0;
             edges := (t0, node_cpu ()) :: !edges
           end;
           if w.crash then begin
             idle env (t0 + (slot / 10));
             [ crash_cycle env cl ~index:i ~restart_at:(fun t_kill t_view ->
                   max t_view (t_kill + (slot / 3))) ]
           end
           else []))
  in
  idle env we;
  mark cl "we";
  let cpu_ns = node_cpu () in
  cl.counting <- None;
  let cpu_per_op =
    let rec per = function
      | (t1, c1) :: ((t0, c0) :: _ as rest) ->
          (float_of_int (c1 - c0) /. float_of_int (max 1 (Load.ops load ~from:t0 ~until:t1)))
          :: per rest
      | [ _ ] | [] -> []
    in
    per ((we, cpu_ns) :: !edges)
  in
  let harness_cpu_ns = self_cpu () - harness0 in
  let encode_ns = cl.link.conn.Conn.encode_ns - enc0 and decode_ns = cl.link.conn.Conn.decode_ns - dec0 in
  let rss_kb = Array.fold_left (fun acc c -> max acc (Util.vmhwm_kb c.Child.pid)) 0 cl.reps in
  (* After the window, the traced run of every other workload measures
     the same reconfiguration, back to back: it costs what it costs at
     that workload's load and store size. *)
  let after =
    if w.crash || not probe then []
    else
      List.init settings.probe_cycles (fun i ->
          let c =
            crash_cycle env cl ~index:i ~restart_at:(fun _ t_view -> t_view + (50 * ms))
          in
          idle env (now () + settle);
          c)
  in
  (* Drain: every request must be answered within 2 s of its due time. *)
  load.Load.active <- false;
  let limit = 2 * sec in
  let last_due = if Load.requests load = 0 then now () else Util.Ivec.get load.Load.due (Load.requests load - 1) in
  ignore (poll_until env ~deadline:(last_due + limit) (fun () -> load.Load.outstanding = 0));
  let expected =
    Vsgc_kv.Kv_store.digest_map (Load.expected_map load)
  in
  let converged () = Array.for_all (fun c -> String.equal c.Child.digest expected) cl.reps in
  ignore (poll_until env ~deadline:(now () + (5 * sec)) converged);
  let diverged =
    Array.fold_left
      (fun n c ->
        if String.equal c.Child.digest expected then n
        else begin
          Printf.eprintf "e2e: %s: %s store digest %s, expected %s\n%!" w.name c.Child.name
            c.Child.digest expected;
          n + 1
        end)
      0 cl.reps
  in
  let failed = Load.failures load ~limit + diverged in
  if failed > 0 then
    Printf.eprintf "e2e: %s: %d failed (%d bad responses, %d diverged replicas)\n%!" w.name
      failed load.Load.bad diverged;
  {
    cl;
    load;
    ws;
    we;
    harness_cpu_ns;
    encode_ns;
    decode_ns;
    rss_kb;
    cpu_per_op;
    cycles = in_window @ after;
    attempted = Load.requests load;
    failed;
  }

(* Traced deployments: SIGTERM makes every mirror dump its marks and
   spans; read the pipes to the end before reaping. *)
let collect_dumps env cl =
  drop_link env cl.link;
  let kids = List.filter (fun c -> not c.Child.reaped) (members cl) in
  List.iter Child.terminate kids;
  wait env ~deadline:(now () + (30 * sec)) ~what:"the trace dumps" (fun () ->
      List.for_all (fun c -> c.Child.eof) kids);
  List.iter (fun c -> ignore (Child.reap c)) kids

(* -- Metrics ------------------------------------------------------------------- *)

type metric = { mname : string; value : float; unit_ : string }

let m mname value unit_ = { mname; value; unit_ }
let us_of_ns ns = float_of_int ns /. 1e3
let ms_of_ns ns = float_of_int ns /. 1e6
let median_ms f l = Util.median (List.map (fun x -> ms_of_ns (f x)) l)

let window_latencies (p : phase) kind = Load.latencies_us p.load ~kind ~from:p.ws ~until:p.we
let ops (p : phase) = max 1 (Load.ops p.load ~from:p.ws ~until:p.we)

(* Pooled over the measured deployments of one run. *)
let end_to_end ~setups phases =
  let pool kind = List.concat_map (fun p -> window_latencies p kind) phases in
  let puts = pool Load.put and gets = pool Load.get in
  [
    m "setup_s" (Util.median (List.map (fun ns -> float_of_int ns /. 1e9) setups)) "s";
    m "write_p50_us" (Util.quantile puts 0.5) "us";
    m "write_p95_us" (Util.quantile puts 0.95) "us";
    m "read_p50_us" (Util.quantile gets 0.5) "us";
    m "read_p95_us" (Util.quantile gets 0.95) "us";
    m "cpu_us_per_op" (Util.median (List.concat_map (fun p -> p.cpu_per_op) phases) /. 1e3) "us";
    m "peak_rss_mb"
      (float_of_int (List.fold_left (fun acc p -> max acc p.rss_kb) 0 phases) /. 1024.)
      "MB";
  ]

(* One Put's latency, split where it was spent (ns):
   - client: due until the harness's write returned;
   - queue: written until the home's Transport.recv call that delivered
     it began, when the home was busy elsewhere (0 if it was already
     waiting in recv);
   - residence: Kv_node.handle of the request until Transport.send of
     its ack, of which [wait] was spent inside Transport.recv;
   - rest: the remainder, outside both processes' code: kernel and
     loopback, Nagle and delayed-ACK holds, the home's wake-up and read. *)
type share = { total : int; client : int; queue : int; residence : int; wait : int; rest : int }

(* A mirror's dump: its marks in time order, and its spans. *)
let parse_marks c =
  List.rev c.Child.dump
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | "MARK" :: t :: fields ->
             Some
               ( int_of_string t,
                 List.filter_map
                   (fun f ->
                     match String.index_opt f '=' with
                     | Some i ->
                         Some (String.sub f 0 i, int_of_string (String.sub f (i + 1) (String.length f - i - 1)))
                     | None -> None)
                   fields )
         | _ -> None)

(* A counter's value at the first snapshot a mirror took after the
   harness asked at [t]. *)
let counter marks t name =
  match List.find_opt (fun (tm, _) -> tm >= t) marks with
  | Some (_, fields) -> Option.value (List.assoc_opt name fields) ~default:0
  | None -> failf "no trace mark after %d" t

let label_time cl label =
  match List.assoc_opt label cl.marks with Some t -> t | None -> failf "no mark %s" label

let delta marks cl name ~from ~until =
  counter marks (label_time cl until) name - counter marks (label_time cl from) name

let per_layer ~untraced_p50 (p : phase) =
  let cl = p.cl in
  let n = float_of_int (ops p) in
  (* Replicas that lived through the whole window (crash-rejoin kills
     p2 inside it). *)
  let reps = if cl.w.crash then [ cl.reps.(0); cl.reps.(1) ] else Array.to_list cl.reps in
  let rep_marks = List.map parse_marks reps in
  let sum name = List.fold_left (fun acc mk -> acc + delta mk cl name ~from:"ws" ~until:"we") 0 rep_marks in
  let per_op name = float_of_int (sum name) /. n in
  let us_per_op name = per_op name /. 1e3 in
  let all_pkts = List.fold_left (fun acc k -> acc + sum ("pkts_" ^ k)) 0 (Array.to_list Mirror.kinds) in
  let all_bytes = List.fold_left (fun acc k -> acc + sum ("bytes_" ^ k)) 0 (Array.to_list Mirror.kinds) in
  let home = cl.reps.(cl.w.home) in
  let home_marks = parse_marks home in
  let at_we name = counter home_marks (label_time cl "we") name in
  (* Home spans of this window's Puts, joined with the harness's view
     of the same request. *)
  let load = p.load in
  let shares =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "SPAN"; client; seq; t_recv; t_handle; t_sent; wait ] when int_of_string client = 0 ->
            let seq = int_of_string seq in
            let due = Util.Ivec.get load.Load.due seq in
            let written = Util.Ivec.get load.Load.written seq in
            let answered = Util.Ivec.get load.Load.answered seq in
            if Util.Ivec.get load.Load.kind seq = Load.put && due >= p.ws && due < p.we && answered > 0
            then
              let total = answered - due and client = written - due in
              let queue = max 0 (int_of_string t_recv - written) in
              let residence = int_of_string t_sent - int_of_string t_handle in
              Some
                {
                  total;
                  client;
                  queue;
                  residence;
                  wait = int_of_string wait;
                  rest = total - client - queue - residence;
                }
            else None
        | _ -> None)
      home.Child.dump
  in
  (* The breakdown of the requests around one percentile of the
     end-to-end latency: each component's mean over the requests whose
     latency ranks within [lo, hi]. *)
  let band lo hi =
    let sorted = Array.of_list shares in
    Array.sort (fun a b -> Int.compare a.total b.total) sorted;
    let n = Array.length sorted in
    let i0 = int_of_float (lo *. float_of_int n) and i1 = int_of_float (hi *. float_of_int n) in
    let sel = Array.sub sorted i0 (max 1 (min n (i1 + 1) - i0)) in
    fun f ->
      us_of_ns (Array.fold_left (fun acc s -> acc + f s) 0 sel) /. float_of_int (Array.length sel)
  in
  let at_p50 = band 0.45 0.55 and at_p99 = band 0.985 0.995 in
  let traced_p50 = Util.quantile (window_latencies p Load.put) 0.5 in
  let parts = List.map at_p50 [ (fun s -> s.client); (fun s -> s.queue); (fun s -> s.residence); (fun s -> s.rest) ] in
  let s0_marks = parse_marks cl.s0 and p0_marks = parse_marks cl.reps.(0) in
  let cycles = List.init (List.length p.cycles) Fun.id in
  let s0_pkts =
    List.fold_left
      (fun acc i ->
        acc
        + List.fold_left
            (fun a k ->
              a
              + delta s0_marks cl ("pkts_" ^ k) ~from:(Printf.sprintf "kill%d" i)
                  ~until:(Printf.sprintf "match%d" i))
            0 (Array.to_list Mirror.kinds))
      0 cycles
  in
  let transfer =
    Util.median
      (List.map
         (fun i ->
           float_of_int
             (delta p0_marks cl "bytes_rf" ~from:(Printf.sprintf "restart%d" i)
                ~until:(Printf.sprintf "match%d" i)))
         cycles)
  in
  let late = Load.late_us load ~from:p.ws ~until:p.we in
  [
    m "gen.late_p99_us" (Util.quantile late 0.99) "us";
    m "gen.cpu_us_per_op" (us_of_ns p.harness_cpu_ns /. n) "us";
    m "frame.encode_ns_per_op" (float_of_int p.encode_ns /. n) "ns";
    m "frame.decode_ns_per_op" (float_of_int p.decode_ns /. n) "ns";
    m "tcp.recv_us_per_op" (us_per_op "recv_ns") "us";
    m "tcp.recv_calls_per_op" (per_op "recv_calls") "count";
    m "tcp.send_us_per_op" (us_per_op "send_ns") "us";
    m "tcp.send_calls_per_op" (per_op "send_calls") "count";
    m "wire.packets_per_op" (float_of_int all_pkts /. n) "count";
    m "wire.bytes_per_op" (float_of_int all_bytes /. n) "B";
    m "wire.rf_packets_per_op" (per_op "pkts_rf") "count";
    m "wire.rf_bytes_per_op" (per_op "bytes_rf") "B";
    m "wire.kv_resp_bytes_per_op" (per_op "bytes_kv_resp") "B";
    m "node.handle_us_per_op" (us_per_op "handle_ns") "us";
    m "node.step_us_per_op" (us_per_op "step_ns") "us";
    m "exec.actions_per_op" (per_op "actions") "count";
    m "kv.apply_rounds_per_op" (per_op "apply_rounds") "count";
    m "report.us_per_op" (us_per_op "report_ns") "us";
    m "report.digest_us_per_op" (us_per_op "digest_ns") "us";
    m "e2e.client_p50_us" (at_p50 (fun s -> s.client)) "us";
    m "home.queue_p50_us" (at_p50 (fun s -> s.queue)) "us";
    m "home.residence_p50_us" (at_p50 (fun s -> s.residence)) "us";
    m "home.residence_p99_us" (at_p99 (fun s -> s.residence)) "us";
    m "home.order_wait_p50_us" (at_p50 (fun s -> s.wait)) "us";
    m "e2e.unattributed_p50_us" (at_p50 (fun s -> s.rest)) "us";
    m "node.retained_actions" (float_of_int (at_we "actions")) "count";
    m "store.size" (float_of_int (at_we "store_size")) "count";
    m "mbrshp.packets_per_change"
      (float_of_int s0_pkts /. float_of_int (2 * max 1 (List.length cycles)))
      "count";
    m "vc.transfer_bytes" transfer "B";
    m "vc.view_change_ms" (median_ms (fun c -> c.view_change) p.cycles) "ms";
    m "vc.rejoin_ms" (median_ms (fun c -> c.rejoin) p.cycles) "ms";
    m "vc.stall_ms"
      (median_ms (fun c -> Load.max_stall_ns load ~from:c.t_kill ~until:(c.t_match + settle)) p.cycles)
      "ms";
    m "vc.refold_ms" (median_ms (fun c -> c.refold) p.cycles) "ms";
    m "trace.write_p50_us" traced_p50 "us";
    m "trace.overhead_pct" (100. *. (traced_p50 -. untraced_p50) /. untraced_p50) "%";
    m "trace.reconcile_pct"
      (100. *. Float.abs (List.fold_left ( +. ) 0. parts -. traced_p50) /. traced_p50)
      "%";
  ]

(* -- Runs ------------------------------------------------------------------------ *)

let deploy_retrying env w ~traced =
  let rec go attempt =
    match deploy env w ~traced with
    | r -> r
    | exception Failed msg when attempt < 3 ->
        Printf.eprintf "e2e: %s: deployment failed (%s), retrying\n%!" w.name msg;
        Child.kill_all ();
        List.iter (fun l -> drop_link env l) env.links;
        go (attempt + 1)
  in
  go 1

(* End-to-end: [setups] deployments, each timed; the last [measured]
   of them share the window. A deployment's connections settle into
   their own Nagle and delayed-ACK rhythm and its heap grows with the
   retained trace, so two short windows on fresh deployments vary less
   from run to run than one long one. *)
let run_untraced env w ~settings ~seed =
  let measured = 2 in
  let part = { settings with seconds = settings.seconds /. float_of_int measured } in
  let runs =
    List.init settings.setups (fun i ->
        let cl, setup = deploy_retrying env w ~traced:false in
        let phase =
          if i >= settings.setups - measured then
            Some (run_phase env cl ~settings:part ~seed:((seed * 16) + i) ~probe:false)
          else None
        in
        teardown env cl;
        (setup, phase))
  in
  let phases = List.filter_map snd runs in
  ( end_to_end ~setups:(List.map fst runs) phases,
    List.fold_left (fun acc p -> acc + p.attempted) 0 phases,
    List.fold_left (fun acc p -> acc + p.failed) 0 phases )

(* Per-layer: half the window untraced (the reference for the tracing
   overhead), half on the traced mirrors. *)
let run_traced env w ~settings ~seed =
  let half =
    { settings with seconds = settings.seconds /. 2. }
  in
  let cl, _ = deploy_retrying env w ~traced:false in
  let ref_phase = run_phase env cl ~settings:half ~seed ~probe:false in
  teardown env cl;
  let untraced_p50 = Util.quantile (window_latencies ref_phase Load.put) 0.5 in
  let cl, _ = deploy_retrying env w ~traced:true in
  let p = run_phase env cl ~settings:half ~seed ~probe:true in
  collect_dumps env cl;
  (per_layer ~untraced_p50 p, ref_phase.attempted + p.attempted, ref_phase.failed + p.failed)

let print_metrics ?prefix metrics =
  List.iter
    (fun x ->
      Printf.printf "%s%s %.6g %s\n"
        (match prefix with Some s -> s ^ " " | None -> "")
        x.mname x.value x.unit_)
    metrics

let json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun x -> Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" x.mname x.value x.unit_)
          metrics))

let finite metrics = List.for_all (fun x -> Float.is_finite x.value) metrics

let smoke env =
  let settings = { seconds = 3.; warmup = 1.; setups = 1; probe_cycles = 3 } in
  let ok =
    List.fold_left
      (fun ok w ->
        let metrics, attempted, failed = run_traced env w ~settings ~seed:1 in
        let good = failed = 0 && attempted > 0 && finite metrics in
        Printf.printf "smoke %s: %s (%d requests)\n%!" w.name (if good then "ok" else "FAILED") attempted;
        ok && good)
      true workloads
  in
  exit (if ok then 0 else 1)

let locate_node_exe () =
  (* bench/e2e/e2e.exe -> bin/vsgc_node.exe in the same build tree *)
  let dir = Filename.dirname Sys.executable_name in
  let exe = Filename.concat dir (Filename.concat ".." (Filename.concat ".." "bin/vsgc_node.exe")) in
  if Sys.file_exists exe then exe else failf "cannot find %s" exe

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let smoke_mode = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads, or all");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--smoke", Arg.Set smoke_mode, " run every workload briefly with every check");
    ]
  in
  let usage = "e2e.exe --workload NAME --seed N --seconds S --trace 0|1 | --smoke" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  (* Ignored, not handled, so that the nodes inherit it across exec:
     vsgc_node keeps the default action, and a replica that writes to a
     peer killed a moment earlier then dies of SIGPIPE (seen in about
     one crash-rejoin run in fifteen), although Tcp's policy is that a
     peer crash costs the link, never the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  at_exit Child.kill_all;
  let env = { node_exe = locate_node_exe (); buf = Bytes.create 65536; links = [] } in
  if !smoke_mode then smoke env;
  let selected =
    if !workload = "all" then workloads
    else
      match List.filter (fun w -> w.name = !workload) workloads with
      | [] -> raise (Arg.Bad ("unknown workload " ^ !workload))
      | l -> l
  in
  let settings =
    { seconds = !seconds; warmup = 3.0; setups = 5; probe_cycles = 10 }
  in
  let results =
    List.map
      (fun w ->
        let metrics, attempted, failed =
          if !trace = 1 then run_traced env w ~settings ~seed:!seed
          else run_untraced env w ~settings ~seed:!seed
        in
        (w, metrics, attempted, failed))
      selected
  in
  let correct = List.for_all (fun (_, metrics, _, failed) -> failed = 0 && finite metrics) results in
  (match results with
  | [ (_, metrics, attempted, failed) ] ->
      print_metrics metrics;
      Printf.printf "fail_frac %.6g share\n" (float_of_int failed /. float_of_int (max 1 attempted));
      print_endline (json ~correct ~attempted ~failed metrics)
  | _ -> List.iter (fun (w, metrics, _, _) -> print_metrics ~prefix:w.name metrics) results);
  exit (if correct then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: "node" :: _ -> Mirror.main (Array.sub Sys.argv 2 (Array.length Sys.argv - 2))
  | _ -> (
      try main () with
      | Failed msg ->
          Printf.eprintf "e2e: %s\n%!" msg;
          exit 1
      | Arg.Bad msg ->
          prerr_endline msg;
          exit 2)
