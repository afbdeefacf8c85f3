(* A spawned node process and what it has printed.

   The harness reads every child's stdout through a pipe in its own
   select loop (a full pipe would stall the node) and timestamps each
   line as it is read. Lines the benchmark cares about:

     READY ...                         listener bound, loop about to run
     VIEW id=<vid> members=<set>       a view delivered to the replica
     STORE digest=<hex> applied=<n>    the store digest changed
     MARK ... / SPAN ...               a traced mirror's dump at SIGTERM *)

type t = {
  name : string;
  pid : int;
  fd : Unix.file_descr;
  partial : Buffer.t;
  mutable eof : bool;
  mutable reaped : bool;
  mutable ready : int option;
  mutable views : (int * string) list;  (* newest first: time, members *)
  mutable digest : string;  (* latest STORE digest, "" before any *)
  mutable on_store : int -> string -> unit;
  mutable dump : string list;  (* MARK/SPAN lines, newest first *)
  mutable cpu_final : int;  (* CPU ns read just before a kill *)
  mutable stopping : bool;  (* the harness asked it to end *)
}

(* Every child ever spawned and not yet reaped, so that each exit path
   of the harness can kill what is left. *)
let live : t list ref = ref []

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0)

let spawn ~name prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process prog
      (Array.of_list (prog :: args))
      (Lazy.force devnull) w Unix.stderr
  in
  Unix.close w;
  Unix.set_nonblock r;
  let c =
    {
      name;
      pid;
      fd = r;
      partial = Buffer.create 256;
      eof = false;
      reaped = false;
      ready = None;
      views = [];
      digest = "";
      on_store = (fun _ _ -> ());
      dump = [];
      cpu_final = 0;
      stopping = false;
    }
  in
  live := c :: !live;
  c

let field key line =
  let prefix = key ^ "=" in
  String.split_on_char ' ' line
  |> List.find_map (fun w ->
         if String.starts_with ~prefix w then
           Some (String.sub w (String.length prefix) (String.length w - String.length prefix))
         else None)

let on_line c t line =
  match String.index_opt line ' ' with
  | None -> ()
  | Some i -> (
      match String.sub line 0 i with
      | "READY" -> if c.ready = None then c.ready <- Some t
      | "VIEW" -> (
          match field "members" line with
          | Some m -> c.views <- (t, m) :: c.views
          | None -> ())
      | "STORE" -> (
          match field "digest" line with
          | Some d ->
              c.digest <- d;
              c.on_store t d
          | None -> ())
      | "MARK" | "SPAN" -> c.dump <- line :: c.dump
      | _ -> ())

let close_pipe c =
  if not c.eof then begin
    c.eof <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* Read what the pipe holds; split complete lines. *)
let on_readable c buf t =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> close_pipe c
  | n ->
      let start = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.get buf i = '\n' then begin
          Buffer.add_subbytes c.partial buf !start (i - !start);
          on_line c t (Buffer.contents c.partial);
          Buffer.clear c.partial;
          start := i + 1
        end
      done;
      Buffer.add_subbytes c.partial buf !start (n - !start)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close_pipe c

let last_view c = match c.views with (_, m) :: _ -> Some m | [] -> None

(* The first time [c] printed a view with exactly [members] at or after
   [since]. *)
let view_at c ~since members =
  List.fold_left
    (fun acc (t, m) -> if t >= since && String.equal m members then Some t else acc)
    None c.views

let signal c s = if not c.reaped then try Unix.kill c.pid s with Unix.Unix_error _ -> ()

let describe = function
  | Unix.WEXITED n -> Printf.sprintf "exit code %d" n
  | Unix.WSIGNALED s when s = Sys.sigpipe -> "SIGPIPE"
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

(* Reap the process; how it ended. *)
let reap c =
  if c.reaped then "reaped"
  else begin
    let how =
      match Unix.waitpid [] c.pid with
      | _, st -> describe st
      | exception Unix.Unix_error (e, _, _) -> Unix.error_message e
    in
    c.reaped <- true;
    live := List.filter (fun c' -> c' != c) !live;
    how
  end

(* A child whose output ended although nobody asked it to stop has
   died on its own. *)
let died c = c.eof && not c.stopping

(* Children that have exited, whether or not their pipe said so yet. *)
let exited () =
  List.filter_map
    (fun c ->
      match Unix.waitpid [ Unix.WNOHANG ] c.pid with
      | 0, _ -> None
      | _, st ->
          c.reaped <- true;
          Some (Printf.sprintf "%s (%s)" c.name (describe st))
      | exception Unix.Unix_error _ -> None)
    !live

(* SIGKILL: the crash the paper's failure model assumes. The CPU the
   process used is read first, so it still counts. *)
let kill c =
  if not c.reaped then begin
    c.stopping <- true;
    c.cpu_final <- Util.cpu_ns c.pid;
    signal c Sys.sigkill;
    ignore (reap c);
    close_pipe c
  end

let terminate c =
  c.stopping <- true;
  signal c Sys.sigterm

let cpu_ns c = if c.reaped then c.cpu_final else Util.cpu_ns c.pid

let kill_all () = List.iter kill !live
