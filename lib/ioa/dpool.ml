(* A hand-rolled domain pool (no domainslib in the switch).

   One pool owns [jobs - 1] worker domains plus the calling (master)
   domain; [run] fans the indices [0 .. count-1] of one job out across
   all of them and blocks until every index has been processed. Workers
   park on a condition variable between jobs, so an idle pool costs
   nothing but the parked domains.

   Re-entrancy: [run] called from inside a pool task (a worker domain,
   or the master while it is already inside [run]) degrades to the
   sequential loop — same results, no deadlock.

   Exceptions: a raising index does not stop the other indices (they
   are already in flight); the exception raised at the lowest index is
   re-raised on the master after the job completes, so the sequential
   fallback and the parallel path surface the same failure. *)

type job = {
  f : int -> unit;
  count : int;
  next : int Atomic.t;  (* next index to claim *)
  completed : int Atomic.t;  (* indices fully processed *)
  mutable failed : (int * exn * Printexc.raw_backtrace) option;
      (* lowest-index failure, protected by the pool mutex *)
}

type t = {
  jobs : int;
  mutable workers : unit Domain.t array;
  m : Mutex.t;
  work_cv : Condition.t;  (* workers park here between jobs *)
  done_cv : Condition.t;  (* master parks here awaiting completion *)
  mutable current : job option;
  mutable epoch : int;  (* bumped per job so late workers skip stale work *)
  mutable stopped : bool;
}

(* True on worker domains and on a master already inside [run]. *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let record_failure t job i exn bt =
  Mutex.lock t.m;
  (match job.failed with
  | Some (j, _, _) when j <= i -> ()
  | _ -> job.failed <- Some (i, exn, bt));
  Mutex.unlock t.m

(* Claim and process indices until the job is drained. Whoever
   completes the last index wakes the master. *)
let chew t job =
  let rec go () =
    let i = Atomic.fetch_and_add job.next 1 in
    if i < job.count then begin
      (try job.f i
       with exn -> record_failure t job i exn (Printexc.get_raw_backtrace ()));
      if Atomic.fetch_and_add job.completed 1 = job.count - 1 then begin
        Mutex.lock t.m;
        Condition.broadcast t.done_cv;
        Mutex.unlock t.m
      end;
      go ()
    end
  in
  go ()

let worker t =
  Domain.DLS.set in_task true;
  let rec park seen =
    Mutex.lock t.m;
    while (not t.stopped) && t.epoch = seen do
      Condition.wait t.work_cv t.m
    done;
    if t.stopped then Mutex.unlock t.m
    else begin
      let epoch = t.epoch in
      let job = t.current in
      Mutex.unlock t.m;
      (* [current] may already be back to None if the job drained
         before this worker woke — then there is nothing to chew. *)
      (match job with Some j -> chew t j | None -> ());
      park epoch
    end
  in
  park 0

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      workers = [||];
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      current = None;
      epoch = 0;
      stopped = false;
    }
  in
  t.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let shutdown t =
  Mutex.lock t.m;
  t.stopped <- true;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.m;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

let run_seq f count =
  for i = 0 to count - 1 do
    f i
  done

let run t f count =
  if count = 0 then ()
  else if t.jobs = 1 || t.stopped || Domain.DLS.get in_task then run_seq f count
  else begin
    let job =
      { f; count; next = Atomic.make 0; completed = Atomic.make 0; failed = None }
    in
    Mutex.lock t.m;
    t.current <- Some job;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.m;
    (* The master helps; [in_task] makes any nested [run] sequential. *)
    Domain.DLS.set in_task true;
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set in_task false)
      (fun () -> chew t job);
    Mutex.lock t.m;
    while Atomic.get job.completed < job.count do
      Condition.wait t.done_cv t.m
    done;
    t.current <- None;
    let failed = job.failed in
    Mutex.unlock t.m;
    match failed with
    | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> ()
  end

let recommended_jobs () = Domain.recommended_domain_count ()

(* One process-wide pool at the host's width, created on first use.
   Callers treat it as ambient (the parallel explorer goes through
   here), so the process never accumulates parked domains per search. *)
let global_mu = Mutex.create ()
let global_pool : t option ref = ref None

let global () =
  Mutex.lock global_mu;
  let p =
    match !global_pool with
    | Some p -> p
    | None ->
        let p = create ~jobs:(recommended_jobs ()) in
        global_pool := Some p;
        p
  in
  Mutex.unlock global_mu;
  p
