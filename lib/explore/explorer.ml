(* Bounded depth-first schedule exploration with sleep-set reduction.

   The explorer takes a schedule as a driving prefix (environment
   operations + seeded runs, typically derived from a scenario),
   replays it, then systematically enumerates every interleaving of the
   enabled locally-controlled actions up to a depth bound. Backtracking
   is replay-based: the executor offers no state snapshots, so each
   alternative is reached by rebuilding the system from its Sysconf and
   re-running prefix + path — cheap at the small configurations model
   checking targets, and exactly the mechanism that later reproduces a
   finding from its saved schedule.

   Reduction: a sleep-set variant of partial-order reduction. After a
   sibling action [a] has been fully explored at a node, [a] is added
   to the sleep set of the node's remaining children and stays asleep
   as long as every action taken commutes with it. Independence is
   derived from the components' declared read/write footprints
   ({!Vsgc_ioa.Footprint}): two actions commute when, summed over every
   component of the configuration, neither one's writes interfere with
   the other's reads or writes. This subsumes the historical hand-coded
   relation (deliveries at distinct receivers) and additionally sleeps
   e.g. [App_send]s at distinct processes and [Srv_deliver]s at
   distinct servers.

   At each leaf (and at nodes with no enabled candidates) the explorer
   optionally probes completion: a seeded run to quiescence plus the
   monitors' end-of-trace obligations, same procedure as a [Settle]
   entry. A violation surfaced anywhere — during the prefix, during a
   chosen step, or during a probe — is returned together with the
   schedule that reaches it. *)

module System = Vsgc_harness.System
module Executor = Vsgc_ioa.Executor
module Action = Vsgc_types.Action

type outcome =
  | Found of Schedule.t * Replay.violation
  | Exhausted
  | Run_budget  (* max_runs replays spent before the tree was done *)

type report = {
  outcome : outcome;
  runs : int;  (* system rebuild+replays performed *)
  states : int;  (* interior nodes visited *)
  sleep_skips : int;  (* branches pruned by the sleep set *)
}

let pp_outcome ppf = function
  | Found (s, v) ->
      Fmt.pf ppf "violation %a via %d-entry schedule" Replay.pp_violation v
        (List.length s.Schedule.entries)
  | Exhausted -> Fmt.string ppf "exhausted (no violation)"
  | Run_budget -> Fmt.string ppf "run budget spent (no violation)"

let pp_report ppf r =
  Fmt.pf ppf "%a [runs %d, states %d, sleep skips %d]" pp_outcome r.outcome r.runs
    r.states r.sleep_skips

(* Two actions commute when neither can enable, disable, or change the
   effect of the other. The relation is derived from the declared
   footprints of one freshly built instance of the configuration;
   footprints are static per action, so the instance's state never
   matters and the relation is valid at every node of the tree. *)
let independence conf =
  let sys = Sysconf.build conf in
  Executor.independence (System.exec sys)

exception Stop of Schedule.t * Replay.violation
exception Budget
exception Cancelled

let explore_seq ?(depth = 4) ?(max_runs = 10_000) ?(probe = true)
    (sched : Schedule.t) =
  let runs = ref 0 and states = ref 0 and sleep_skips = ref 0 in
  let independent = independence sched.Schedule.conf in
  let prefix = sched.Schedule.entries in
  (* Entries reaching the current node, newest first. *)
  let found path v =
    let entries = prefix @ List.rev path in
    raise
      (Stop
         ( { sched with Schedule.entries; expect = Some v.Replay.kind; name = sched.Schedule.name },
           v ))
  in
  (* Rebuild + replay up to the node [path] leads to. Any violation on
     the way ends the search: the path that raised is the finding. *)
  let rebuild path =
    if !runs >= max_runs then raise Budget;
    incr runs;
    let sys = Sysconf.build sched.Schedule.conf in
    (try Replay.replay sys (prefix @ List.rev path) with
    | e -> (
        match Replay.violation_of_exn e with
        | Some v -> found path v
        | None -> raise e));
    sys
  in
  let probe_leaf sys path =
    if probe then
      try Replay.settle_once sys with
      | e -> (
          match Replay.violation_of_exn e with
          | Some v -> found (Schedule.Settle :: path) v
          | None -> raise e)
  in
  (* Deterministic candidate order: sorted by (key, owner). Adversarial
     losses are the fairness assumption's to exclude, not the DFS's to
     enumerate. *)
  let node_candidates sys =
    Executor.candidates (System.exec sys)
    |> List.filter (fun (_, a) -> Action.category a <> Action.C_rf_lose)
    |> List.map (fun (i, a) -> (Schedule.key_of_action a, i, a))
    |> List.sort compare
  in
  (* [sys] is live at the node [path] reaches; it may be consumed by
     the first explored child (a replay-free descent), after which the
     remaining children rebuild. *)
  let rec dfs sys path d sleep =
    if d = 0 then probe_leaf sys path
    else begin
      let cands = node_candidates sys in
      if cands = [] then probe_leaf sys path
      else begin
        incr states;
        let used_live = ref false in
        let explored = ref [] in
        List.iter
          (fun (key, owner, a) ->
            if List.exists (Action.equal a) sleep then incr sleep_skips
            else begin
              (* the child may keep asleep whatever commutes with the
                 step taken: fully-explored siblings join the set *)
              let child_sleep = List.filter (independent a) (sleep @ !explored) in
              let child_path = Schedule.Choose { owner; key } :: path in
              let child_sys =
                if !used_live then rebuild child_path
                else begin
                  used_live := true;
                  (try Executor.perform (System.exec sys) ~owner a with
                  | e -> (
                      match Replay.violation_of_exn e with
                      | Some v -> found child_path v
                      | None -> raise e));
                  sys
                end
              in
              dfs child_sys child_path (d - 1) child_sleep;
              explored := a :: !explored
            end)
          cands
      end
    end
  in
  let outcome =
    try
      (match rebuild [] with
      | sys -> dfs sys [] depth []
      | exception Budget -> ());
      Exhausted
    with
    | Stop (s, v) -> Found (s, v)
    | Budget -> Run_budget
  in
  { outcome; runs = !runs; states = !states; sleep_skips = !sleep_skips }

(* -- The parallel search (DESIGN.md §17.2) -------------------------------

   The root's subtrees fan out across the domain pool, each handed the
   same statically-computed sleep set the sequential search would give
   it (the root's own sleep set is empty, so subtree [i] may keep
   asleep exactly its earlier siblings that commute with its action).
   Counters are shared atomics; the replay budget is a shared pot.

   Canonical findings: a subtree that surfaces a violation cancels only
   LATER subtrees and earlier ones run to completion, so the finding at
   the lowest subtree index is the same DFS-minimal schedule the
   sequential search reports. On [Exhausted], [states]/[sleep_skips]
   match the sequential search; [runs] may differ (each subtree
   rebuilds its root instead of descending live, and budget is spent
   concurrently). Each system a task builds is confined to that task;
   each task memoizes its own copy of the independence relation (the
   closure's cache is a plain Hashtbl, not domain-safe to share). *)

module Dpool = Vsgc_ioa.Dpool

let explore_par ~depth ~max_runs ~probe (sched : Schedule.t) =
  let runs = Atomic.make 0 in
  let states = Atomic.make 0 in
  let sleep_skips = Atomic.make 0 in
  let budget_hit = Atomic.make false in
  let stop_at = Atomic.make max_int in
  (* lowest subtree index that found a violation so far *)
  let prefix = sched.Schedule.entries in
  let found path v =
    let entries = prefix @ List.rev path in
    raise
      (Stop
         ( { sched with Schedule.entries; expect = Some v.Replay.kind; name = sched.Schedule.name },
           v ))
  in
  (* One subtree engine — the sequential [dfs] with shared counters and
     a cancellation probe checked before every replay and node. *)
  let engine ~independent ~cancelled =
    let rebuild path =
      if cancelled () then raise Cancelled;
      if Atomic.get runs >= max_runs then raise Budget;
      Atomic.incr runs;
      let sys = Sysconf.build sched.Schedule.conf in
      (try Replay.replay sys (prefix @ List.rev path) with
      | e -> (
          match Replay.violation_of_exn e with
          | Some v -> found path v
          | None -> raise e));
      sys
    in
    let probe_leaf sys path =
      if probe then
        try Replay.settle_once sys with
        | e -> (
            match Replay.violation_of_exn e with
            | Some v -> found (Schedule.Settle :: path) v
            | None -> raise e)
    in
    let node_candidates sys =
      Executor.candidates (System.exec sys)
      |> List.filter (fun (_, a) -> Action.category a <> Action.C_rf_lose)
      |> List.map (fun (i, a) -> (Schedule.key_of_action a, i, a))
      |> List.sort compare
    in
    let rec dfs sys path d sleep =
      if cancelled () then raise Cancelled;
      if d = 0 then probe_leaf sys path
      else begin
        let cands = node_candidates sys in
        if cands = [] then probe_leaf sys path
        else begin
          Atomic.incr states;
          let used_live = ref false in
          let explored = ref [] in
          List.iter
            (fun (key, owner, a) ->
              if List.exists (Action.equal a) sleep then Atomic.incr sleep_skips
              else begin
                let child_sleep =
                  List.filter (independent a) (sleep @ !explored)
                in
                let child_path = Schedule.Choose { owner; key } :: path in
                let child_sys =
                  if !used_live then rebuild child_path
                  else begin
                    used_live := true;
                    (try Executor.perform (System.exec sys) ~owner a with
                    | e -> (
                        match Replay.violation_of_exn e with
                        | Some v -> found child_path v
                        | None -> raise e));
                    sys
                  end
                in
                dfs child_sys child_path (d - 1) child_sleep;
                explored := a :: !explored
              end)
            cands
        end
      end
    in
    (rebuild, node_candidates, probe_leaf, dfs)
  in
  let report outcome =
    {
      outcome;
      runs = min (Atomic.get runs) max_runs;
      states = Atomic.get states;
      sleep_skips = Atomic.get sleep_skips;
    }
  in
  let independent0 = independence sched.Schedule.conf in
  let rebuild0, node_candidates0, probe_leaf0, _ =
    engine ~independent:independent0 ~cancelled:(fun () -> false)
  in
  match
    match rebuild0 [] with
    | sys ->
        let cands = Array.of_list (node_candidates0 sys) in
        if depth = 0 || Array.length cands = 0 then begin
          probe_leaf0 sys [];
          Exhausted
        end
        else begin
          Atomic.incr states;
          let acts = Array.map (fun (_, _, a) -> a) cands in
          let sleeps =
            Array.mapi
              (fun i (_, _, a) ->
                List.filter (independent0 a)
                  (Array.to_list (Array.sub acts 0 i)))
              cands
          in
          let findings = Array.make (Array.length cands) None in
          let task i =
            let key, owner, _ = cands.(i) in
            let cancelled () = i > Atomic.get stop_at in
            let independent = independence sched.Schedule.conf in
            let rebuild, _, _, dfs = engine ~independent ~cancelled in
            let path = [ Schedule.Choose { owner; key } ] in
            match dfs (rebuild path) path (depth - 1) sleeps.(i) with
            | () -> ()
            | exception Stop (s, v) ->
                findings.(i) <- Some (s, v);
                let rec lower () =
                  let cur = Atomic.get stop_at in
                  if i < cur && not (Atomic.compare_and_set stop_at cur i)
                  then lower ()
                in
                lower ()
            | exception Budget -> Atomic.set budget_hit true
            | exception Cancelled -> ()
          in
          Dpool.run (Dpool.global ()) task (Array.length cands);
          match Array.find_map Fun.id findings with
          | Some (s, v) -> Found (s, v)
          | None -> if Atomic.get budget_hit then Run_budget else Exhausted
        end
    (* parity with the sequential search: a budget hit on the very
       first (root) replay reports the empty tree as exhausted *)
    | exception Budget -> Exhausted
  with
  | outcome -> report outcome
  | exception Stop (s, v) -> report (Found (s, v))
  | exception Budget -> report Run_budget

(* The width is the host's: measured on 2 cores, the parallel search
   beats the sequential one on every tree tried (EXPERIMENTS.md E19),
   and a 1-core host keeps the sequential reference. *)
let explore ?(depth = 4) ?(max_runs = 10_000) ?(probe = true)
    (sched : Schedule.t) =
  if Dpool.recommended_jobs () <= 1 then explore_seq ~depth ~max_runs ~probe sched
  else explore_par ~depth ~max_runs ~probe sched
