(* System assembly: the composition of Figure 8 (a).

   n GCS end-points and their blocking clients, the CO_RFIFO service,
   and a membership service — by default the scriptable Oracle
   (spec-conformant by construction); the client-server membership
   stack of vsgc_mbrshp.Servers plugs in through [extra_components].
   Typed handles on every component state back the invariant checkers,
   scenario drivers and assertions. *)

open Vsgc_types
module Executor = Vsgc_ioa.Executor
module Sync_runner = Vsgc_ioa.Sync_runner

type t = {
  exec : Executor.t;
  procs : Proc.Set.t;
  corfifo : Vsgc_corfifo.state ref;
  oracle : Vsgc_mbrshp.Oracle.state ref option;
  endpoints : Vsgc_core.Endpoint.t ref Proc.Map.t;
  clients : Vsgc_core.Client.t ref Proc.Map.t;
  extra_budgets : (unit -> Sync_runner.budget) list;
  ever_crashed : Proc.Set.t ref;
}

type monitors = [ `All | `Wv | `None ]

let create ?(seed = 42) ?weights ?strategy ?gc ?compact_sync ?hierarchy ?mutation
    ?(layer = `Full) ?(monitors = `All)
    ?(with_oracle = true) ?(extra_components = []) ?(extra_budgets = [])
    ?endpoint_builder ?client_builder ~n () =
  let procs = Proc.Set.of_range 0 (n - 1) in
  let corfifo_c, corfifo = Vsgc_corfifo.component () in
  let oracle_pair = if with_oracle then Some (Vsgc_mbrshp.Oracle.component ()) else None in
  let endpoints, endpoint_cs =
    match endpoint_builder with
    | Some build ->
        (* custom end-points (e.g. the baseline comparator): no typed
           handles, so the §6/§7 invariant checkers are unavailable *)
        (Proc.Map.empty, Proc.Set.fold (fun p cs -> build p :: cs) procs [])
    | None ->
        Proc.Set.fold
          (fun p (m, cs) ->
            let c, r =
              Vsgc_core.Endpoint.component ?strategy ?gc ?compact_sync ?hierarchy
                ?mutation ~layer p
            in
            (Proc.Map.add p r m, c :: cs))
          procs (Proc.Map.empty, [])
  in
  let clients, client_cs =
    match client_builder with
    | Some build ->
        (* custom application components (total order, replicas):
           client-log observations are unavailable through [client] *)
        (Proc.Map.empty, Proc.Set.fold (fun p cs -> build p :: cs) procs [])
    | None ->
        Proc.Set.fold
          (fun p (m, cs) ->
            let c, r = Vsgc_core.Client.component p in
            (Proc.Map.add p r m, c :: cs))
          procs (Proc.Map.empty, [])
  in
  let components =
    (corfifo_c :: (match oracle_pair with Some (c, _) -> [ c ] | None -> []))
    @ endpoint_cs @ client_cs @ extra_components
  in
  let exec = Executor.create ~seed ?weights components in
  let ever_crashed = ref Proc.Set.empty in
  Executor.add_step_hook exec (fun a ->
      match a with
      | Action.Crash p -> ever_crashed := Proc.Set.add p !ever_crashed
      | _ -> ());
  (match monitors with
  | `All -> List.iter (Executor.add_monitor exec) (Vsgc_spec.All.safety ())
  | `Wv -> List.iter (Executor.add_monitor exec) (Vsgc_spec.All.wv_only ())
  | `None -> ());
  {
    exec;
    procs;
    corfifo;
    oracle = (match oracle_pair with Some (_, r) -> Some r | None -> None);
    endpoints;
    clients;
    extra_budgets;
    ever_crashed;
  }

let exec t = t.exec
let procs t = t.procs
let corfifo t = t.corfifo
let endpoint t p = Proc.Map.find p t.endpoints
let client t p = Proc.Map.find p t.clients

let oracle t =
  match t.oracle with
  | Some r -> r
  | None -> invalid_arg "System.oracle: system built without the oracle"

(* -- Invariant checking -------------------------------------------------- *)

(* Snapshot the composed system's global state for the invariant
   checkers. Crashed end-points are excluded (§8: the invariants hold
   whenever crashed_p is false). *)
let snapshot t : Vsgc_checker.Invariants.snapshot =
  let endpoints =
    Proc.Map.filter_map
      (fun _ r -> if Vsgc_core.Endpoint.crashed !r then None else Some !r)
      t.endpoints
  in
  let client_block =
    Proc.Map.filter_map
      (fun _ r ->
        if Vsgc_core.Client.crashed !r then None
        else Some (Vsgc_core.Client.block_status !r))
      t.clients
  in
  {
    endpoints;
    client_block;
    net = !(t.corfifo);
    mbrshp = Option.map ( ! ) t.oracle;
    reborn = !(t.ever_crashed);
  }

(* Check every invariant of §6/§7 after each [every]'th step. *)
let attach_invariants ?(every = 1) t =
  let count = ref 0 in
  Executor.add_step_hook t.exec (fun _ ->
      incr count;
      if !count mod every = 0 then Vsgc_checker.Invariants.check_all (snapshot t))

(* -- Scenario drivers --------------------------------------------------- *)

let send t p payload = Vsgc_core.Client.push (client t p) payload

let broadcast t ~senders ~per_sender =
  Proc.Set.iter
    (fun p ->
      for i = 1 to per_sender do
        send t p (Fmt.str "m-%a-%d" Proc.pp p i)
      done)
    senders

(* Script a full reconfiguration through the oracle: start_change to
   all of [set], then the agreed view. Returns the view. *)
let reconfigure ?(origin = 0) t ~set = Vsgc_mbrshp.Oracle.change (oracle t) ~origin ~set ()

let start_change t ~set = Vsgc_mbrshp.Oracle.queue_start_change (oracle t) ~set

let deliver_view ?(origin = 0) t ~set =
  Vsgc_mbrshp.Oracle.form_view (oracle t) ~origin ~set

let crash t p = Executor.inject t.exec (Action.Crash p)
let recover t p = Executor.inject t.exec (Action.Recover p)

(* -- Running ------------------------------------------------------------ *)

let run ?max_steps ?stop t = Executor.run ?max_steps ?stop t.exec

(* Run to quiescence and then discharge residual monitor obligations.
   Raises Monitor.Violation on any safety failure; raises Failure if
   the step budget is exhausted (a liveness bug in the algorithms). *)
let settle ?(max_steps = 500_000) t =
  (match Executor.run ~max_steps t.exec with
  | Executor.Quiescent _ -> ()
  | Executor.Step_limit -> failwith "System.settle: step limit reached before quiescence");
  Executor.finish t.exec

let round_budget t () =
  Sync_runner.(
    let budgets = Vsgc_corfifo.round_budget t.corfifo () :: List.map (fun f -> f ()) t.extra_budgets in
    {
      allow = (fun a -> List.exists (fun b -> b.allow a) budgets);
      consume =
        (fun a ->
          match List.find_opt (fun b -> b.allow a) budgets with
          | Some b -> b.consume a
          | None -> ());
    })

(* Round-synchronous run (see Sync_runner): returns communication
   rounds executed before [stop] held or the system went quiet. *)
let run_rounds ?max_rounds ?(stop = fun () -> false) t =
  Sync_runner.run_rounds ?max_rounds t.exec ~make_budget:(round_budget t) ~stop

(* -- Observations -------------------------------------------------------- *)

let last_view_of t p = Vsgc_core.Client.last_view !(client t p)

let all_in_view t view =
  Proc.Set.for_all
    (fun p ->
      match last_view_of t p with
      | Some (v, _) -> View.equal v view
      | None -> false)
    (View.set view)

let delivered t p = Vsgc_core.Client.delivered !(client t p)
let views_of t p = Vsgc_core.Client.views !(client t p)
