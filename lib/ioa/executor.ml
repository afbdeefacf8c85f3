(* The composed-system executor.

   Implements the I/O-automaton composition and fairness model of the
   paper (§2): components share the action vocabulary; when an output
   action fires, every component that accepts it takes the same step
   atomically. Each locally-controlled action is its own task; the
   seeded random scheduler chooses uniformly (optionally weighted) among
   all enabled actions, which makes long executions fair with
   probability 1 — the setting in which the liveness arguments of §7
   apply.

   Scheduling is incremental (DESIGN.md §12): a component's enabled
   outputs are a pure function of its state, and its state changes only
   when it participates in a step (owner or acceptor), so [perform]
   invalidates exactly the participants and every other component's
   cached list stays valid. The candidate list is assembled from the
   per-component caches in the same order the full rescan produced, so
   the scheduler's RNG stream — and therefore every recorded schedule
   and fingerprint — is bit-identical to the rescan implementation.
   Harness code mutates component state refs directly (System.send,
   oracle moves), bypassing [perform]; every PUBLIC entry point that
   reads the cache therefore resynchronizes first, and only the internal
   run loop — where all mutation flows through [perform] — trusts the
   incremental invalidation. *)

open Vsgc_types

type mode = [ `Cached | `Rescan ]
type config = { mode : mode; sanitize : Sanitizer.policy option }

(* Parsed loudly: an unrecognized value warns, naming the accepted
   values, and keeps the default — it is never silently coerced to some
   other non-default (an unknown VSGC_SANITIZE once turned the RAISING
   sanitizer on). [VSGC_SCHED=rescan] forces the pre-cache scanning
   scheduler, which the CI fingerprint gate replays the corpus under;
   [VSGC_SANITIZE] attaches the effect sanitizer (DESIGN.md §14) to
   every executor, [collect] accumulating diagnostics and [raise]
   aborting on the first violation. *)
let config_of_env getenv =
  let warnings = ref [] in
  let warn fmt = Fmt.kstr (fun s -> warnings := s :: !warnings) fmt in
  let mode =
    match getenv "VSGC_SCHED" with
    | None | Some "" | Some "cached" -> `Cached
    | Some "rescan" -> `Rescan
    | Some s ->
        warn
          "vsgc: unrecognized VSGC_SCHED=%S (accepted: cached, rescan); \
           using cached"
          s;
        `Cached
  in
  let sanitize =
    match getenv "VSGC_SANITIZE" with
    | None | Some "" | Some "0" | Some "off" -> None
    | Some "collect" -> Some `Collect
    | Some "1" | Some "on" | Some "raise" -> Some `Raise
    | Some s ->
        warn
          "vsgc: unrecognized VSGC_SANITIZE=%S (accepted: off, 0, collect, \
           raise, on, 1); sanitizer stays off"
          s;
        None
  in
  ({ mode; sanitize }, List.rev !warnings)

let current =
  let c, warnings = config_of_env Sys.getenv_opt in
  List.iter prerr_endline warnings;
  ref c

let config () = !current

let with_config c f =
  let saved = !current in
  current := c;
  Fun.protect ~finally:(fun () -> current := saved) f

type t = {
  components : Component.packed array;
  rng : Rng.t;
  weights : Action.t -> float;
  metrics : Metrics.t;
  mode : mode;
  (* scheduling cache ([`Cached] mode) *)
  outs : (int * Action.t) list array;
      (* per component: its enabled outputs in [Component.outputs]
         order, pre-tagged with the owner index *)
  valid : bool array;
  mutable n_dirty : int;  (* components whose cached list is stale *)
  mutable n_enabled : int;  (* valid components with a non-empty list *)
  mutable cand_cache : (int * Action.t) list option;  (* assembled list *)
  mutable monitors : Monitor.t list;
  mutable trace : Action.t list;  (* reversed *)
  mutable trace_len : int;
  keep_trace : bool;
  mutable step_hooks : (Action.t -> unit) list;
  mutable choice_hooks : (int option -> Action.t -> unit) list;
  sanitizer : Sanitizer.t option;
}

let default_weights (a : Action.t) =
  (* Message loss is an adversary move: scenarios opt into it. *)
  match a with Action.Rf_lose _ -> 0.0 | _ -> 1.0

let create ?(seed = 0xC0FFEE) ?(weights = default_weights) ?(keep_trace = true)
    ?mode ?sanitize components =
  let components = Array.of_list components in
  let n = Array.length components in
  let metrics = Metrics.create () in
  let defaults = !current in
  let sanitize = Option.value sanitize ~default:defaults.sanitize in
  {
    components;
    rng = Rng.make seed;
    weights;
    metrics;
    mode = Option.value mode ~default:defaults.mode;
    outs = Array.make n [];
    valid = Array.make n false;
    n_dirty = n;
    n_enabled = 0;
    cand_cache = None;
    monitors = [];
    trace = [];
    trace_len = 0;
    keep_trace;
    step_hooks = [];
    choice_hooks = [];
    sanitizer =
      Option.map
        (fun policy -> Sanitizer.create ~policy components metrics)
        sanitize;
  }

let metrics t = t.metrics
let sanitizer t = t.sanitizer
let rng t = t.rng
let add_monitor t m = t.monitors <- m :: t.monitors
let add_step_hook t f = t.step_hooks <- f :: t.step_hooks

let add_choice_hook t f = t.choice_hooks <- f :: t.choice_hooks

let trace t = List.rev t.trace
let trace_length t = t.trace_len

let components t = t.components

(* The composition-wide footprint of [a]: the union of every
   component's declared share. Components unrelated to [a] contribute
   Footprint.empty, so this is exactly the joint step's footprint. *)
let footprint t a =
  Array.fold_left
    (fun acc c -> Footprint.union acc (Component.footprint c a))
    Footprint.empty t.components

(* The independence relation the declared footprints induce on this
   composition: two actions are independent when their composition-wide
   footprints do not interfere. The relation is state-independent (it
   depends only on the component set), so it is memoized per action. *)
let independence t =
  let cache : (Action.t, Footprint.t) Hashtbl.t = Hashtbl.create 64 in
  let fp a =
    match Hashtbl.find_opt cache a with
    | Some f -> f
    | None ->
        let f = footprint t a in
        Hashtbl.add cache a f;
        f
  in
  fun a b -> Footprint.independent (fp a) (fp b)

(* -- The candidate cache ------------------------------------------------- *)

let invalidate t i =
  if t.valid.(i) then begin
    t.valid.(i) <- false;
    if t.outs.(i) <> [] then t.n_enabled <- t.n_enabled - 1;
    t.n_dirty <- t.n_dirty + 1;
    t.cand_cache <- None
  end

(* Drop everything. Public entry points call this because harness code
   mutates component state refs directly, invisibly to [perform]. *)
let resync (t : t) =
  if t.mode <> `Rescan then begin
    Array.fill t.valid 0 (Array.length t.valid) false;
    t.n_dirty <- Array.length t.valid;
    t.n_enabled <- 0;
    t.cand_cache <- None
  end

let refresh t i =
  if t.valid.(i) then Metrics.note_cand_hits t.metrics 1
  else begin
    t.outs.(i) <-
      List.map (fun a -> (i, a)) (Component.outputs t.components.(i));
    t.valid.(i) <- true;
    t.n_dirty <- t.n_dirty - 1;
    if t.outs.(i) <> [] then t.n_enabled <- t.n_enabled + 1;
    Metrics.note_cand_misses t.metrics 1
  end

(* All enabled locally-controlled actions, tagged with owner index.

   ORDER IS LOAD-BEARING: the full rescan prepends each component's
   outputs as it scans components 0..n-1, and the weighted pick walks
   the result front to back, so the list order feeds the RNG stream.
   The cached assembly prepends the per-component lists in the same
   scan order and so produces the identical list. *)
let rescan_candidates t =
  let acc = ref [] in
  Array.iteri
    (fun i c ->
      List.iter (fun a -> acc := (i, a) :: !acc) (Component.outputs c))
    t.components;
  !acc

let candidates_internal (t : t) =
  match t.mode with
  | `Rescan -> rescan_candidates t
  | `Cached -> (
      match t.cand_cache with
      | Some l ->
          Metrics.note_cand_hits t.metrics 1;
          l
      | None ->
          let acc = ref [] in
          Array.iteri
            (fun i _ ->
              refresh t i;
              List.iter (fun p -> acc := p :: !acc) t.outs.(i))
            t.components;
          t.cand_cache <- Some !acc;
          !acc)

let candidates t =
  resync t;
  candidates_internal t

(* Perform [a] as a step of the whole composition: the owner (if any)
   and every accepting component move together; monitors observe. A
   participant's state changed, so its cached outputs are invalidated
   right here — before monitors and hooks run, so the cache is already
   consistent when a monitor raises and the explorer carries on. *)
let perform (t : t) ?owner a =
  (* Choice-point capture first: recorders must see the decision even
     when a monitor or invariant hook raises on this very step. *)
  List.iter (fun f -> f owner a) t.choice_hooks;
  (* Shadow snapshot after the decision, before any component moves:
     the sanitizer consumes no randomness and mutates nothing visible,
     so attaching it cannot perturb the schedule. *)
  (match t.sanitizer with Some s -> Sanitizer.pre s ?owner a | None -> ());
  Array.iteri
    (fun i c ->
      let is_owner = match owner with Some o -> i = o | None -> false in
      if is_owner || Component.accepts c a then begin
        Component.apply c a;
        if t.mode <> `Rescan then invalidate t i
      end)
    t.components;
  Metrics.record t.metrics a;
  if t.keep_trace then begin
    t.trace <- a :: t.trace;
    t.trace_len <- t.trace_len + 1
  end;
  (* Diff before monitors run: a monitor raising on this step must not
     hide a footprint lie the very step committed. Race replays restore
     state by value, so the cached candidate lists stay consistent. *)
  (match t.sanitizer with Some s -> Sanitizer.post s ?owner a | None -> ());
  List.iter (fun m -> m.Monitor.on_action a) t.monitors;
  List.iter (fun f -> f a) t.step_hooks

(* Inject an environment input (failure-detector event, crash, join...):
   a step of the composition in which the environment is the owner. *)
let inject t a = perform t a

let weighted_pick t cands =
  let weighted =
    List.filter_map
      (fun (i, a) ->
        let w = t.weights a in
        if w > 0.0 then Some (i, a, w) else None)
      cands
  in
  match weighted with
  | [] -> None
  | _ ->
      let total = List.fold_left (fun s (_, _, w) -> s +. w) 0.0 weighted in
      let x = Rng.float t.rng *. total in
      let rec go acc = function
        | [] -> assert false
        | [ (i, a, _) ] -> (i, a)
        | (i, a, w) :: rest ->
            if x < acc +. w then (i, a) else go (acc +. w) rest
      in
      Some (go 0.0 weighted)

(* One scheduler step against a trusted cache. The enabled-component
   count gives an O(1) no-candidates check; [weighted_pick] on an empty
   list consumed no randomness in the rescan implementation either, so
   the fast path cannot shift the RNG stream. *)
let step_internal (t : t) =
  if t.mode <> `Rescan && t.n_dirty = 0 && t.n_enabled = 0 then false
  else
    match weighted_pick t (candidates_internal t) with
    | None -> false
    | Some (i, a) ->
        perform t ~owner:i a;
        true

(* One scheduler step. Returns false when the system is quiescent (no
   enabled action has positive weight). *)
let step t =
  resync t;
  step_internal t

type outcome = Quiescent of int | Step_limit

(* Run until quiescence or until [stop] holds (checked between steps).
   One resync at entry; inside the loop all state changes flow through
   [perform], so the incremental cache is trusted. *)
let run ?(max_steps = 200_000) ?(stop = fun () -> false) t =
  resync t;
  let rec go n =
    if n >= max_steps then Step_limit
    else if stop () then Quiescent n
    else if step_internal t then go (n + 1)
    else Quiescent n
  in
  go 0

let is_quiescent (t : t) =
  resync t;
  if t.mode <> `Rescan && t.n_dirty = 0 && t.n_enabled = 0 then true
  else
    List.for_all (fun (_, a) -> t.weights a <= 0.0) (candidates_internal t)

(* Run restricted to actions satisfying [allow] (used by Sync_runner).
   Returns the number of steps taken before no allowed action remains. *)
let run_filtered ?(max_steps = 200_000) t ~allow =
  resync t;
  let rec go n =
    if n >= max_steps then n
    else
      let cands =
        List.filter (fun (_, a) -> allow a) (candidates_internal t)
      in
      match weighted_pick t cands with
      | None -> n
      | Some (i, a) ->
          perform t ~owner:i a;
          go (n + 1)
  in
  go 0

let finish t =
  (* Collect residual monitor obligations; raise on the first failure. *)
  List.iter
    (fun (m : Monitor.t) ->
      match m.at_end () with
      | [] -> ()
      | msg :: _ -> raise (Monitor.Violation { monitor = m.name; message = msg }))
    t.monitors
