(** The composed-system executor.

    Implements I/O-automaton composition and the fairness model of the
    paper's §2: components share the action vocabulary; when an output
    fires, every accepting component takes the same step atomically.
    Each locally-controlled action is its own task; the seeded random
    scheduler picks (optionally weighted) among all enabled actions,
    which makes long executions fair with probability 1 — the setting
    of the §7 liveness arguments. *)

open Vsgc_types

type t

type mode = [ `Cached | `Rescan ]
(** Scheduling implementation. [`Cached] (the default) keeps each
    component's enabled-output list and invalidates it only when the
    component participates in a step; [`Rescan] recomputes every list
    on every scheduling decision — the pre-cache implementation, kept
    as the behavioural reference. The two are bit-identical in RNG
    stream, trace and fingerprint; CI replays the schedule corpus
    under both and diffs the fingerprints. *)

(** {1 Configuration} *)

type config = { mode : mode; sanitize : Sanitizer.policy option }
(** What {!create} uses when [?mode] / [?sanitize] are omitted. *)

val config_of_env : (string -> string option) -> config * string list
(** Read [VSGC_SCHED] ([cached], [rescan]; unset or empty means
    [cached]) and [VSGC_SANITIZE] ([off]/[0]/empty, [collect],
    [raise]/[on]/[1]) through the given lookup. An unrecognized value
    keeps that field's default and adds one warning naming the
    accepted values — nothing is silently coerced. *)

val config : unit -> config
(** The current defaults: the process environment, parsed once at
    startup (its warnings go to stderr then), unless an enclosing
    {!with_config} installed another record. *)

val with_config : config -> (unit -> 'a) -> 'a
(** [with_config c f] runs [f] with [c] as the defaults and restores
    the previous ones on exit, even when [f] raises. *)

val default_weights : Action.t -> float
(** Weight 1.0 for everything except the adversary move [Rf_lose]
    (weight 0: scenarios opt into message loss). *)

val create :
  ?seed:int ->
  ?weights:(Action.t -> float) ->
  ?keep_trace:bool ->
  ?mode:mode ->
  ?sanitize:Sanitizer.policy option ->
  Component.packed list ->
  t
(** [mode] and [sanitize] default to the fields of {!config}.
    [sanitize] attaches the effect sanitizer (pass [Some None] to force
    it off). A sanitized run is fingerprint-identical to an
    unsanitized one. *)

val metrics : t -> Metrics.t
val rng : t -> Rng.t

val sanitizer : t -> Sanitizer.t option
(** The attached effect sanitizer, if any — query it for accumulated
    footprint diagnostics after a [`Collect]-policy run. *)

val add_monitor : t -> Monitor.t -> unit
(** Attach a specification monitor; it observes every subsequent step
    and raises {!Monitor.Violation} on non-conformance. *)

val add_step_hook : t -> (Action.t -> unit) -> unit
(** Attach an arbitrary per-step observer (e.g. invariant checking). *)

val add_choice_hook : t -> (int option -> Action.t -> unit) -> unit
(** Attach a choice-point observer: called on every {!perform} with the
    owning component's index ([None] for environment injections),
    {e before} components move and monitors observe — so a schedule
    recorder captures the decision even when the step itself raises.
    The explorer ({!module:Vsgc_explore} in the growth tree) uses this
    to turn any execution into a replayable schedule. *)

val trace : t -> Action.t list
(** The trace so far, oldest first (empty if [keep_trace:false]). *)

val trace_length : t -> int

val components : t -> Component.packed array
(** The composition, in owner-index order (shared, not a copy). *)

val footprint : t -> Action.t -> Footprint.t
(** The composition-wide footprint of an action: the union of every
    component's declared share of the joint step. *)

val independence : t -> Action.t -> Action.t -> bool
(** The independence relation the declared footprints induce on this
    composition (memoized; state-independent). Independent actions
    commute: performing them in either order reaches the same state,
    and neither enables or disables the other. *)

val candidates : t -> (int * Action.t) list
(** All enabled locally-controlled actions, tagged with owner index.
    Safe against out-of-band state mutation: harness code that writes
    component state refs directly (bypassing {!perform}) is picked up
    because every public read resynchronizes the scheduling cache. *)

val perform : t -> ?owner:int -> Action.t -> unit
(** Execute one step of the composition: the owner (if any) and every
    accepting component move together; monitors and hooks observe. *)

val inject : t -> Action.t -> unit
(** Perform an environment input (failure-detector event, crash, ...). *)

val step : t -> bool
(** One scheduler step; [false] when quiescent (no enabled action has
    positive weight). *)

type outcome = Quiescent of int | Step_limit

val run : ?max_steps:int -> ?stop:(unit -> bool) -> t -> outcome
(** Run until quiescence, [stop] (checked between steps), or the step
    budget. *)

val is_quiescent : t -> bool

val run_filtered : ?max_steps:int -> t -> allow:(Action.t -> bool) -> int
(** Run restricted to actions satisfying [allow]; returns steps taken
    (the round-synchronous runner's entry point). *)

val finish : t -> unit
(** Discharge residual monitor obligations ([at_end]); raises
    {!Monitor.Violation} on the first failure. *)
