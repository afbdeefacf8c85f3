(** Bounded depth-first schedule exploration with sleep-set reduction.

    Replays a schedule as a driving prefix, then enumerates every
    interleaving of the enabled locally-controlled actions up to a
    depth bound, pruning provably commuting orders with sleep sets
    driven by the footprint-derived independence relation. Backtracking is
    replay-based — rebuild from {!Sysconf} + re-run prefix and path —
    which is also exactly how a finding is later reproduced from its
    saved schedule. Every explored state is watched by the full oracle
    battery (spec monitors + §6/§7 invariants); leaves are optionally
    probed to completion (seeded settle + end-of-trace monitor
    obligations). *)

type outcome =
  | Found of Schedule.t * Replay.violation
      (** the returned schedule replays to this violation
          deterministically; its [expect] header is set accordingly *)
  | Exhausted  (** whole bounded tree explored, no violation *)
  | Run_budget  (** [max_runs] replays spent before the tree was done *)

type report = {
  outcome : outcome;
  runs : int;  (** system rebuild+replays performed *)
  states : int;  (** interior nodes visited *)
  sleep_skips : int;  (** branches pruned by the sleep set *)
}

val pp_outcome : Format.formatter -> outcome -> unit
val pp_report : Format.formatter -> report -> unit

val independence : Sysconf.t -> Vsgc_types.Action.t -> Vsgc_types.Action.t -> bool
(** [independence conf] is the commutation check used by the reduction
    for systems built from [conf]: two actions are independent when,
    over the declared footprints of every component of the
    configuration, neither one's writes interfere with the other's
    reads or writes. Memoized per action; building the relation costs
    one [Sysconf.build]. *)

val explore : ?depth:int -> ?max_runs:int -> ?probe:bool -> Schedule.t -> report
(** [explore sched] uses [sched.entries] as the driving prefix;
    [sched.expect] is ignored on input and set on the finding.
    Defaults: [depth 4], [max_runs 10_000], [probe true].

    On a multicore host the root's subtrees fan out across the shared
    domain pool ({!Vsgc_ioa.Dpool.global}, DESIGN.md §17.2), each with
    the same statically-computed sleep set {!explore_seq} would give
    it; a 1-core host runs {!explore_seq} itself. The reported finding
    is canonical: a subtree that finds a violation cancels only
    {e later} subtrees, and the lowest-index finding wins, so the
    returned schedule is the DFS-minimal one {!explore_seq} reports.
    On [Exhausted], [states] and [sleep_skips] match {!explore_seq}
    exactly; [runs] may differ (each subtree rebuilds its root instead
    of descending live, and a shared budget is spent concurrently), so
    near [max_runs] the two can disagree on [Run_budget]. *)

val explore_seq :
  ?depth:int -> ?max_runs:int -> ?probe:bool -> Schedule.t -> report
(** The one-domain depth-first search: the reference {!explore} is
    tested against. Same arguments and defaults. *)
