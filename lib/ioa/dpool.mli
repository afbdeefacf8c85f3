(** A hand-rolled domain pool (no domainslib in the switch).

    One pool owns [jobs - 1] parked worker domains; {!run} fans one
    job's indices across the workers plus the calling domain and blocks
    until all of them are processed. Safe to call from inside a pool
    task: a nested {!run} degrades to the sequential loop, so parallel
    callers can freely compose. Its one user is the parallel schedule
    explorer ([Explorer.explore]). *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [max 0 (jobs - 1)] worker domains. [jobs] is
    clamped to at least 1; a 1-wide pool runs everything inline. *)

val run : t -> (int -> unit) -> int -> unit
(** [run t f count] evaluates [f i] for every [i] in [0 .. count - 1],
    distributed over the pool, and returns when all are done. [f] runs
    concurrently with itself: distinct indices must touch disjoint
    state. If any index raises, the exception at the {e lowest} failing
    index is re-raised here (after the job drains) — the same failure
    the sequential loop would surface first. *)

val shutdown : t -> unit
(** Join the workers. Subsequent {!run}s degrade to sequential. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware's useful
    parallelism, for sizing pools and reporting bench metadata. *)

val global : unit -> t
(** The process-wide shared pool, {!recommended_jobs} wide, created on
    first use and kept for the life of the process, so parked domains
    never accumulate per search. *)
