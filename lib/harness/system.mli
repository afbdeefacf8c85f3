(** System assembly: the composition of the paper's Figure 8 (a).

    [n] GCS end-points with their blocking clients, the CO_RFIFO
    service, and a membership service — by default the scriptable,
    spec-conformant Oracle; the client-server stack plugs in through
    {!Server_system}. Typed handles on every component state back the
    invariant checkers, scenario drivers, and assertions. *)

open Vsgc_types
module Executor = Vsgc_ioa.Executor
module Sync_runner = Vsgc_ioa.Sync_runner

type t

type monitors = [ `All | `Wv | `None ]

val create :
  ?seed:int ->
  ?weights:(Action.t -> float) ->
  ?strategy:Vsgc_core.Forwarding.kind ->
  ?gc:bool ->
  ?compact_sync:bool ->
  ?hierarchy:int ->
  ?mutation:Vsgc_core.Vs_rfifo_ts.mutation ->
  ?layer:Vsgc_core.Endpoint.layer ->
  ?monitors:monitors ->
  ?with_oracle:bool ->
  ?extra_components:Vsgc_ioa.Component.packed list ->
  ?extra_budgets:(unit -> Sync_runner.budget) list ->
  ?endpoint_builder:(Proc.t -> Vsgc_ioa.Component.packed) ->
  ?client_builder:(Proc.t -> Vsgc_ioa.Component.packed) ->
  n:int ->
  unit ->
  t
(** Build a monitored system over processes 0..n-1. [endpoint_builder]
    substitutes custom end-points (e.g. the baseline comparator) — the
    invariant checkers then have no typed handles; [client_builder]
    substitutes application components (total order, replicas) — the
    client-log observations are then unavailable. *)

val exec : t -> Executor.t
val procs : t -> Proc.Set.t
val corfifo : t -> Vsgc_corfifo.state ref
val endpoint : t -> Proc.t -> Vsgc_core.Endpoint.t ref
val client : t -> Proc.t -> Vsgc_core.Client.t ref
val oracle : t -> Vsgc_mbrshp.Oracle.state ref
(** @raise Invalid_argument if built with [with_oracle:false]. *)

(** {1 Invariant checking} *)

val snapshot : t -> Vsgc_checker.Invariants.snapshot
val attach_invariants : ?every:int -> t -> unit
(** Check every §6/§7 invariant after each [every]'th step (default 1). *)

(** {1 Scenario drivers} *)

val send : t -> Proc.t -> string -> unit
val broadcast : t -> senders:Proc.Set.t -> per_sender:int -> unit

val reconfigure : ?origin:int -> t -> set:Proc.Set.t -> View.t
(** Script a full reconfiguration through the oracle: start_change to
    all of [set], then the agreed view. *)

val start_change : t -> set:Proc.Set.t -> View.Sc_id.t Proc.Map.t
val deliver_view : ?origin:int -> t -> set:Proc.Set.t -> View.t
val crash : t -> Proc.t -> unit
val recover : t -> Proc.t -> unit

(** {1 Running} *)

val run : ?max_steps:int -> ?stop:(unit -> bool) -> t -> Executor.outcome

val settle : ?max_steps:int -> t -> unit
(** Run to quiescence and discharge residual monitor obligations.
    @raise Vsgc_ioa.Monitor.Violation on any safety failure.
    @raise Failure if the step budget runs out (a liveness bug). *)

val round_budget : t -> unit -> Sync_runner.budget
(** The combined per-round delivery allowance over all transports. *)

val run_rounds : ?max_rounds:int -> ?stop:(unit -> bool) -> t -> int
(** Round-synchronous run; returns communication rounds executed. *)

(** {1 Observations} *)

val last_view_of : t -> Proc.t -> (View.t * Proc.Set.t) option
val all_in_view : t -> View.t -> bool
(** Every member's latest client view is exactly this view. *)

val delivered : t -> Proc.t -> (Proc.t * Msg.App_msg.t) list
val views_of : t -> Proc.t -> (View.t * Proc.Set.t) list
