(** The effect audit (vet pass "effects") — the static half of the
    footprint honesty certificate (DESIGN.md §14; the dynamic half is
    {!Vsgc_ioa.Sanitizer}).

    Checks: [coarse-fallback] (component still on the sound-but-useless
    {!Vsgc_ioa.Footprint.coarse} default, unless whitelisted with a
    reason), [writeless-output]/[readless-output] (the emit signature
    cross-checked against the declared footprint over the
    representative {!Universe}), [write-gap] (footprint totality: every
    shadow slice a component exposes along a driven run must be covered
    by some participating action's declared writes), and
    [inherit-footprint] (a child layer of the WV <- VS <- Full tower
    must cover the parent's footprint on every action).

    Over-declaration — a footprint for an action the component never
    participates in — is deliberately not flagged: it only adds
    interference, which is sound and sometimes deliberate. *)

type domains = (string, Vsgc_ioa.Footprint.loc list) Hashtbl.t
(** Observed shadow-slice domain per component name, accumulated by
    {!sample_domains} along a run. *)

val sample_domains : domains -> Vsgc_ioa.Component.packed array -> unit

val static :
  universe:Vsgc_types.Action.t list ->
  Vsgc_ioa.Component.packed list ->
  Diag.t list
(** The signature checks (coarse-fallback, writeless/readless-output). *)

val write_gap :
  universe:Vsgc_types.Action.t list ->
  domains:domains ->
  Vsgc_ioa.Component.packed list ->
  Diag.t list
(** The totality check over sampled domains. *)

val audit :
  ?steps:int ->
  universe:Vsgc_types.Action.t list ->
  Vsgc_ioa.Component.packed list ->
  Diag.t list
(** Drive an ad-hoc composition for [steps] (default 50) seeded
    scheduler steps, sampling domains each step, then run the
    signature and totality checks — the fixture/test entry point. *)

val layer : ?n:int -> Vsgc_core.Endpoint.layer -> Diag.t list
(** Audit one Sysconf layer along the linter's scripted scenario. *)

val server_stack : ?n_clients:int -> ?n_servers:int -> unit -> Diag.t list
(** Audit the client-server membership stack (Figure 1). *)

val kv_stack :
  ?n:int ->
  (module Vsgc_replication.Replica.S with type t = 'r) ->
  (Vsgc_types.Proc.t -> Vsgc_ioa.Component.packed * 'r ref) ->
  Diag.t list
(** Audit the KV service stack: Full end-point + a strict replica of
    the given instance, built by the given constructor, per process
    (DESIGN.md §15, §16), under ordered writes, a partial view change
    and a crash/recovery. *)

val inherit_footprints : ?n:int -> unit -> Diag.t list
(** The inheritance cross-check over the end-point tower. *)

val all : unit -> (string * Diag.t list) list
(** Every shipped composition, as the vet driver runs them. *)
