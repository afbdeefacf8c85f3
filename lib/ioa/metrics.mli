(** Execution metrics backing the benchmark tables: action counts by
    category, wire-message copies by kind (an [Rf_send] to k targets
    counts k), and communication rounds (incremented by the
    round-synchronous runner). *)

open Vsgc_types

type t

val create : unit -> t

val record : t -> Action.t -> unit
(** Called by the executor on every performed action. *)

val steps : t -> int
val rounds : t -> int
val add_round : t -> unit

val note_cand_hits : t -> int -> unit
(** Candidate-cache hits: a scheduling read served from a still-valid
    cached list (whole assembled list, or one component's). Bumped by
    the executor; never part of a trace fingerprint. *)

val note_cand_misses : t -> int -> unit
(** Candidate-cache misses: per-component enabled-output rescans. *)

val cand_hits : t -> int
val cand_misses : t -> int

val note_san_steps : t -> int -> unit
(** Steps performed with the effect sanitizer attached. Like the
    candidate-cache counters, sanitizer counters are observability
    only — never part of a trace fingerprint. *)

val note_san_diffs : t -> int -> unit
(** Per-participant shadow-state diffs computed. *)

val note_san_races : t -> int -> unit
(** Declared-independent candidate pairs replayed in both orders. *)

val note_san_violations : t -> int -> unit
(** Footprint violations reported (after deduplication). *)

val san_steps : t -> int
val san_diffs : t -> int
val san_races : t -> int
val san_violations : t -> int
val category_count : t -> Action.category -> int

val sent_count : t -> Msg.Wire.kind -> int
(** Point-to-point copies sent, by wire-message kind. *)

val sent_bytes : t -> Msg.Wire.kind -> int
(** Approximate bytes sent ({!Vsgc_types.Msg.Wire.size_bytes} × copies). *)

val delivered_count : t -> Msg.Wire.kind -> int
val pp : Format.formatter -> t -> unit
