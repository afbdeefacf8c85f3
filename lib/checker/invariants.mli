(** Executable renderings of the paper's proof obligations.

    Each function checks one invariant of §6/§7 on a snapshot of the
    composed system's global state. The harness runs them after every
    step of randomized executions — the dynamic analogue of the paper's
    inductive proofs: the invariants must hold in every reachable state
    visited.

    Crash/recovery (§8): invariants are vacuous for crashed end-points;
    checks that reference state wiped by a restart (stream bookkeeping,
    buffered queues, recorded synchronization messages) are skipped for
    processes that have ever crashed — the paper itself notes that the
    formal treatment needs history variables "beyond the scope". *)

open Vsgc_types

exception Invariant_violation of { name : string; message : string }

type snapshot = {
  endpoints : Vsgc_core.Endpoint.t Proc.Map.t;
      (** live (non-crashed) end-point states *)
  client_block : Vsgc_core.Gcs.block_status Proc.Map.t;
      (** each live client's block status (the blocking client of
          Figure 12, whatever its core) *)
  net : Vsgc_corfifo.state;
  mbrshp : Vsgc_mbrshp.Oracle.state option;
  reborn : Proc.Set.t;  (** processes that crashed at least once *)
}

val inv_self : snapshot -> unit
(** Self-stabilization (DESIGN.md §13): every live end-point passes its
    local legitimacy guards ({!Vsgc_core.Endpoint.self_check}) — a
    failure means corrupted state survived detect-and-rejoin. *)

val inv_6_1 : snapshot -> unit
(** Self inclusion of current_view and mbrshp_view. *)

val inv_6_2 : snapshot -> unit
(** view_msg announced ⟹ reliable set covers the current members. *)

val inv_6_3 : snapshot -> unit
(** The per-pair stream of view markers is strictly increasing and
    bounded by the sender's current view (parts 1-3). *)

val inv_6_6 : snapshot -> unit
(** Invariants 6.4-6.6 condensed: every in-transit or filed application
    message matches the sender's own queue at its (view, index). *)

val inv_6_7 : snapshot -> unit
(** Received synchronization messages equal the sender's record. *)

val inv_6_8 : snapshot -> unit
(** No sync message tagged above the last issued start_change id. *)

val inv_6_9 : snapshot -> unit
(** The own pending sync message was sent in the current view. *)

val inv_6_11 : snapshot -> unit
(** End-point and client agree on the blocking status. *)

val inv_6_12 : snapshot -> unit
(** No sync message before the client is blocked. *)

val inv_6_13 : snapshot -> unit
(** The own cut covers every own message of the current view. *)

val inv_7_1 : snapshot -> unit
(** Deliveries never exceed the committed cuts. *)

val inv_7_2 : snapshot -> unit
(** Cuts refer to messages actually buffered. *)

val all : (string * (snapshot -> unit)) list
val check_all : snapshot -> unit
