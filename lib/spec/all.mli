(** Monitor bundles. *)

val safety : unit -> Vsgc_ioa.Monitor.t list
(** Every safety monitor of §4 plus the environment specs — what
    monitored integration runs attach. *)

val wv_only : unit -> Vsgc_ioa.Monitor.t list
(** The monitors meaningful for the pure within-view layer. *)

val net : unit -> Vsgc_ioa.Monitor.t list
(** The service-level monitors (WV_RFIFO, VS_RFIFO, TRANS_SET, SELF)
    for networked runs: they consume only client-side actions, so one
    shared instance of each can watch a multi-executor deployment. *)

val net_selfstab : unit -> Vsgc_ioa.Monitor.t list
(** {!net} plus {!Self_spec.rejoin}: the fault layer's bundle — every
    crash must complete the §8 rejoin (DESIGN.md §13). *)

val net_arm : [ `Gcs | `Sym ] -> Vsgc_ioa.Monitor.t list
(** The battery for a deployment of the given total-order arm:
    {!net_selfstab} for the sequencer arm; for the symmetric arm
    (DESIGN.md §16) also {!Skeen_spec.monitor} — the GCS properties
    hold underneath, and the arm's deliveries must satisfy the Skeen
    condition. *)
