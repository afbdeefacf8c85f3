(** Symmetric (logical-timestamp) totally ordered multicast atop the
    within-view reliable FIFO service — the other endpoint of the
    adaptive protocol of [13] that the paper cites (§4.1.1), next to
    the sequencer-based {!Tord_core}.

    The total order is (Lamport timestamp, sender); an entry delivers
    once every view member has been heard at or beyond its timestamp
    (per-sender timestamps are strictly increasing, so nothing earlier
    can still arrive). Silent members owe acknowledgments; at a view
    change the undeliverable remainder flushes in (timestamp, sender)
    order, identical at all transitional-set members by Virtual
    Synchrony, and every member then announces the boundary with a
    {!Vsgc_wire.Sym_msg.Flush} broadcast ({!flush_stamp}).

    Traffic is binary: {!Vsgc_wire.Sym_msg} inside opaque GCS
    application payloads. *)

open Vsgc_types

type entry = { ts : int; sender : Proc.t; payload : string }

val entry_compare : entry -> entry -> int
(** The total order: (timestamp, sender), lexicographic. *)

type t

val create : Proc.t -> t
val me : t -> Proc.t

val view : t -> View.t
(** The current view (whose id a {!flush_stamp} announces). *)

val log : t -> entry Tord_log.t
(** The delivered totally ordered prefix. *)

val flush_digest : entry list -> string
(** Fingerprint of a flushed chunk (position, timestamp, sender and
    payload of every entry) — what a Flush message announces so the
    Skeen monitor can compare transitional-set members. *)

(** {1 Events}

    Broadcast timestamps must increase in wire order, so stamping
    coincides with the actual send: both {!stamp} and {!flush_stamp}
    are called at the moment the message goes out. *)

val stamp : t -> string -> t * string
(** Timestamp and encode a data payload for sending NOW. *)

val ack_due : t -> bool
(** Peers may be waiting to hear from this process (it has seen a
    timestamp above everything it broadcast). Queued data and owed
    flushes supersede the acknowledgment. *)

val ack_payload : t -> string
val ack_sent : t -> t

val flush_stamp : t -> digest:string -> t * string
(** Encode the view-change boundary announcement: a Flush carrying a
    fresh timestamp, the current view id and the flushed-chunk
    [digest]. Counts as a broadcast (it seeds the new view's heard
    maps). *)

val on_deliver : t -> sender:Proc.t -> payload:string -> t * entry list
(** A GCS delivery; returns the newly totally ordered entries. *)

val on_view : t -> view:View.t -> transitional:Proc.Set.t -> t * entry list
(** A GCS view: flush the remainder deterministically. The caller owes
    a {!flush_stamp} broadcast in the new view. *)
