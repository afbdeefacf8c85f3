(** Totally ordered multicast atop the within-view reliable FIFO
    service — the construction the paper points to in §4.1.1 ("the
    totally ordered multicast algorithm of [13] is implemented atop a
    service that satisfies the WV_RFIFO specification").

    A fixed sequencer per view (the minimum member) multicasts order
    announcements through its own FIFO stream; at a view change,
    Virtual Synchrony makes the undelivered remainder identical at all
    members of the transitional set, so a deterministic flush extends
    the total order consistently across views with no extra agreement.
    Pure core; see {!Tord_client} for the component. *)

open Vsgc_types

type entry = { sender : Proc.t; index : int; payload : string }

type t

val create : Proc.t -> t
val is_sequencer : t -> bool

val view : t -> View.t
(** The view this instance currently orders within. *)

val log : t -> entry Tord_log.t
(** The totally ordered prefix — identical at every member that has
    processed the same GCS events. *)

(** {1 Wire encoding (inside opaque GCS payloads)} *)

val encode_data : string -> string
val encode_order : sender:Proc.t -> index:int -> string

val encode_order_batch : (Proc.t * int) list -> string
(** The sequencer's whole announcement backlog coalesced into one
    multicast; delivering a batch is delivering its members in order. *)

type decoded =
  | Data of string
  | Order of Proc.t * int
  | Order_batch of (Proc.t * int) list
  | Other of string

val decode : string -> decoded

(** {1 Events} *)

val on_deliver :
  t -> sender:Proc.t -> payload:string -> t * entry list * (Proc.t * int) list
(** A GCS delivery. Returns the new state, the entries that just became
    totally ordered, and the announcement pairs to multicast (non-empty
    only at the sequencer; the client layer picks the single or batched
    encoding). *)

val on_view : t -> view:View.t -> transitional:Proc.Set.t -> t * entry list
(** A GCS view. Flushes the unannounced remainder in deterministic
    (sender, index) order; returns the flushed entries. *)
