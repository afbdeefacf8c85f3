(** Deterministic pseudo-random source (splitmix64).

    Every executor run is reproducible from one integer seed; all
    randomness in the reproduction flows through this module. *)

type t

val make : int -> t
(** [make seed] is a fresh generator. Equal seeds give equal streams. *)

val next_int64 : t -> int64
(** The next raw 64-bit output (advances the state). *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bool : t -> bool

val pick : t -> 'a list -> 'a
(** Uniform choice. @raise Invalid_argument on the empty list. *)

val shuffle : t -> 'a list -> 'a list
(** Fisher-Yates permutation. *)
