(** Deterministic pseudo-random number generator (splitmix64).

    Every source of randomness in the repository goes through this module, so
    runs are reproducible from an integer seed. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. *)

val copy : t -> t
(** Independent copy with the same state. *)

val int : t -> int -> int
(** [int t bound] is uniform on [\[0, bound)]. Raises [Invalid_argument] when
    [bound <= 0]. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** Uniform on the inclusive range [\[lo, hi\]]. *)

val float : t -> float -> float
(** [float t bound] is uniform on [\[0, bound)]. *)

val bool : t -> bool

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val split : t -> t
(** Derive an independent generator (for parallel experiment streams). *)
