(** Disjoint-set forest (union by rank, path halving). *)

type t

val create : int -> t
(** [create n] builds [n] singleton sets labelled [0 .. n-1]. *)

val of_sizes : int array -> t
(** [of_sizes w] builds [Array.length w] singleton sets, element [i]
    standing for [w.(i)] items: {!component_size} sums them.  The sets
    keep [w] as their size table, so the caller must not use it again. *)

val find : t -> int -> int
(** Canonical representative. *)

val union : t -> int -> int -> bool
(** Merge the two sets; returns [true] iff they were distinct. *)

val same : t -> int -> int -> bool

val component_size : t -> int -> int
(** Size of the set containing the element. *)

val components : t -> int
(** Current number of disjoint sets. *)
