(** Deterministic, seed-driven generator combinators.

    A generator is a function of the [Rng.t] it draws from, so composing
    generators never hides state: the same generator applied to generators
    seeded identically yields identical values, which is what makes the
    fuzzer's case stream (and hence every failure) replayable. *)

open Repro_graph

type 'a t = Repro_util.Rng.t -> 'a

val return : 'a -> 'a t
val map : ('a -> 'b) -> 'a t -> 'b t
val bind : 'a t -> ('a -> 'b t) -> 'b t
val pair : 'a t -> 'b t -> ('a * 'b) t
val int_range : int -> int -> int t
(** Inclusive. *)

val spec : ?families:string list -> size:int -> Instance.spec t
(** An instance spec of roughly the given size. *)

val hostile_families : string list
(** The near-planar adversarial families ([Instance.hostile_families]). *)

val planar_plus_chords : seed:int -> n:int -> k:int -> Repro_embedding.Embedded.t
(** Planar grid plus [k] chords spliced into the rotations at random
    positions: tier-1 clean but non-planar (retries until Euler breaks). *)

val corrupted_rotation : seed:int -> n:int -> Repro_embedding.Embedded.t
(** Grid with two rotation entries swapped at one degree->=3 vertex. *)

val disconnected_union : seed:int -> n:int -> Repro_embedding.Embedded.t
(** Two grids with no connecting edge. *)

val connected_parts : Graph.t -> parts:int -> int list list t
(** Random partition of a connected graph into at most [parts] connected,
    non-empty parts (multi-source BFS regions grown from random seeds). *)
