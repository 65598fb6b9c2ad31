(** Deterministic, seed-driven generator combinators.

    A generator is a function of the [Rng.t] it draws from, so composing
    generators never hides state: the same generator applied to generators
    seeded identically yields identical values, which is what makes the
    fuzzer's case stream (and hence every failure) replayable. *)

open Repro_graph

type 'a t = Repro_util.Rng.t -> 'a

val spec : ?families:string list -> size:int -> Instance.spec t
(** An instance spec of roughly the given size. *)

val connected_parts : Graph.t -> parts:int -> int list list t
(** Random partition of a connected graph into at most [parts] connected,
    non-empty parts (multi-source BFS regions grown from random seeds). *)
