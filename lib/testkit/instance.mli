(** Fuzzing instances: a planar embedded graph plus the spanning-tree
    choice, fully determined by a printable four-field spec.

    The spec is the repro currency of the whole testkit: every failure is
    reported as a spec string, [of_string] rebuilds the exact instance, and
    shrinking searches the spec space (smaller [n], simpler spanning kind)
    rather than mutating graphs directly — so a shrunk counterexample is
    always replayable from one line. *)

open Repro_embedding
open Repro_tree
open Repro_core

type spec = {
  family : string;  (** generator family, e.g. ["stacked"], ["chords"] *)
  n : int;  (** requested size (the family may round it) *)
  seed : int;  (** generator seed; also seeds the oracle's input stream *)
  spanning : Spanning.kind;
}

type t = {
  spec : spec;
  emb : Embedded.t;
  config : Config.t;
      (** configuration rooted at the embedding's outer vertex, with the
          spanning tree of [spec.spanning] and the virtual root edge at
          the rotation's own starting point (the convention the Composed
          subroutines assume) *)
}

val families : string list
(** Families the fuzzer draws from: every [Gen] family plus the
    testkit-only [chords] (cycle with random non-crossing chords) and
    [caterpillar]. *)

val hostile_families : string list
(** Near-planar adversarial families the Screen layer must reject or
    flag: [xchords1]/[xchords4]/[xchords16] (planar grid plus k random
    chords spliced into the rotations), [xrot] (one corrupted rotation)
    and [xunion] (two disconnected grids).  Deliberately NOT in
    {!families}: only the [screen] oracle is defined on hostile input. *)

val is_hostile : string -> bool

val min_size : string -> int
(** Smallest [n] the family accepts (shrinking floor). *)

val planar_plus_chords : seed:int -> n:int -> k:int -> Embedded.t
(** Planar grid plus [k] random chords, each spliced into both endpoint
    rotations at a random position: tier-1 clean (the rotations stay
    permutations) but non-planar.  Retries draws until Euler's formula
    actually breaks; deterministic from [(seed, n, k)]. *)

val corrupted_rotation : seed:int -> n:int -> Embedded.t
(** A planar grid whose rotation at one vertex (degree >= 3) has two
    entries swapped — still a permutation of the adjacency, but the face
    walks no longer close a genus-0 surface. *)

val disconnected_union : seed:int -> n:int -> Embedded.t
(** Two grids with no edge between them: per-component structure is
    planar, only the connectivity screen catches it. *)

val hostile_embedded : spec -> Embedded.t
(** Dispatch over {!hostile_families}; raises [Invalid_argument] on a
    clean family. *)

val build : spec -> t
(** Deterministic: equal specs build bit-identical instances.  On a
    hostile family, [emb] is the hostile embedding and [config] is a
    placeholder built from a clean grid of the same size (configurations
    are undefined on corrupted input; only the [screen] oracle reads
    hostile instances). *)

val spanning_name : Spanning.kind -> string
val to_string : spec -> string
(** Repro line, e.g. ["stacked:60:7:rand3"]. *)

val of_string : string -> spec
(** Inverse of [to_string]; raises [Failure] on malformed input. *)

val pp : Format.formatter -> spec -> unit
