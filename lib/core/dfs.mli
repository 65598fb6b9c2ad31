(** Deterministic distributed DFS in planar graphs (Theorem 2). *)

open Repro_embedding
open Repro_tree
open Repro_congest

type result = {
  parent : int array; (** -1 at the root *)
  depth : int array;
  phases : int; (** recursion depth; O(log n) *)
  max_join_iterations : int;
  phase_log : (int * int * int) list;
      (** per phase: #components, largest component, max join iterations *)
  separator_phases : (string * int) list;
      (** histogram of the separator phases that fired *)
}

val run :
  ?rounds:Rounds.t ->
  ?spanning:Spanning.kind ->
  ?pool:Repro_util.Pool.t ->
  ?backend:Backend.t ->
  ?small_part_cutoff:int ->
  Embedded.t ->
  root:int ->
  result
(** The per-phase separator and join batches are distributed over [pool]
    when given; results and charged rounds are independent of the pool size
    (per-part round ledgers are merged in part-index order, charging each
    batch its heaviest part).

    Separators are computed by [backend] (default: the registry's
    ["congest"] backend — bit-identical to the pre-registry pipeline).
    When [small_part_cutoff] is given, components at or below that size
    dispatch to the first registered centralized backend instead (or to
    [backend] when none is registered), charged their O(part) collect
    cost and visible as distinct [backend.<name>] trace spans. *)

val verify : Embedded.t -> root:int -> result -> bool
(** DFS-tree check: spanning, rooted correctly, and every non-tree edge
    joins an ancestor–descendant pair. *)
