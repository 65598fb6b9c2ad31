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
  Embedded.t ->
  root:int ->
  result
(** The per-phase separator and join batches are distributed over [pool]
    when given; results and charged rounds are independent of the pool size
    (per-part round ledgers are merged in part-index order, charging each
    batch its heaviest part).

    Each component of more than three nodes takes its separator from
    [backend.find] (default ["congest"]); {!Backend.fast_path} sends the
    small ones to ["lt-level"].  The result's [parent] and [depth] are the
    arrays the run built, not copies. *)

val verify : Embedded.t -> root:int -> result -> bool
(** DFS-tree check: spanning, rooted correctly, and every non-tree edge
    joins an ancestor–descendant pair. *)
