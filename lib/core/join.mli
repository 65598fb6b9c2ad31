(** JOIN-PROBLEM (Lemma 2): growing a partial DFS tree by the nodes of a
    marked cycle separator under the DFS-RULE.

    The per-iteration queries — anchor election, target election, attach
    bookkeeping — are slot-batched across all active components (one
    part-wise aggregation each), with the preferring forests and their
    rooted orders charged as Lemmas 9 and 11.  The testkit's
    [Reference.Join] keeps the pre-batching choreography (anchor
    aggregation + re-root + mark-path per iteration) verbatim as the
    differential oracle.

    Joins of distinct components only touch their own members, so the DFS
    driver may run them concurrently over a domain pool. *)

open Repro_graph
open Repro_congest

type state = {
  g : Graph.t;
  parent : int array;  (** -1 at the DFS root, -2 while unvisited *)
  depth : int array;  (** -1 while unvisited *)
  unvisited : int Atomic.t;  (** running count of unvisited nodes *)
}

val create : Graph.t -> root:int -> state

val in_tree : state -> int -> bool

val unvisited : state -> int
(** Number of still-unvisited nodes, maintained incrementally (O(1), where
    scanning the parent array per phase would be O(n)). *)

val component_anchor : state -> int array -> (int * int) option
(** The unvisited node of the component with the deepest visited neighbour,
    paired with that neighbour (the DFS-RULE attachment point). *)

val unvisited_components : state -> int array -> int array list
(** Connected components of the unvisited part of the member set. *)

type exec = {
  serial : bool;  (** bind the elections to the serial choreography *)
  bcast_parent : int array;  (** pipeline tree for the part-wise batches *)
  bcast_root : int;
  mutable stats : Composed.stats;  (** accumulated over all iterations *)
}

val exec_create : ?serial:bool -> state -> root:int -> exec
(** Engine-backed election mode for {!join}: every iteration's elections
    run for real as {!Repro_congest.Composed.join_elections} (or its
    [Reference] serial binding when [serial]), accumulating the executed
    statistics into [stats].  Builds a BFS pipeline tree from [root], so
    the graph must be connected.  Reads the whole graph's state per
    iteration and is NOT pool-safe: for the differential suite and the
    serial-vs-batched benchmark, never the hot path. *)

val join :
  ?rounds:Rounds.t ->
  ?exec:exec ->
  state ->
  members:int array ->
  separator:int list ->
  int
(** Add every separator node of the component to the partial tree; returns
    the number of halving iterations used (Lemma 2 bounds it by O(log n)
    per surviving path piece). *)
