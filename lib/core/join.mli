(** JOIN-PROBLEM (Lemma 2): growing a partial DFS tree by the nodes of a
    marked cycle separator under the DFS-RULE.

    Each iteration charges its queries — anchor election, target election,
    attach bookkeeping — as slot-batched part-wise aggregations across all
    active components, with the preferring forests and their rooted orders
    charged as Lemmas 9 and 11; the host answers them one component at a
    time.  The testkit's [Reference.Join] keeps the pre-batching
    choreography (anchor aggregation + re-root + mark-path per iteration)
    and the engine-executed elections as differential oracles.

    Joins of distinct components only touch their own members, so the DFS
    driver may run them concurrently over a domain pool. *)

open Repro_graph
open Repro_congest

type state = {
  g : Graph.t;
  parent : int array;  (** -1 at the DFS root, -2 while unvisited *)
  depth : int array;  (** -1 while unvisited *)
}

val create : Graph.t -> root:int -> state

val in_tree : state -> int -> bool

val component_anchor : state -> int array -> (int * int) option
(** The unvisited node of the component with the deepest visited neighbour,
    paired with that neighbour (the DFS-RULE attachment point). *)

val unvisited_components : state -> int array -> int array list
(** Connected components of the unvisited part of the member set. *)

val join :
  ?rounds:Rounds.t ->
  state ->
  members:int array ->
  separator:int list ->
  int
(** Add every separator node of the component to the partial tree; returns
    the number of halving iterations used (Lemma 2 bounds it by O(log n)
    per surviving path piece). *)
