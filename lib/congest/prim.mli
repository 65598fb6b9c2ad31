(** Message-level CONGEST primitives (real executions in the engine).

    These are the executable counterparts of the black-box primitives that
    the charged mode models: BFS-tree construction, subtree and ancestor
    aggregation (a tree broadcast is the ancestor sum of a root-only
    value), the one-round neighbour exchange, and pipelined part-wise
    aggregation in O(depth + #parts · k) rounds for k value slots. *)

open Repro_graph

type op = Sum | Min | Max

val apply : op -> int -> int -> int

(** {2 Engine programs}

    The underlying [Engine.PROGRAM] modules, exposed so that the
    differential suite (test/engine_equiv.ml) and the engine
    micro-benchmark (E12) can run the very same programs through both
    [Engine.Make] and the testkit's dense [Reference.Engine.Make].  Their
    [finished] predicates are quiescence predicates: true whenever a node
    would take no action on an empty inbox (see prim.ml). *)

module Bfs_program : sig
  include Engine.PROGRAM with type input = bool and type output = int * int
end

module Subtree_program : sig
  type input = { parent : int; value : int; op : op }

  include Engine.PROGRAM with type input := input and type output = int
end

module Ancestor_program : sig
  type input = { parent : int; value : int; op : op }

  include Engine.PROGRAM with type input := input and type output = int
end

module Exchange_program : sig
  include
    Engine.PROGRAM
      with type input = (int * int) list
       and type output = (int * int) list
end

(** k part-wise aggregations sharing one partition in one pipelined run:
    the k per-part streams interleave over composite keys
    [part * k + slot].  Output: the k aggregates of the node's own part.
    {!partwise} runs it with one slot, [Collective.partwise_batch] with
    k. *)
module Partwise_program : sig
  type input = {
    parent : int;
    part : int;
    values : int array;  (** length >= k: this node's per-slot value *)
    ops : op array;  (** length exactly k *)
  }

  include Engine.PROGRAM with type input := input and type output = int array
end

val bfs_tree :
  Graph.t ->
  root:int ->
  (int array * int array) * Engine.stats
(** Parents ([-1] at root) and distances, by flooding. The graph must be
    connected. *)

val bfs_forest :
  Graph.t ->
  roots:bool array ->
  (int array * int array) * Engine.stats
(** Multi-source flooding: a BFS forest covering every vertex reachable from
    some root (each root gets parent [-1]). *)

val subtree_agg :
  Graph.t ->
  parent:int array ->
  op:op ->
  values:int array ->
  int array * Engine.stats
(** Every node learns the aggregate of its subtree in the given spanning
    tree (DESCENDANT-SUM-PROBLEM). *)

val ancestor_agg :
  Graph.t ->
  parent:int array ->
  op:op ->
  values:int array ->
  int array * Engine.stats
(** Every node learns the aggregate of the values on its root path (itself
    included) — the ANCESTOR-SUM-PROBLEM of Proposition 5, as a downcast. *)

val broadcast :
  Graph.t ->
  parent:int array ->
  root:int ->
  value:int ->
  int array * Engine.stats
(** Every node learns the root's value (over tree edges): the ancestor
    sum of [value] at [root] and 0 elsewhere. *)

val exchange :
  Graph.t ->
  sends:(int * int) list array ->
  (int * int) list array * Engine.stats
(** One synchronous round: node [v] sends [sends.(v)] (neighbour, value)
    pairs and receives the pairs addressed to it. *)

val partwise :
  Graph.t ->
  parent:int array ->
  op:op ->
  parts:int array ->
  values:int array ->
  int array * Engine.stats
(** Part-wise aggregation: every node learns the aggregate of the values of
    its own part.  One slot of [Partwise_program], pipelined over the given
    global spanning tree; runs in O(depth + #parts) rounds. *)
