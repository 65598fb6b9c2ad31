(** Batched convergecast/broadcast collectives over a communication tree.

    A [ctx] fixes a communication tree once (parents, root) and
    accumulates execution statistics, so the composed subroutines of
    Section 5.2 stop hand-rolling their own convergecast/broadcast
    choreography and stats plumbing; a one-run {!Prim} primitive joins
    the tally through {!record}.  The batched collectives multiplex k
    independent scalar collectives into a single pipelined engine run
    with k payload slots — O(depth + k) rounds instead of k · O(depth),
    which is the executable counterpart of the shortcut pipelining the
    paper cites for its Õ(D) bounds. *)

open Repro_graph

type stats = {
  rounds : int;
  messages : int;
  max_edge_bits : int;
  total_bits : int;
  engine_runs : int;  (** number of engine invocations *)
  collectives : int;  (** logical collective ops (a k-batch counts k) *)
}
(** Full engine statistics ([Engine.stats], nothing dropped) plus the
    execution observability counters. *)

val no_stats : stats
val add : stats -> stats -> stats

val of_engine : ?collectives:int -> Engine.stats -> stats
(** One engine run's statistics as a tally increment (default: one
    logical collective). *)

(** {2 Engine program}

    Exposed so the differential suite (test/engine_equiv.ml) can run it
    through both [Engine.Make] and the testkit's dense
    [Reference.Engine.Make], like the programs in {!Prim}. *)

(** k convergecast+broadcast slots in one pipelined run over a tree.
    Slot values stream up in ascending slot order, one per edge per
    round; the root completes slots in order and pipelines the results
    back down.  k is globally known ([Array.length ops]), so no Done
    control messages are needed.  Output: the k results, at every
    node. *)
module Collect_program : sig
  type input = {
    parent : int;
    slots : int array;  (** per-slot contribution; length >= k *)
    ops : Prim.op array;  (** length exactly k *)
  }

  include Engine.PROGRAM with type input := input and type output = int array
end

(** {2 The context} *)

type ctx

val create : Graph.t -> parent:int array -> root:int -> ctx
(** A collective context over a spanning tree given as parent pointers
    ([-1] at [root]).  Builds no messages; the tree schedule is implicit
    in the pipelined programs. *)

val tally : ctx -> stats
(** Statistics accumulated by every run issued or recorded on this ctx. *)

val reset : ctx -> unit

val record : ?collectives:int -> ctx -> Engine.stats -> unit
(** Fold one externally-run engine execution — a {!Prim} primitive, on
    this ctx's tree or another — into the tally. *)

(** {2 Batched collectives (k slots, one engine run)} *)

val agg_batch : ctx -> op:Prim.op -> int array array -> int array
(** [agg_batch ctx ~op [|vals_0; ...; vals_(k-1)|]] runs k whole-graph
    reductions and broadcasts all k results in one pipelined run:
    O(depth + k) rounds.  Returns the k global aggregates. *)

val learn_batch : ctx -> (int * int) array -> int array
(** [learn_batch ctx [|(src_0, x_0); ...|]]: k scalar learns (every node
    learns [x_i], held by [src_i]) in one pipelined run.  Values must be
    non-negative (the shared bottom element is [-1]).  Non-source nodes
    share one scratch buffer from the ctx instead of allocating an O(n)
    indicator array per scalar. *)

val learn : ctx -> source:int -> value:int -> int
(** Scalar learn: one-slot [learn_batch]. *)

val partwise_batch :
  ctx ->
  bcast_parent:int array ->
  op:Prim.op ->
  parts:int array ->
  int array array ->
  int array array
(** k part-wise aggregations over one partition in one pipelined run of
    [Prim.Partwise_program] with k slots over [bcast_parent] (usually the
    BFS tree, so the pipeline pays depth_BFS).  Returns k arrays: result
    [j].(v) is the slot-j aggregate of v's part. *)
