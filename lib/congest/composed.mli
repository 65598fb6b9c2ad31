(** Composed message-level subroutines of Section 5.2.

    Given the Phase-1 data at every node (parent, depth, LEFT order, subtree
    size — the distributed spanning-tree representation the paper assumes),
    the LCA and MARK-PATH subroutines decompose into a constant number of
    broadcasts and aggregations; this module executes that decomposition in
    the synchronous engine and returns genuinely measured statistics.

    All communication goes through the collective layer ({!Collective}):
    each subroutine builds one communication-tree context and ships its
    scalar broadcasts as slots of batched, pipelined collectives —
    O(depth + k) rounds for k scalars instead of k · O(depth).  The
    pre-refactor choreography (one engine run per scalar hop) is kept in
    {!Reference} as the oracle for the differential suite: outputs are
    bit-identical, only the execution schedule differs. *)

open Repro_graph

type tree_knowledge = {
  parent : int array;  (** -1 at the root *)
  depth : int array;
  pi_left : int array;
  size : int array;
  root : int;
      (** the unique node with parent -1, stored so the composed
          subroutines never re-derive it with an O(n) scan *)
}

type stats = Collective.stats = {
  rounds : int;
  messages : int;
  max_edge_bits : int;
  total_bits : int;
  engine_runs : int;
  collectives : int;
}
(** Execution statistics are the collective layer's tally: full engine
    counters plus the [engine_runs]/[collectives] observability pair. *)

type orders = { pi_left : int array; pi_right : int array }

val dfs_orders :
  Graph.t ->
  children:int array array ->
  parent:int array ->
  depth:int array ->
  root:int ->
  orders * int * stats
(** DFS-ORDER-PROBLEM (Lemma 11), executed: fragment merging with depth
    halving, every phase built from one-round neighbour exchanges and ONE
    three-slot part-wise broadcast in the engine.  [children] lists each
    node's tree children in clockwise rotation order.  Returns the
    LEFT/RIGHT orders, the number of merging phases (O(log n)) and the
    measured statistics. *)

type local_view = {
  lparent : int array;
  ldepth : int array;
  lsize : int array;
  lrot : int array array;  (** full clockwise neighbour order *)
  lchildren : int array array;  (** tree children, clockwise *)
  lpi_l : int array;
  lpi_r : int array;
}

val phase1 :
  Graph.t ->
  rot_orders:int array array ->
  parent:int array ->
  depth:int array ->
  root:int ->
  local_view * stats
(** Phase 1 of the separator algorithm, executed: from purely local data
    (parent pointers, depths, rotations) to the full local view — children
    in rotation order, subtree sizes, LEFT/RIGHT positions. *)

val separator_phase3 :
  Graph.t ->
  rot_orders:int array array ->
  parent:int array ->
  depth:int array ->
  root:int ->
  ((int * int) * bool array) option * stats
(** End-to-end executed separator for the Phase-3 case: when some real
    fundamental face has weight in [n/3, 2n/3] (Lemma 5), returns the
    elected edge and the marked border path; [None] when no face is in
    range (the remaining phases fall back to the charged-model search).
    The Phase-1 BFS tree is reused for the election pipeline. *)

val join_elections :
  Graph.t ->
  bcast_parent:int array ->
  root:int ->
  parts:int array ->
  visited_depth:int array ->
  marked:bool array ->
  forest:(int array array -> int array) ->
  attach:(int array -> int array * int array) ->
  (int array array * int array * int array) * stats
(** One JOIN iteration (Lemma 2), executed: the per-component election
    scalars for every active component at once, as slot-batched part-wise
    MAX aggregations over the component partition [parts] pipelined along
    [bcast_parent] — a two-slot anchor/marked batch, a one-slot target
    batch, and a two-slot whole-graph SUM of post-attach bookkeeping.
    [visited_depth] is the partial-tree depth (-1 if unvisited); candidate
    codes are formed node-locally after one one-round depth exchange, and
    MAX realises the host tie-breaks (deepest endpoint then
    lexicographically smallest edge; deepest marked node then first in
    component order).  [forest] and [attach] are host callbacks between
    the batches: rooting the preferring forests at the decoded anchors
    (returning the node-local target codes), then activating the elected
    paths (returning the node-local still-marked / still-unvisited bits).
    Returns the anchor/marked rows, the target row and the two sums. *)

val weights :
  Graph.t ->
  local_view ->
  ((int * int) * int) list * stats
(** WEIGHTS-PROBLEM (Lemma 12), executed: the weight of every real
    fundamental face (Definition 2), computed by the edge endpoints from
    node-local data plus six one-round exchanges across the fundamental
    edges themselves.  Edges are normalized ([pi_left u < pi_left v]). *)

val lca :
  Graph.t ->
  tree_knowledge ->
  u:int ->
  v:int ->
  int * stats
(** LCA-PROBLEM (Lemma 14): the LCA of u and v, learned by every node.
    Two batched engine runs (endpoint positions, then the depth-MAX). *)

val mark_path :
  Graph.t ->
  tree_knowledge ->
  u:int ->
  v:int ->
  bool array * stats
(** MARK-PATH-PROBLEM (Lemma 13): for every node, whether it lies on the
    tree path between u and v.  Three batched engine runs. *)

type face_membership = { border : bool array; inside : bool array }

val detect_face :
  Graph.t ->
  local_view ->
  u:int ->
  v:int ->
  face_membership * stats
(** DETECT-FACE-PROBLEM (Lemma 15), executed: border and interior
    membership of the fundamental face of a real fundamental edge, decided
    locally at every node.  All twelve decision scalars ride the MARK-PATH
    batches: still three engine runs in total. *)

val spanning_forest :
  Graph.t ->
  ?parts:int array ->
  unit ->
  (int array * int array * int array) * int * stats
(** Borůvka spanning forests (Lemma 9), executed: with [parts], a spanning
    tree of every part in parallel (0/1 edge weights, stopping before any
    cross-part edge); without, a spanning tree per connected component.
    Returns (parent, depth, fragment id), the number of Borůvka phases
    (O(log n)) and the measured statistics. *)

val screen_tally :
  Graph.t ->
  root:int ->
  sums:int array array ->
  mins:int array array ->
  int array * int array * int * stats
(** Screening collective (input screen, Levi–Medina–Ron spirit),
    executed: one BFS flood from [root] (doubling as the connectivity
    probe and the communication tree), then the per-vertex [sums] /
    [mins] rows ride the slots of one part-wise Sum and one part-wise
    Min pipeline over the whole graph — Õ(D) total.  Returns the
    per-row Sum results, the per-row Min results, the number of vertices
    the flood reached, and the measured statistics.  When the flood
    reaches fewer than [n] vertices the aggregations are skipped and the
    result rows are empty-valued zeros (the reach count already decides
    the verdict). *)

val reroot :
  Graph.t ->
  local_view ->
  new_root:int ->
  (int array * int array) * stats
(** RE-ROOT-PROBLEM (Lemma 19), executed: the same tree edges re-rooted at
    the given node — one two-slot batched learn plus one ancestor
    aggregation, then local updates.  Returns the new parent and depth
    arrays. *)

val hidden :
  Graph.t ->
  local_view ->
  u:int ->
  v:int ->
  t:int ->
  (int * int) list array * stats
(** HIDDEN-PROBLEM (Lemma 16), executed: for a T-leaf [t] inside the face of
    the fundamental edge (u, v), every node learns which of its incident
    real fundamental edges hide [t] (Definition 4) — detect-face with [t]'s
    positions riding its batches, plus a constant number of one-round
    exchanges across the fundamental edges.  Each hiding edge is reported
    at both endpoints, normalized as [(a, b)] with [pi_left a < pi_left b]. *)

(** The serial oracle: the identical subroutine cores bound to the
    pre-refactor choreography — one engine run per scalar convergecast or
    broadcast, a fresh O(n) indicator array per learned value.  Outputs
    are bit-identical to the batched public API; only [stats] differ
    (more [engine_runs] and rounds).  Kept for the differential suite and
    the before/after benchmark. *)
module Reference : sig
  val dfs_orders :
    Graph.t ->
    children:int array array ->
    parent:int array ->
    depth:int array ->
    root:int ->
    orders * int * stats

  val phase1 :
    Graph.t ->
    rot_orders:int array array ->
    parent:int array ->
    depth:int array ->
    root:int ->
    local_view * stats

  val separator_phase3 :
    Graph.t ->
    rot_orders:int array array ->
    parent:int array ->
    depth:int array ->
    root:int ->
    ((int * int) * bool array) option * stats

  val join_elections :
    Graph.t ->
    bcast_parent:int array ->
    root:int ->
    parts:int array ->
    visited_depth:int array ->
    marked:bool array ->
    forest:(int array array -> int array) ->
    attach:(int array -> int array * int array) ->
    (int array array * int array * int array) * stats

  val weights : Graph.t -> local_view -> ((int * int) * int) list * stats
  val lca : Graph.t -> tree_knowledge -> u:int -> v:int -> int * stats

  val mark_path :
    Graph.t -> tree_knowledge -> u:int -> v:int -> bool array * stats

  val detect_face :
    Graph.t -> local_view -> u:int -> v:int -> face_membership * stats

  val spanning_forest :
    Graph.t ->
    ?parts:int array ->
    unit ->
    (int array * int array * int array) * int * stats

  val screen_tally :
    Graph.t ->
    root:int ->
    sums:int array array ->
    mins:int array array ->
    int array * int array * int * stats

  val reroot :
    Graph.t -> local_view -> new_root:int -> (int array * int array) * stats

  val hidden :
    Graph.t ->
    local_view ->
    u:int ->
    v:int ->
    t:int ->
    (int * int) list array * stats
end
