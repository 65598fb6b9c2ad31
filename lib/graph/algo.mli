(** Centralized graph algorithms (verification and instance preparation).
    {!bfs_dist}, {!bfs_parents}, {!components} and {!diameter} share one
    FIFO BFS over an array queue that scans each row in ascending order. *)

val bfs_dist : Graph.t -> int -> int array
(** Hop distances from the source; [-1] for unreachable vertices. *)

val bfs_parents : Graph.t -> int -> int array
(** BFS tree parents; the source gets [-1], unreachable vertices [-2]. *)

val components : Graph.t -> int array * int
(** Component id of every vertex and the number of components. *)

val restricted_components :
  Graph.t -> members:int array -> skip:(int -> bool) -> int array list
(** Connected components of the subgraph induced by the members for which
    [skip] is false, in member-discovery order; each component lists its
    vertices in BFS order.  Membership lives in a per-domain byte mark of
    length at least [Graph.n g], reused across calls, so a call costs
    O(members + incident edges).  Calls on different domains are safe;
    [skip] must not call this function again. *)

val is_connected : Graph.t -> bool

val diameter : Graph.t -> int
(** Exact hop diameter at every [n]; a disconnected graph gives the largest
    diameter of its components, and [0] when it has no edge.  Computed by
    the bounding-diameters loop of Takes and Kosters: each BFS bounds every
    remaining vertex's eccentricity and drops those that cannot beat the
    best lower bound.  The number of BFS runs depends on the graph: a few
    on grids and triangulations, up to one per vertex on inputs such as
    cycles, where every vertex has the same eccentricity. *)

val diameter_exceeds : Graph.t -> int -> bool
(** [diameter_exceeds g k] is [diameter g > k], by the same loop told
    that only diameters above [k] matter: it stops as soon as an
    eccentricity above [k] is found, and drops every vertex whose upper
    bound is at most [k]. *)

val dfs_parents : Graph.t -> int -> int array
(** Centralized DFS tree in adjacency order; source [-1], unreachable [-2]. *)

val is_dfs_tree : Graph.t -> root:int -> parent:int array -> bool
(** A rooted spanning tree is a DFS tree of an undirected graph iff every
    non-tree edge joins an ancestor–descendant pair; this checks exactly
    that, plus spanning-tree well-formedness. *)
