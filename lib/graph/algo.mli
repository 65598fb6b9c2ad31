(** Centralized graph algorithms (verification and instance preparation). *)

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

val eccentricity : Graph.t -> int -> int

val diameter_exact : Graph.t -> int

val diameter_two_sweep : Graph.t -> int
(** Double-sweep BFS lower bound (exact on trees). *)

val diameter : Graph.t -> int
(** Exact when [n <= 3000], double-sweep otherwise. *)

val dfs_parents : Graph.t -> int -> int array
(** Centralized DFS tree in adjacency order; source [-1], unreachable [-2]. *)

val is_dfs_tree : Graph.t -> root:int -> parent:int array -> bool
(** A rooted spanning tree is a DFS tree of an undirected graph iff every
    non-tree edge joins an ancestor–descendant pair; this checks exactly
    that, plus spanning-tree well-formedness. *)
