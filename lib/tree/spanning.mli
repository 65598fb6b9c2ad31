(** Spanning-tree constructors (parent arrays; root gets [-1]).

    The graph must be connected; unreachable vertices keep [-2]. *)

open Repro_graph

val bfs : Graph.t -> root:int -> int array
val dfs : Graph.t -> root:int -> int array
val random : Graph.t -> root:int -> seed:int -> int array

val kruskal_bfs :
  int -> root:int -> ((int -> int -> unit) -> unit) -> int array * int array
(** [kruskal_bfs k ~root offer]: Kruskal over the edges that [offer] passes
    to its callback, in that order, then BFS from [root] over the chosen
    edges.  Returns parents ([-1] at the root, [-2] unreached) and depths
    ([-1] unreached) over the ids [0 .. k-1].  Tree neighbours are visited
    newest first, so the tree is a function of the offer order alone. *)

type kind = Bfs | Dfs | Random of int

val make : kind -> Graph.t -> root:int -> int array
val kind_name : kind -> string
