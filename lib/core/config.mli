(** Planar configurations (G, E, T): a planar graph, a combinatorial
    embedding and a rooted spanning tree with embedding-ordered children —
    the object all of the paper's algorithms manipulate. *)

open Repro_graph
open Repro_embedding
open Repro_tree

type t

val of_embedded : ?spanning:Spanning.kind -> Embedded.t -> t
(** Configuration for a whole embedded graph, rooted at the embedding's
    outer vertex, with the virtual root edge inserted in the outward
    direction (away from the drawing's centroid) when coordinates
    exist. *)

val of_part :
  ?spanning:Spanning.kind -> members:int array -> root:int -> Embedded.t -> t
(** Configuration for the subgraph induced by [members] (which must be
    connected); the embedding is inherited by restriction.  Vertices are
    renumbered; map back with [to_global].  Members are an array — the
    representation the part-parallel batch runners traffic in. *)

val of_parts : graph:Graph.t -> rot:Rotation.t -> tree:Rooted.t -> t
(** Assemble a configuration from existing pieces: a graph paired with a
    tree built elsewhere (the testkit's instances, tests, benchmarks). *)

val graph : t -> Graph.t
val rot : t -> Rotation.t
val tree : t -> Rooted.t
val n : t -> int
val root_first : t -> int option

val to_global : t -> int -> int
(** Map a local vertex back to the original graph's numbering.  A part's
    map is the sorted member array of {!Graph.induced_members}, which the
    configuration shares with its per-domain scratch; both only read it. *)

val fundamental_edges : t -> (int * int) list
(** Real fundamental edges (non-tree edges), normalized so that
    [pi_left u < pi_left v]. *)
