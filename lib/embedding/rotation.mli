(** Combinatorial planar embeddings as rotation systems.

    For every vertex [v], the rotation lists the neighbours of [v] in
    clockwise order (the paper's [t_v]).  The order is circular.

    Stored as two flat int arrays aligned with the graph's CSR rows — the
    clockwise orders and, per dart, the rotation index of each
    sorted-adjacency rank — so a rotation adds no per-vertex boxes and is
    shared read-only across worker domains together with its graph.  Every
    constructor leaves the two consistent: each rank's index is the slot
    holding that neighbour. *)

open Repro_graph

type t

val of_orders : Graph.t -> int array array -> t
(** Build from explicit clockwise neighbour orders; validates that every
    order is a permutation of the adjacency. *)

val of_adjacency : Graph.t -> t
(** Use the graph's (sorted) adjacency order as the rotation (useful for
    trees, where any rotation system is planar). *)

val induced : t -> sub:Graph.t -> new_of_old:int array -> old_of_new:int array -> t
(** Restriction of a rotation to an induced subgraph of its graph, built
    flat without re-validation: each member's clockwise order with the
    non-members dropped.  [sub] and the two maps must come from
    [Graph.induced] / [Graph.induced_members] on the rotation's graph.
    O(sum of the members' parent degrees), with no search: a kept
    neighbour's sub-slot is the count of kept slots before its parent
    slot. *)

val order : t -> int -> int array
(** Clockwise neighbour order of a vertex.  Allocates a fresh array —
    hot paths use {!nth}. *)

val nth : t -> int -> int -> int
(** [nth t v i] is the [i]-th neighbour in the rotation of [v]
    (unchecked: [0 <= i < degree t v]), without allocating. *)

val degree : t -> int -> int

val position : t -> int -> int -> int
(** [position t v u] is the index of [u] in the rotation of [v]: one
    binary search of [v]'s sorted row for [u]'s rank, then
    {!position_of_rank}. *)

val position_of_rank : t -> int -> int -> int
(** [position_of_rank t v r] is the rotation index of the [r]-th neighbour
    of [v] in sorted adjacency order ({!Repro_graph.Graph.nth_neighbor}),
    read straight from the stored array (unchecked:
    [0 <= r < degree t v]).  Passes that walk a row in rank order use it
    in place of {!position}; on any rotation, [nth t v (position_of_rank t
    v r)] is the [r]-th neighbour of [v] in the rotation's own graph,
    which is how the screen checks a rotation against another graph. *)

val next_clockwise : t -> int -> int -> int
(** Neighbour following [u] clockwise around [v]. *)

val order_from : t -> int -> first:int -> int array
(** Rotation of [v] as a linear order starting at neighbour [first]. *)

val faces : Graph.t -> t -> (int * int) list list
(** All faces as closed dart walks (each dart appears in exactly one face). *)

val iter_faces : Graph.t -> t -> ((int * int) list -> unit) -> unit
(** Apply to each face walk without retaining the face list. *)

val dart_faces : t -> int array * int
(** [dart_faces t] is the walk id of every dart, indexed by dart id
    [Graph.adj_offset g u + Graph.neighbor_rank g u v], plus the number of
    walks: the walks of {!faces}, numbered in order of their smallest dart
    id, traced without building them.  One pass over the rows names each
    dart's successor without a search (a per-vertex cursor gives every
    reverse dart, a per-row inverse of [pos_of_rank] the next slot's
    rank), holding the successors in the returned array itself; it
    allocates that array, one n-array and one array of the largest
    degree. *)

val count_faces : Graph.t -> t -> int

val is_planar_embedding : Graph.t -> t -> bool
(** Euler-formula check: [V - E + F = 1 + components]. *)
