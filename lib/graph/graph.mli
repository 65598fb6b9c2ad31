(** Undirected simple graphs over vertices [0 .. n-1].

    Stored as flat compressed-sparse-row (CSR) int arrays with each
    adjacency row sorted ascending: membership is a binary search, the GC
    never walks the adjacency, and worker domains share the structure
    read-only without copying.  Nothing is mutated after construction. *)

type t

val of_edges : n:int -> (int * int) list -> t
(** Build a graph; duplicate edges are dropped, self loops rejected, and
    an [n] above [Sys.max_array_length - 1] raises [Invalid_argument]. *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of edges. *)

val degree : t -> int -> int

val neighbors : t -> int -> int array
(** Neighbours of a vertex, ascending.  Allocates a fresh array — cold
    callers only; hot paths use {!iter_neighbors} or {!nth_neighbor}. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Apply to each neighbour in ascending order, without allocating. *)

val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val nth_neighbor : t -> int -> int -> int
(** [nth_neighbor g v i] is the [i]-th smallest neighbour of [v]
    (unchecked: [0 <= i < degree g v]). *)

val adj_offset : t -> int -> int
(** Global CSR offset of the row of [v]: [adj_offset g v + i] is a unique
    dart id for the [i]-th neighbour slot, letting parallel flat
    structures (rotation orders, per-dart marks) align with the store. *)

val neighbor_rank : t -> int -> int -> int
(** [neighbor_rank g v u] is the index of [u] in the sorted row of [v],
    or [-1] when [(v, u)] is not an edge. *)

val mem_edge : t -> int -> int -> bool

val check_vertex : t -> int -> unit
(** Raises [Invalid_argument] if the vertex is out of range. *)

val edge_array : t -> (int * int) array
(** Each edge once as [(u, v)] with [u < v], ascending [u] then [v] —
    the primitive, read straight off the CSR scan. *)

val edges : t -> (int * int) list
(** [Array.to_list (edge_array t)]. *)

val iter_edges : t -> (int -> int -> unit) -> unit

(** Reusable per-vertex index buffers, e.g. for {!induced_members}.  One
    scratch per worker domain amortizes the per-part O(n) map allocation
    across a whole batch.  [acquire s n ~occupant] returns a buffer of at
    least [n] entries, all [-1]: it grows by doubling, or resets the
    entries of the previous occupant.  The caller may set entries only at
    vertices of [occupant]; [release s] says it has reset every entry it
    set.  A scratch must never be shared between concurrent callers. *)
module Scratch : sig
  type t

  val create : unit -> t
  val acquire : t -> int -> occupant:int array -> int array
  val release : t -> unit
end

(** Reusable per-vertex byte marks under the {!Scratch} rule, all zero on
    [acquire m n ~occupant]; [release m] says the caller cleared every
    byte it set. *)
module Marks : sig
  type t

  val create : unit -> t
  val acquire : t -> int -> occupant:int array -> Bytes.t
  val release : t -> unit
end

val induced : t -> bool array -> t * int array * int array
(** [induced g keep] is the subgraph induced by the marked vertices, plus
    the old-to-new (-1 when dropped) and new-to-old vertex maps.  New ids
    follow increasing old id.  Scans all of [0 .. n-1]; hot callers with
    an explicit member set use {!induced_members}. *)

val induced_members : ?scratch:Scratch.t -> t -> int array -> t * int array * int array
(** [induced_members g members] is {!induced} driven by an explicit array
    of distinct member vertices (any order; same numbering as the
    keep-array form).  Touches only O(members + incident edges) — nothing
    proportional to [n g] — when given a [scratch].  Ownership rule: both
    maps are read-only.  With [?scratch], the old-to-new map {e aliases the
    scratch buffer} and is valid until the next call on the same scratch,
    and the new-to-old map is the scratch's occupant until that call
    ([Scratch.acquire] only reads it); it stays valid after it. *)

val pp : Format.formatter -> t -> unit
