(** Planar instance generators (all with valid rotation systems; most with
    straight-line coordinates used as geometric ground truth).

    Families cover the diameter spectrum: paths and cycles (D = Θ(n)), grids
    (D = Θ(√n)), stacked triangulations (D = Θ(log n) w.h.p.). *)

val grid : rows:int -> cols:int -> Embedded.t
(** Square-lattice grid. *)

val grid_diag : ?seed:int -> rows:int -> cols:int -> unit -> Embedded.t
(** Grid with one random diagonal per cell (a triangulated grid). *)

val stacked_triangulation : ?seed:int -> n:int -> unit -> Embedded.t
(** Apollonian-style stacked triangulation with centroid coordinates. *)

val thin : ?seed:int -> keep:float -> Embedded.t -> Embedded.t
(** Delete non-tree edges with probability [1 - keep], preserving
    connectivity (a BFS tree is always kept). *)

val path : int -> Embedded.t
val cycle : int -> Embedded.t
val star : int -> Embedded.t
val wheel : int -> Embedded.t

val fan : int -> Embedded.t
(** Maximal outerplanar fan: apex joined to a path. *)

val random_tree : ?seed:int -> n:int -> unit -> Embedded.t
(** Uniform random attachment tree (no coordinates). *)

val caterpillar : spine:int -> legs:int -> Embedded.t

val family_names : string list
(** Families used by the benchmark sweeps. *)

val families : string list
(** Every family {!by_family} builds: {!family_names} plus path, star and
    wheel. *)

val by_family : ?seed:int -> string -> n:int -> Embedded.t
(** Instantiate a named family at (approximately) [n] vertices. *)
