(** Straight-line embedding geometry (ground truth for interior tests). *)

open Repro_graph

type point = float * float

val orient : point -> point -> point -> float
(** Signed area of the triangle; positive = counterclockwise. *)

val rotation_of_coords : Graph.t -> point array -> Rotation.t
(** Rotation system induced by vertex coordinates. *)

val point_in_polygon : point array -> point -> bool
(** Ray casting; boundary points are unspecified — exclude them first. *)

val segments_cross : point * point -> point * point -> bool
(** Proper crossing of open segments. *)

val straight_line_planar : Graph.t -> point array -> bool
(** O(m²) no-two-edges-cross check (test-only). *)

val centroid : point array -> point
