(** A planar graph together with its embedding and optional coordinates. *)

open Repro_graph

type t

val make :
  ?coords:Geometry.point array ->
  ?outer:int ->
  name:string ->
  Graph.t ->
  Rotation.t ->
  t

val of_coords :
  name:string -> ?outer:int -> Graph.t -> Geometry.point array -> t
(** Derive the rotation system from straight-line coordinates. *)

val graph : t -> Graph.t
val rot : t -> Rotation.t
val coords : t -> Geometry.point array option

val outer : t -> int
(** A vertex incident to the outer (unbounded) face; used as the default
    spanning-tree root so no face contains the root (paper, Section 4). *)

val name : t -> string
val n : t -> int

val is_valid : t -> bool
(** Euler-formula validation of the rotation system. *)
