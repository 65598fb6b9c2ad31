(** SVG rendering of embedded planar graphs.

    Generator instances are drawn with their own straight-line coordinates;
    coordinate-free embeddings get a Tutte-style barycentric layout pinned
    to the longest face of the rotation system. *)

type style = {
  width : float;
  vertex_radius : float;
  edge_color : string;
  vertex_color : string;
  highlight_color : string;
  highlight_edge_color : string;
}

val default_style : style

val layout : Embedded.t -> Geometry.point array
(** The embedding's own coordinates, or a barycentric layout. *)

val render : ?highlight:int list -> ?closing:int * int -> Embedded.t -> string
(** SVG document in {!default_style}; [highlight] marks a vertex set (e.g.
    a separator), [closing] draws the cycle-closing edge dashed. *)

val write_file :
  ?highlight:int list ->
  ?closing:int * int ->
  Embedded.t ->
  path:string ->
  unit
