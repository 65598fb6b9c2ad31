(* A planar graph packaged with its combinatorial embedding, optional
   straight-line coordinates (used for geometric ground truth in tests), and
   a vertex known to lie on the outer face (the paper's root convention). *)

open Repro_graph

type t = {
  graph : Graph.t;
  rot : Rotation.t;
  coords : Geometry.point array option;
  outer : int;
  name : string;
}

let make ?coords ?(outer = 0) ~name graph rot =
  if Graph.n graph > 0 then Graph.check_vertex graph outer;
  { graph; rot; coords; outer; name }

let of_coords ~name ?(outer = 0) graph coords =
  make ~coords ~outer ~name graph (Geometry.rotation_of_coords graph coords)

let graph t = t.graph
let rot t = t.rot
let coords t = t.coords
let outer t = t.outer
let name t = t.name

let n t = Graph.n t.graph

let is_valid t =
  Rotation.is_planar_embedding t.graph t.rot
  &&
  match t.coords with
  | None -> true
  | Some c -> Array.length c = Graph.n t.graph

