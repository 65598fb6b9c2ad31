(* Planar configurations (G, E, T) — the object every algorithm in the paper
   manipulates: a planar graph, a combinatorial embedding and a rooted
   spanning tree whose children are ordered by the embedding.

   A configuration is built either for a whole embedded graph or for one part
   of a partition (the induced subgraph inherits the embedding: deleting
   vertices/edges preserves the relative rotation order, hence planarity). *)

open Repro_graph
open Repro_embedding
open Repro_tree

type t = {
  graph : Graph.t;
  rot : Rotation.t;
  tree : Rooted.t;
  root_first : int option; (* where the virtual root edge is inserted *)
  to_global : int array option; (* local -> original ids, None if identical *)
}

let graph t = t.graph
let rot t = t.rot
let tree t = t.tree
let n t = Graph.n t.graph
let root_first t = t.root_first
let to_global t v = match t.to_global with None -> v | Some m -> m.(v)

(* Direction of the virtual root edge for an embedded graph with
   coordinates: point it at a spot strictly outside the drawing, so the root
   corner it occupies lies on the outer face.  Returns the neighbour that
   comes first when sweeping clockwise from that direction. *)
let outer_root_first emb root =
  match Embedded.coords emb with
  | None -> None
  | Some coords ->
    let g = Embedded.graph emb in
    if Graph.degree g root = 0 then None
    else begin
      (* The root sits on the convex hull (generator convention), so the
         direction away from the drawing's centroid points into the outer
         face. *)
      let cx = ref 0.0 and cy = ref 0.0 in
      Array.iter
        (fun (x, y) ->
          cx := !cx +. x;
          cy := !cy +. y)
        coords;
      let k = float_of_int (Array.length coords) in
      let cx = !cx /. k and cy = !cy /. k in
      let (rx, ry) = coords.(root) in
      let out_angle = atan2 (ry -. cy) (rx -. cx) in
      let best = ref (-1) and best_delta = ref infinity in
      Array.iter
        (fun u ->
          let (ux, uy) = coords.(u) in
          let a = atan2 (uy -. ry) (ux -. rx) in
          (* Clockwise sweep = decreasing angle; wrap into (0, 2pi]. *)
          let delta =
            let d = out_angle -. a in
            let d = Float.rem d (2.0 *. Float.pi) in
            if d <= 0.0 then d +. (2.0 *. Float.pi) else d
          in
          if delta < !best_delta then begin
            best_delta := delta;
            best := u
          end)
        (Graph.neighbors g root);
      Some !best
    end

let of_embedded ?(spanning = Spanning.Bfs) emb =
  let g = Embedded.graph emb in
  let root = Embedded.outer emb in
  let root_first = outer_root_first emb root in
  let parent = Spanning.make spanning g ~root in
  let tree = Rooted.build ?root_first ~rot:(Embedded.rot emb) ~root parent in
  { graph = g; rot = Embedded.rot emb; tree; root_first; to_global = None }

(* Hot path of every part-parallel batch: [members] is a plain int array
   (components come out of [Algo.restricted_components] that way).  The
   induced build runs through a per-domain scratch, so a batch of parts
   allocates nothing proportional to the GLOBAL n — each worker domain
   reads the shared flat graph/rotation store and compacts its own part
   into fresh flat arrays sized by the part. *)
let scratch_key = Domain.DLS.new_key Graph.Scratch.create

let of_part ?(spanning = Spanning.Bfs) ~members ~root emb =
  let g = Embedded.graph emb in
  let scratch = Domain.DLS.get scratch_key in
  let g_sub, new_of_old, old_of_new = Graph.induced_members ~scratch g members in
  if root < 0 || root >= Graph.n g || new_of_old.(root) < 0 then
    invalid_arg "Config.of_part: root not in part";
  let rot_sub =
    Rotation.induced (Embedded.rot emb) ~sub:g_sub ~new_of_old ~old_of_new
  in
  let local_root = new_of_old.(root) in
  let parent = Spanning.make spanning g_sub ~root:local_root in
  let tree = Rooted.build ~rot:rot_sub ~root:local_root parent in
  {
    graph = g_sub;
    rot = rot_sub;
    tree;
    root_first = None;
    to_global = Some old_of_new;
  }

(* Build a configuration from pre-existing pieces: a graph paired with a
   tree built elsewhere (the testkit's instances, tests, benchmarks). *)
let of_parts ~graph ~rot ~tree =
  { graph; rot; tree; root_first = None; to_global = None }
