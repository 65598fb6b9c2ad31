(* Combinatorial planar embeddings as rotation systems, stored flat.

   The rotation of every vertex lives in one int array aligned with the
   graph's CSR rows: the clockwise neighbour order of [v] occupies
   [Graph.adj_offset g v .. + degree v - 1] of [ord].  A parallel array
   maps each SORTED-adjacency rank to its rotation index, so [position]
   is one binary search plus one array read — no hash table, no encoded
   vertex pairs, nothing for the GC to walk, and domains share the whole
   structure read-only. *)

open Repro_graph

type t = {
  g : Graph.t;
  ord : int array; (* 2m: clockwise orders, row of v at adj_offset v *)
  pos_of_rank : int array; (* 2m: rotation index of the rank-th neighbour *)
}

let graph t = t.g
let degree t v = Graph.degree t.g v
let nth t v i = t.ord.(Graph.adj_offset t.g v + i)

let of_orders g order =
  if Array.length order <> Graph.n g then
    invalid_arg "Rotation.of_orders: wrong number of vertices";
  let ord = Array.make (2 * Graph.m g) 0 in
  let pos_of_rank = Array.make (2 * Graph.m g) (-1) in
  Array.iteri
    (fun v nbrs ->
      if Array.length nbrs <> Graph.degree g v then
        invalid_arg "Rotation.of_orders: degree mismatch";
      let off = Graph.adj_offset g v in
      Array.iteri
        (fun i u ->
          let r = Graph.neighbor_rank g v u in
          if r < 0 then
            invalid_arg "Rotation.of_orders: rotation lists a non-edge";
          if pos_of_rank.(off + r) >= 0 then
            invalid_arg "Rotation.of_orders: duplicate neighbour";
          pos_of_rank.(off + r) <- i;
          ord.(off + i) <- u)
        nbrs)
    order;
  { g; ord; pos_of_rank }

(* The graph's own (sorted) adjacency as the rotation: both flat arrays
   are the identity over each row, no validation needed. *)
let of_adjacency g =
  let sz = 2 * Graph.m g in
  let ord = Array.make sz 0 in
  let pos_of_rank = Array.make sz 0 in
  for v = 0 to Graph.n g - 1 do
    let off = Graph.adj_offset g v in
    for i = 0 to Graph.degree g v - 1 do
      ord.(off + i) <- Graph.nth_neighbor g v i;
      pos_of_rank.(off + i) <- i
    done
  done;
  { g; ord; pos_of_rank }

(* Restriction of a rotation to an induced subgraph, built flat without
   re-validation: dropping non-members from a circular order keeps it a
   valid rotation, and the sub-CSR rows are exactly the kept neighbours.
   [new_of_old] maps members to their [sub] ids (-1 outside — the
   scratch-backed map from [Graph.induced_members] works as-is). *)
let induced t ~sub ~new_of_old ~old_of_new =
  let sz = 2 * Graph.m sub in
  let ord = Array.make sz 0 in
  let pos_of_rank = Array.make sz 0 in
  for nv = 0 to Graph.n sub - 1 do
    let v = old_of_new.(nv) in
    let off = Graph.adj_offset t.g v in
    let noff = Graph.adj_offset sub nv in
    let i = ref 0 in
    for k = 0 to Graph.degree t.g v - 1 do
      let nu = new_of_old.(t.ord.(off + k)) in
      if nu >= 0 then begin
        let r = Graph.neighbor_rank sub nv nu in
        pos_of_rank.(noff + r) <- !i;
        ord.(noff + !i) <- nu;
        incr i
      end
    done
  done;
  { g = sub; ord; pos_of_rank }

let order t v = Array.sub t.ord (Graph.adj_offset t.g v) (degree t v)

let position_of_rank t v r = t.pos_of_rank.(Graph.adj_offset t.g v + r)

let position t v u =
  let r = Graph.neighbor_rank t.g v u in
  if r < 0 then invalid_arg "Rotation.position: not a neighbour";
  position_of_rank t v r

let next_clockwise t v u =
  let d = degree t v in
  t.ord.(Graph.adj_offset t.g v + ((position t v u + 1) mod d))

(* Circular order around [v] starting at [first] (callers usually want the
   parent edge first). *)
let order_from t v ~first =
  let d = degree t v in
  let off = Graph.adj_offset t.g v in
  let i0 = position t v first in
  Array.init d (fun k -> t.ord.(off + ((i0 + k) mod d)))

(* Face traversal.  A dart is a directed edge (u, v).  Following the "next
   dart" rule below partitions all 2m darts into closed walks; for a genus-0
   rotation system those walks are exactly the faces of the embedding.  With
   clockwise vertex rotations this rule walks each face so that its interior
   lies to the left of the traversal.  Visited marks live in a flat bool
   array indexed by dart id [adj_offset u + rank of v]. *)
let next_dart t (u, v) = (v, next_clockwise t v u)

let dart_id t u v = Graph.adj_offset t.g u + Graph.neighbor_rank t.g u v

let iter_faces g t f =
  let seen = Array.make (2 * Graph.m g) false in
  let visit u v =
    if not (seen.(dart_id t u v)) then begin
      let walk = ref [] in
      let rec go (a, b) =
        let id = dart_id t a b in
        if not seen.(id) then begin
          seen.(id) <- true;
          walk := (a, b) :: !walk;
          go (next_dart t (a, b))
        end
      in
      go (u, v);
      f (List.rev !walk)
    end
  in
  Graph.iter_edges g (fun u v ->
      visit u v;
      visit v u)

(* The same walks, traced by dart id alone: the successor of the dart
   u -> v (id [adj_offset u + rank of v]) is the dart from v to the
   neighbour in v's next rotation slot after u.  Walks are numbered in
   order of their smallest dart id; nothing is allocated per walk. *)
let dart_faces t =
  let g = t.g in
  let face = Array.make (2 * Graph.m g) (-1) in
  let count = ref 0 in
  for u = 0 to Graph.n g - 1 do
    let off = Graph.adj_offset g u in
    for r = 0 to Graph.degree g u - 1 do
      if face.(off + r) < 0 then begin
        let id = !count in
        incr count;
        let a = ref u and b = ref (Graph.nth_neighbor g u r) in
        let d = ref (off + r) in
        while face.(!d) < 0 do
          face.(!d) <- id;
          let w = next_clockwise t !b !a in
          a := !b;
          b := w;
          d := dart_id t !a w
        done
      end
    done
  done;
  (face, !count)

let faces g t =
  let result = ref [] in
  iter_faces g t (fun walk -> result := walk :: !result);
  List.rev !result

let count_faces g t =
  let k = ref 0 in
  iter_faces g t (fun _ -> incr k);
  !k

(* Euler's formula, per component (each lives on its own sphere): a
   component with at least one edge satisfies V - E + F = 2, while an
   isolated vertex contributes V = 1 and no face walk.  Summing:
   V - E + F = 2 * (#components with edges) + (#isolated vertices). *)
let is_planar_embedding g t =
  let comp, c = Algo.components g in
  let sizes = Array.make c 0 in
  Array.iter (fun ci -> sizes.(ci) <- sizes.(ci) + 1) comp;
  let isolated = Array.fold_left (fun a s -> if s = 1 then a + 1 else a) 0 sizes in
  let with_edges = c - isolated in
  Graph.n g - Graph.m g + count_faces g t = (2 * with_edges) + isolated
