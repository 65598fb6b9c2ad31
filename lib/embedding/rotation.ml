(* Combinatorial planar embeddings as rotation systems, stored flat.

   The rotation of every vertex lives in one int array aligned with the
   graph's CSR rows: the clockwise neighbour order of [v] occupies
   [Graph.adj_offset g v .. + degree v - 1] of [ord].  A parallel array
   maps each SORTED-adjacency rank to its rotation index — no hash table,
   no encoded vertex pairs, nothing for the GC to walk, and domains share
   the whole structure read-only.  [position] of a named neighbour is one
   binary search for its rank plus one read; the bulk passes ([induced],
   [dart_faces]) walk rows in rank order and read [pos_of_rank] directly,
   so they search nothing. *)

open Repro_graph

type t = {
  g : Graph.t;
  ord : int array; (* 2m: clockwise orders, row of v at adj_offset v *)
  pos_of_rank : int array; (* 2m: rotation index of the rank-th neighbour *)
}

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
   scratch-backed map from [Graph.induced_members] works as-is).  New ids
   ascend with old ids, so a kept neighbour's sub-rank is the number of
   kept neighbours before it in the parent's sorted row, and its sub-slot
   the number of kept slots before its parent slot: one pass over the
   parent row in slot order records that count at each kept slot (-1 at a
   dropped one), and one pass in rank order reads it back through the
   parent's [pos_of_rank], with no search of the sub-row. *)
let induced t ~sub ~new_of_old ~old_of_new =
  let sz = 2 * Graph.m sub in
  let ord = Array.make sz 0 in
  let pos_of_rank = Array.make sz 0 in
  let max_deg = ref 0 in
  for nv = 0 to Graph.n sub - 1 do
    max_deg := max !max_deg (Graph.degree t.g old_of_new.(nv))
  done;
  (* [slot.(p)]: the sub-slot of parent slot p of the current row. *)
  let slot = Array.make !max_deg 0 in
  for nv = 0 to Graph.n sub - 1 do
    let v = old_of_new.(nv) in
    let off = Graph.adj_offset t.g v in
    let noff = Graph.adj_offset sub nv in
    let d = Graph.degree t.g v in
    let i = ref 0 in
    for p = 0 to d - 1 do
      let nu = new_of_old.(t.ord.(off + p)) in
      if nu >= 0 then begin
        slot.(p) <- !i;
        ord.(noff + !i) <- nu;
        incr i
      end
      else slot.(p) <- -1
    done;
    let r = ref noff in
    for k = off to off + d - 1 do
      let j = slot.(t.pos_of_rank.(k)) in
      if j >= 0 then begin
        pos_of_rank.(!r) <- j;
        incr r
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
   x -> y (id [adj_offset x + rank of y]) is the dart from y to the
   neighbour in y's next rotation slot after x.  One pass over the rows
   names every successor without a search.  At row y, [slot_rank] inverts
   y's [pos_of_rank] row, naming the successor by its rank; and the y's
   that reach x, taken in increasing y, are x's sorted row in order, so
   [cursor.(x)] is the id of the dart x -> y when row y is scanned.  The
   successors are held in [face] itself, each overwritten by its walk id
   (as [lnot id] until the last pass) when its walk is traced; walks are
   numbered in order of their smallest dart id. *)
let dart_faces t =
  let g = t.g in
  let n = Graph.n g in
  let face = Array.make (2 * Graph.m g) 0 in
  let max_deg = ref 0 in
  for v = 0 to n - 1 do
    max_deg := max !max_deg (Graph.degree g v)
  done;
  let slot_rank = Array.make !max_deg 0 in
  let cursor = Array.init n (Graph.adj_offset g) in
  for y = 0 to n - 1 do
    let off = Graph.adj_offset g y and d = Graph.degree g y in
    for k = 0 to d - 1 do
      slot_rank.(t.pos_of_rank.(off + k)) <- k
    done;
    for k = 0 to d - 1 do
      let x = Graph.nth_neighbor g y k in
      let p = t.pos_of_rank.(off + k) + 1 in
      face.(cursor.(x)) <- off + slot_rank.(if p = d then 0 else p);
      cursor.(x) <- cursor.(x) + 1
    done
  done;
  let count = ref 0 in
  for start = 0 to Array.length face - 1 do
    if face.(start) >= 0 then begin
      let id = lnot !count in
      incr count;
      let d = ref start in
      while face.(!d) >= 0 do
        let next = face.(!d) in
        face.(!d) <- id;
        d := next
      done
    end
  done;
  for d = 0 to Array.length face - 1 do
    face.(d) <- lnot face.(d)
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
