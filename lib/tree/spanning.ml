(* Spanning-tree constructors.

   The separator algorithm works with an *arbitrary* spanning tree (that is
   the point of Lemma 11: the tree may be Θ(n) deep).  We provide BFS trees
   (shallow), DFS trees (deep) and random trees, so experiments can stress
   both regimes.  These are the centralized counterparts of the Borůvka
   simulation of Lemma 9; the CONGEST cost is charged separately. *)

open Repro_util
open Repro_graph

let bfs g ~root = Algo.bfs_parents g root

let dfs g ~root = Algo.dfs_parents g root

(* Tree neighbours are listed newest first: the BFS order, and with it
   the tree, follows from the offer order alone. *)
let kruskal_bfs k ~root offer =
  let uf = Union_find.create k in
  let adj = Array.make k [] in
  offer (fun u v ->
      if Union_find.union uf u v then begin
        adj.(u) <- v :: adj.(u);
        adj.(v) <- u :: adj.(v)
      end);
  let parent = Array.make k (-2) in
  let depth = Array.make k (-1) in
  parent.(root) <- -1;
  depth.(root) <- 0;
  let queue = Array.make k root in
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    List.iter
      (fun v ->
        if parent.(v) = -2 then begin
          parent.(v) <- u;
          depth.(v) <- depth.(u) + 1;
          queue.(!tail) <- v;
          incr tail
        end)
      adj.(u)
  done;
  (parent, depth)

(* Uniform-ish random spanning tree by randomized Kruskal: random edge order
   + union-find.  Cheap and adequate for stress testing. *)
let random g ~root ~seed =
  let rng = Rng.create seed in
  let es = Graph.edge_array g in
  Rng.shuffle_in_place rng es;
  fst
    (kruskal_bfs (Graph.n g) ~root (fun edge ->
         Array.iter (fun (u, v) -> edge u v) es))

type kind = Bfs | Dfs | Random of int

let make kind g ~root =
  match kind with
  | Bfs -> bfs g ~root
  | Dfs -> dfs g ~root
  | Random seed -> random g ~root ~seed

let kind_name = function
  | Bfs -> "bfs"
  | Dfs -> "dfs"
  | Random _ -> "random"
