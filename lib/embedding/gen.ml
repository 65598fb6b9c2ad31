(* Planar instance generators.

   Every generator returns an [Embedded.t]; when coordinates are provided the
   rotation system is the one induced by the straight-line drawing, so
   geometric ground truth (point-in-polygon) agrees with the combinatorial
   embedding.  The families span the diameter spectrum the experiments need:
   paths/cycles (D = Θ(n)), grids (D = Θ(√n)), stacked triangulations
   (D = Θ(log n)). *)

open Repro_util
open Repro_graph

let grid ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Gen.grid";
  let id r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (id r c, id r (c + 1)) :: !edges;
      if r + 1 < rows then edges := (id r c, id (r + 1) c) :: !edges
    done
  done;
  let g = Graph.of_edges ~n:(rows * cols) !edges in
  let coords =
    Array.init (rows * cols) (fun v ->
        (float_of_int (v mod cols), float_of_int (v / cols)))
  in
  Embedded.of_coords ~name:(Printf.sprintf "grid-%dx%d" rows cols) g coords

let grid_diag ?(seed = 1) ~rows ~cols () =
  if rows < 2 || cols < 2 then invalid_arg "Gen.grid_diag";
  let rng = Rng.create seed in
  let id r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (id r c, id r (c + 1)) :: !edges;
      if r + 1 < rows then edges := (id r c, id (r + 1) c) :: !edges;
      if r + 1 < rows && c + 1 < cols then begin
        (* One diagonal per cell, chosen at random: triangulated grid. *)
        let e =
          if Rng.bool rng then (id r c, id (r + 1) (c + 1))
          else (id (r + 1) c, id r (c + 1))
        in
        edges := e :: !edges
      end
    done
  done;
  let g = Graph.of_edges ~n:(rows * cols) !edges in
  let coords =
    Array.init (rows * cols) (fun v ->
        (float_of_int (v mod cols), float_of_int (v / cols)))
  in
  Embedded.of_coords ~name:(Printf.sprintf "tgrid-%dx%d" rows cols) g coords

(* Apollonian-style stacked triangulation: repeatedly pick a bounded
   triangular face uniformly at random and insert a vertex at its centroid.
   Uniform face choice keeps the insertion tree balanced, so the diameter is
   O(log n) with high probability. *)
let stacked_triangulation ?(seed = 1) ~n () =
  if n < 3 then invalid_arg "Gen.stacked_triangulation: n >= 3 required";
  let rng = Rng.create seed in
  let coords = Array.make n (0.0, 0.0) in
  coords.(0) <- (0.0, 0.0);
  coords.(1) <- (1024.0, 0.0);
  coords.(2) <- (512.0, 1024.0);
  let edges = ref [ (0, 1); (1, 2); (0, 2) ] in
  (* Bounded faces as vertex triples; the outer face (0,1,2 seen from
     outside) is never subdivided, keeping vertex 0 on the outer face. *)
  let faces = ref [| (0, 1, 2) |] in
  let nfaces = ref 1 in
  let push_face f =
    if !nfaces = Array.length !faces then begin
      let bigger = Array.make (2 * !nfaces) (0, 0, 0) in
      Array.blit !faces 0 bigger 0 !nfaces;
      faces := bigger
    end;
    !faces.(!nfaces) <- f;
    incr nfaces
  in
  for v = 3 to n - 1 do
    let i = Rng.int rng !nfaces in
    let (a, b, c) = !faces.(i) in
    let (ax, ay) = coords.(a) and (bx, by) = coords.(b) and (cx, cy) = coords.(c) in
    coords.(v) <- ((ax +. bx +. cx) /. 3.0, (ay +. by +. cy) /. 3.0);
    edges := (v, a) :: (v, b) :: (v, c) :: !edges;
    !faces.(i) <- (a, b, v);
    push_face (b, c, v);
    push_face (a, c, v)
  done;
  let g = Graph.of_edges ~n !edges in
  Embedded.of_coords ~name:(Printf.sprintf "stacked-%d" n) g coords

(* Delete a fraction of non-tree edges from an embedded graph, keeping a BFS
   spanning tree so the result stays connected (and planar: edge deletion
   preserves planarity and the induced rotation). *)
let thin ?(seed = 7) ~keep emb =
  if keep < 0.0 || keep > 1.0 then invalid_arg "Gen.thin";
  let rng = Rng.create seed in
  let g = Embedded.graph emb in
  let parent = Algo.bfs_parents g 0 in
  let is_tree_edge u v = parent.(u) = v || parent.(v) = u in
  let edges =
    List.filter
      (fun (u, v) -> is_tree_edge u v || Rng.float rng 1.0 < keep)
      (Graph.edges g)
  in
  let g' = Graph.of_edges ~n:(Graph.n g) edges in
  match Embedded.coords emb with
  | Some coords ->
    Embedded.of_coords
      ~name:(Embedded.name emb ^ "-thin")
      ~outer:(Embedded.outer emb) g' coords
  | None ->
    Embedded.make
      ~name:(Embedded.name emb ^ "-thin")
      ~outer:(Embedded.outer emb) g' (Rotation.of_adjacency g')

let path n =
  if n < 1 then invalid_arg "Gen.path";
  let edges = List.init (max 0 (n - 1)) (fun i -> (i, i + 1)) in
  let g = Graph.of_edges ~n edges in
  let coords = Array.init n (fun i -> (float_of_int i, 0.0)) in
  Embedded.of_coords ~name:(Printf.sprintf "path-%d" n) g coords

let cycle n =
  if n < 3 then invalid_arg "Gen.cycle";
  let edges = List.init n (fun i -> (i, (i + 1) mod n)) in
  let g = Graph.of_edges ~n edges in
  let coords =
    Array.init n (fun i ->
        let a = 2.0 *. Float.pi *. float_of_int i /. float_of_int n in
        (cos a, sin a))
  in
  Embedded.of_coords ~name:(Printf.sprintf "cycle-%d" n) g coords

let star n =
  if n < 2 then invalid_arg "Gen.star";
  let edges = List.init (n - 1) (fun i -> (0, i + 1)) in
  let g = Graph.of_edges ~n edges in
  let coords =
    Array.init n (fun i ->
        if i = 0 then (0.0, 0.0)
        else begin
          let a = 2.0 *. Float.pi *. float_of_int i /. float_of_int n in
          (cos a, sin a)
        end)
  in
  (* The hub is on the outer face of a star as well; use a leaf to make the
     outer-vertex choice unambiguous. *)
  Embedded.of_coords ~name:(Printf.sprintf "star-%d" n) ~outer:1 g coords

let wheel n =
  if n < 4 then invalid_arg "Gen.wheel";
  let rim = n - 1 in
  let edges =
    List.init rim (fun i -> (1 + i, 1 + ((i + 1) mod rim)))
    @ List.init rim (fun i -> (0, 1 + i))
  in
  let g = Graph.of_edges ~n edges in
  let coords =
    Array.init n (fun i ->
        if i = 0 then (0.0, 0.0)
        else begin
          let a = 2.0 *. Float.pi *. float_of_int (i - 1) /. float_of_int rim in
          (cos a, sin a)
        end)
  in
  Embedded.of_coords ~name:(Printf.sprintf "wheel-%d" n) ~outer:1 g coords

let fan n =
  if n < 3 then invalid_arg "Gen.fan";
  (* Apex 0 joined to the path 1 .. n-1: a maximal outerplanar graph. *)
  let edges =
    List.init (n - 2) (fun i -> (1 + i, 2 + i)) @ List.init (n - 1) (fun i -> (0, 1 + i))
  in
  let g = Graph.of_edges ~n edges in
  let coords =
    Array.init n (fun i ->
        if i = 0 then (0.0, 0.0)
        else begin
          let a = Float.pi *. float_of_int i /. float_of_int n in
          (2.0 *. cos a, 2.0 *. (sin a +. 0.2))
        end)
  in
  Embedded.of_coords ~name:(Printf.sprintf "fan-%d" n) ~outer:1 g coords

let random_tree ?(seed = 1) ~n () =
  if n < 1 then invalid_arg "Gen.random_tree";
  let rng = Rng.create seed in
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := (v, Rng.int rng v) :: !edges
  done;
  let g = Graph.of_edges ~n !edges in
  (* Any rotation system of a tree is planar. *)
  Embedded.make ~name:(Printf.sprintf "rtree-%d" n) g (Rotation.of_adjacency g)

let caterpillar ~spine ~legs =
  if spine < 1 || legs < 0 then invalid_arg "Gen.caterpillar";
  let n = spine * (1 + legs) in
  let edges = ref [] in
  for i = 0 to spine - 2 do
    edges := (i, i + 1) :: !edges
  done;
  for i = 0 to spine - 1 do
    for l = 0 to legs - 1 do
      edges := (i, spine + (i * legs) + l) :: !edges
    done
  done;
  let g = Graph.of_edges ~n !edges in
  Embedded.make
    ~name:(Printf.sprintf "caterpillar-%dx%d" spine legs)
    g (Rotation.of_adjacency g)

(* The standard families the benchmarks sweep over, at a target size. *)
let family_names = [ "grid"; "tgrid"; "stacked"; "thinned"; "cycle"; "fan"; "rtree" ]

let families = family_names @ [ "path"; "star"; "wheel" ]

let by_family ?(seed = 1) name ~n =
  let side = max 2 (int_of_float (sqrt (float_of_int n))) in
  match name with
  | "grid" -> grid ~rows:side ~cols:side
  | "tgrid" -> grid_diag ~seed ~rows:side ~cols:side ()
  | "stacked" -> stacked_triangulation ~seed ~n:(max 4 n) ()
  | "thinned" -> thin ~seed ~keep:0.5 (stacked_triangulation ~seed ~n:(max 4 n) ())
  | "cycle" -> cycle (max 3 n)
  | "fan" -> fan (max 3 n)
  | "rtree" -> random_tree ~seed ~n ()
  | "path" -> path n
  | "star" -> star (max 2 n)
  | "wheel" -> wheel (max 4 n)
  | _ -> invalid_arg ("Gen.by_family: unknown family " ^ name)
