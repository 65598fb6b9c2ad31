open Repro_graph
open Repro_embedding

let qtest = QCheck_alcotest.to_alcotest

let all_families_small =
  [
    Gen.grid ~rows:4 ~cols:5;
    Gen.grid_diag ~seed:3 ~rows:4 ~cols:4 ();
    Gen.stacked_triangulation ~seed:5 ~n:30 ();
    Gen.thin ~seed:5 ~keep:0.5 (Gen.stacked_triangulation ~seed:5 ~n:40 ());
    Gen.path 7;
    Gen.cycle 8;
    Gen.star 9;
    Gen.wheel 10;
    Gen.fan 11;
    Gen.random_tree ~seed:2 ~n:25 ();
    Gen.caterpillar ~spine:5 ~legs:3;
  ]
  (* Every name the CLIs accept builds. *)
  @ List.map (fun family -> Gen.by_family ~seed:2 family ~n:20) Gen.families

let test_generators_valid () =
  List.iter
    (fun emb ->
      let name = Embedded.name emb in
      Alcotest.(check bool) (name ^ " connected") true
        (Algo.is_connected (Embedded.graph emb));
      Alcotest.(check bool) (name ^ " planar embedding") true
        (Embedded.is_valid emb))
    all_families_small

let test_generators_straight_line () =
  List.iter
    (fun emb ->
      match Embedded.coords emb with
      | None -> ()
      | Some coords ->
        Alcotest.(check bool)
          (Embedded.name emb ^ " no crossings")
          true
          (Geometry.straight_line_planar (Embedded.graph emb) coords))
    all_families_small

let test_grid_shape () =
  let emb = Gen.grid ~rows:3 ~cols:4 in
  let g = Embedded.graph emb in
  Alcotest.(check int) "n" 12 (Graph.n g);
  (* 3*(4-1) horizontal + 4*(3-1) vertical *)
  Alcotest.(check int) "m" 17 (Graph.m g)

let test_grid_diag_shape () =
  let emb = Gen.grid_diag ~seed:1 ~rows:3 ~cols:3 () in
  let g = Embedded.graph emb in
  Alcotest.(check int) "n" 9 (Graph.n g);
  Alcotest.(check int) "m = grid + cells" (12 + 4) (Graph.m g)

let test_stacked_is_triangulation () =
  let emb = Gen.stacked_triangulation ~seed:9 ~n:50 () in
  let g = Embedded.graph emb in
  (* Stacked triangulations have exactly 3 + 3*(n-3) edges. *)
  Alcotest.(check int) "m" (3 + (3 * 47)) (Graph.m g);
  Alcotest.(check bool) "valid" true (Embedded.is_valid emb)

let test_rotation_positions () =
  let emb = Gen.grid ~rows:2 ~cols:2 in
  let rot = Embedded.rot emb in
  (* Vertex 0 at (0,0) has neighbours 1 (east) and 2 (north). *)
  let order = Rotation.order rot 0 in
  Alcotest.(check int) "degree" 2 (Array.length order);
  Alcotest.(check int) "next cw wraps" (Rotation.next_clockwise rot 0 order.(1))
    order.(0)

let test_rotation_order_from () =
  let emb = Gen.wheel 8 in
  let rot = Embedded.rot emb in
  let hub_order = Rotation.order rot 0 in
  let first = hub_order.(3) in
  let reordered = Rotation.order_from rot 0 ~first in
  Alcotest.(check int) "starts at first" first reordered.(0);
  let sorted a =
    let c = Array.copy a in
    Array.sort compare c;
    c
  in
  Alcotest.(check (array int)) "same multiset" (sorted hub_order) (sorted reordered)

let test_faces_of_triangle () =
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  let coords = [| (0.0, 0.0); (1.0, 0.0); (0.5, 1.0) |] in
  let rot = Geometry.rotation_of_coords g coords in
  let faces = Rotation.faces g rot in
  Alcotest.(check int) "two faces" 2 (List.length faces);
  List.iter
    (fun f -> Alcotest.(check int) "triangle faces have 3 darts" 3 (List.length f))
    faces

let test_euler_rejects_bad_rotation () =
  (* K4 embedded planar vs. a twisted rotation that is non-planar. *)
  let g = Graph.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ] in
  let coords = [| (0.0, 0.0); (4.0, 0.0); (2.0, 3.0); (2.0, 1.0) |] in
  let rot_ok = Geometry.rotation_of_coords g coords in
  Alcotest.(check bool) "planar rotation ok" true (Rotation.is_planar_embedding g rot_ok);
  let twisted =
    Rotation.of_orders g
      [| [| 1; 2; 3 |]; [| 0; 2; 3 |]; [| 0; 1; 3 |]; [| 0; 1; 2 |] |]
  in
  Alcotest.(check bool) "twisted rejected" false
    (Rotation.is_planar_embedding g twisted)

let test_point_in_polygon () =
  let square = [| (0.0, 0.0); (2.0, 0.0); (2.0, 2.0); (0.0, 2.0) |] in
  Alcotest.(check bool) "inside" true (Geometry.point_in_polygon square (1.0, 1.0));
  Alcotest.(check bool) "outside" false (Geometry.point_in_polygon square (3.0, 1.0));
  Alcotest.(check bool) "outside below" false
    (Geometry.point_in_polygon square (1.0, -0.5))

let test_segments_cross () =
  Alcotest.(check bool) "cross" true
    (Geometry.segments_cross
       ((0.0, 0.0), (2.0, 2.0))
       ((0.0, 2.0), (2.0, 0.0)));
  Alcotest.(check bool) "parallel" false
    (Geometry.segments_cross
       ((0.0, 0.0), (1.0, 0.0))
       ((0.0, 1.0), (1.0, 1.0)));
  Alcotest.(check bool) "shared endpoint" false
    (Geometry.segments_cross
       ((0.0, 0.0), (1.0, 1.0))
       ((1.0, 1.0), (2.0, 0.0)))

let test_thin_keeps_connected () =
  let emb = Gen.stacked_triangulation ~seed:11 ~n:80 () in
  let thinned = Gen.thin ~seed:13 ~keep:0.1 emb in
  Alcotest.(check bool) "connected" true (Algo.is_connected (Embedded.graph thinned));
  Alcotest.(check bool) "planar" true (Embedded.is_valid thinned);
  Alcotest.(check bool) "fewer edges" true
    (Graph.m (Embedded.graph thinned) < Graph.m (Embedded.graph emb))

let prop_stacked_valid =
  QCheck.Test.make ~name:"stacked triangulations are valid embeddings" ~count:30
    QCheck.(pair (int_range 4 120) (int_bound 1000))
    (fun (n, seed) ->
      let emb = Gen.stacked_triangulation ~seed ~n () in
      Embedded.is_valid emb && Algo.is_connected (Embedded.graph emb))

let prop_grid_diag_valid =
  QCheck.Test.make ~name:"triangulated grids are valid embeddings" ~count:30
    QCheck.(pair (pair (int_range 2 12) (int_range 2 12)) (int_bound 1000))
    (fun ((r, c), seed) ->
      let emb = Gen.grid_diag ~seed ~rows:r ~cols:c () in
      Embedded.is_valid emb)

(* The walks of [Rotation.faces] partition the darts, and
   [Rotation.dart_faces] names them: one id per walk, shared by all of its
   darts and by no other walk's, numbered in order of each walk's smallest
   dart id.  Also on the hostile rotations the screen scans, whose walks do
   not close a sphere, and on a wheel's hub row. *)
let prop_faces_partition_darts =
  QCheck.Test.make ~name:"faces partition the darts" ~count:30
    QCheck.(pair (int_range 4 60) (int_bound 1000))
    (fun (n, seed) ->
      let partitioned emb =
        let g = Embedded.graph emb in
        let rot = Embedded.rot emb in
        let faces = Rotation.faces g rot in
        let face, count = Rotation.dart_faces rot in
        let dart (a, b) = Graph.adj_offset g a + Graph.neighbor_rank g a b in
        let ids =
          List.map
            (fun walk ->
              let id = face.(dart (List.hd walk)) in
              if List.for_all (fun d -> face.(dart d) = id) walk then id else -1)
            faces
        in
        let by_least_dart =
          List.map
            (fun walk -> List.fold_left (fun a d -> min a (dart d)) max_int walk)
            faces
          |> List.sort compare
          |> List.mapi (fun i least -> face.(least) = i)
        in
        List.fold_left (fun acc f -> acc + List.length f) 0 faces = 2 * Graph.m g
        && count = List.length faces
        && List.for_all (fun id -> id >= 0) ids
        && List.length (List.sort_uniq compare ids) = count
        && List.for_all Fun.id by_least_dart
      in
      let hostile = max 16 n in
      partitioned (Gen.stacked_triangulation ~seed ~n ())
      && partitioned (Gen.grid_diag ~seed ~rows:(2 + (n mod 7)) ~cols:(2 + (n / 5)) ())
      && partitioned (Gen.wheel n)
      && partitioned (Repro_testkit.Instance.corrupted_rotation ~seed ~n:hostile)
      && partitioned
           (Repro_testkit.Instance.planar_plus_chords ~seed ~n:hostile ~k:4))

let suites =
  Repro_testkit.Suite.make __MODULE__
    [
        Alcotest.test_case "generators valid" `Quick test_generators_valid;
        Alcotest.test_case "generators straight-line" `Quick
          test_generators_straight_line;
        Alcotest.test_case "grid shape" `Quick test_grid_shape;
        Alcotest.test_case "grid_diag shape" `Quick test_grid_diag_shape;
        Alcotest.test_case "stacked shape" `Quick test_stacked_is_triangulation;
        Alcotest.test_case "rotation positions" `Quick test_rotation_positions;
        Alcotest.test_case "rotation order_from" `Quick test_rotation_order_from;
        Alcotest.test_case "faces of triangle" `Quick test_faces_of_triangle;
        Alcotest.test_case "euler rejects twist" `Quick
          test_euler_rejects_bad_rotation;
        Alcotest.test_case "point in polygon" `Quick test_point_in_polygon;
        Alcotest.test_case "segments cross" `Quick test_segments_cross;
        Alcotest.test_case "thin keeps connected" `Quick test_thin_keeps_connected;
        qtest prop_stacked_valid;
        qtest prop_grid_diag_valid;
        qtest prop_faces_partition_darts;
    ]
