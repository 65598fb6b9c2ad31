open Repro_graph
open Repro_embedding
open Repro_core

let qtest = QCheck_alcotest.to_alcotest

let test_build_grid () =
  let emb = Gen.grid_diag ~seed:5 ~rows:12 ~cols:12 () in
  let d = Decomposition.build ~piece_target:15 emb in
  Alcotest.(check bool) "structurally valid" true
    (Decomposition.check emb ~piece_target:15 d);
  Alcotest.(check bool) "has several pieces" true
    (List.length d.Decomposition.pieces > 3)

let test_build_tree_input () =
  let emb = Gen.random_tree ~seed:9 ~n:80 () in
  let d = Decomposition.build ~piece_target:10 emb in
  Alcotest.(check bool) "valid on trees" true
    (Decomposition.check emb ~piece_target:10 d)

let test_small_graph_single_piece () =
  let emb = Gen.cycle 8 in
  let d = Decomposition.build ~piece_target:20 emb in
  Alcotest.(check int) "one piece" 1 (List.length d.Decomposition.pieces);
  Alcotest.(check int) "no separators" 0 d.Decomposition.separator_count

let test_levels_logarithmic () =
  let emb = Gen.stacked_triangulation ~seed:3 ~n:500 () in
  let d = Decomposition.build ~piece_target:10 emb in
  Alcotest.(check bool) "valid" true (Decomposition.check emb ~piece_target:10 d);
  (* Sizes shrink by >= 1/3 per level: depth <= log_{3/2} n + slack. *)
  let bound = int_of_float (log 500.0 /. log 1.5) + 4 in
  Alcotest.(check bool)
    (Printf.sprintf "levels %d <= %d" d.Decomposition.levels bound)
    true
    (d.Decomposition.levels <= bound)

let test_exact_mis_small () =
  (* C5: maximum independent set has exactly 2 vertices. *)
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] in
  let mis = Decomposition.exact_mis g (Array.make 5 true) in
  Alcotest.(check int) "C5 MIS" 2 (List.length mis);
  Alcotest.(check bool) "independent" true (Decomposition.is_independent g mis);
  (* K4: exactly 1. *)
  let k4 = Graph.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ] in
  Alcotest.(check int) "K4 MIS" 1
    (List.length (Decomposition.exact_mis k4 (Array.make 4 true)))

let test_independent_set_application () =
  let emb = Gen.grid ~rows:10 ~cols:10 in
  let g = Embedded.graph emb in
  let d = Decomposition.build ~piece_target:30 emb in
  let mis = Decomposition.independent_set emb d in
  Alcotest.(check bool) "independent in G" true (Decomposition.is_independent g mis);
  (* The grid has an independent set of n/2 = 50; with piece target 30 the
     separator loss leaves comfortably more than n/4 of it. *)
  Alcotest.(check bool)
    (Printf.sprintf "size %d >= n/4" (List.length mis))
    true
    (List.length mis >= 25)

(* Each piece is built on one scratch, so the MIS costs words linear in
   the pieces, not one n-sized pass per piece (~890 words per vertex on
   this instance when it was), and matches the keep-array build. *)
let test_independent_set_linear () =
  let emb = Gen.by_family ~seed:1 "tgrid" ~n:5000 in
  let g = Embedded.graph emb in
  let d = Decomposition.build ~piece_target:20 emb in
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = words () in
  let mis = Decomposition.independent_set emb d in
  let per_vertex = (words () -. before) /. float_of_int (Graph.n g) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words per vertex < 400" per_vertex)
    true (per_vertex < 400.0);
  let reference =
    List.concat_map
      (fun members ->
        let keep = Array.make (Graph.n g) false in
        List.iter (fun v -> keep.(v) <- true) members;
        let sub, _, old_of_new = Graph.induced g keep in
        Decomposition.exact_mis sub (Array.make (Graph.n sub) true)
        |> List.map (fun v -> old_of_new.(v)))
      d.Decomposition.pieces
  in
  Alcotest.(check (list int)) "same MIS as the keep-array build"
    (List.sort compare reference) (List.sort compare mis)

let test_bounded_diameter_grid () =
  let emb = Gen.grid_diag ~seed:4 ~rows:12 ~cols:12 () in
  let t = Decomposition.bounded_diameter ~diameter_target:6 emb in
  Alcotest.(check bool) "valid BDD" true
    (Decomposition.check_bounded_diameter emb ~diameter_target:6 t);
  Alcotest.(check bool) "several pieces" true
    (List.length t.Decomposition.pieces > 2)

let test_bounded_diameter_path () =
  (* A path of 40 nodes with target 5: pieces of <= 6 nodes. *)
  let emb = Gen.path 40 in
  let t = Decomposition.bounded_diameter ~diameter_target:5 emb in
  Alcotest.(check bool) "valid" true
    (Decomposition.check_bounded_diameter emb ~diameter_target:5 t);
  List.iter
    (fun p -> Alcotest.(check bool) "piece small" true (List.length p <= 6))
    t.Decomposition.pieces

let test_bounded_diameter_already_small () =
  let emb = Gen.wheel 20 in
  (* Wheel has diameter 2. *)
  let t = Decomposition.bounded_diameter ~diameter_target:4 emb in
  Alcotest.(check int) "one piece" 1 (List.length t.Decomposition.pieces);
  Alcotest.(check int) "no separator" 0 t.Decomposition.separator_count

let prop_bounded_diameter_valid =
  QCheck.Test.make ~name:"BDD valid across instances" ~count:15
    QCheck.(triple (int_range 20 150) (int_range 3 10) (int_bound 10000))
    (fun (n, target, seed) ->
      let emb = Gen.stacked_triangulation ~seed ~n () in
      let t = Decomposition.bounded_diameter ~diameter_target:target emb in
      Decomposition.check_bounded_diameter emb ~diameter_target:target t)

let prop_decomposition_valid =
  QCheck.Test.make ~name:"decomposition valid across families" ~count:30
    QCheck.(triple (int_range 0 6) (int_range 20 200) (int_bound 10000))
    (fun (which, n, seed) ->
      let family = List.nth Gen.family_names which in
      let emb = Gen.by_family ~seed family ~n in
      let target = 8 + (seed mod 20) in
      let d = Decomposition.build ~piece_target:target emb in
      Decomposition.check emb ~piece_target:target d)

let prop_mis_always_independent =
  QCheck.Test.make ~name:"divide-and-conquer MIS independent" ~count:15
    QCheck.(pair (int_range 20 120) (int_bound 10000))
    (fun (n, seed) ->
      let emb = Gen.stacked_triangulation ~seed ~n () in
      let g = Embedded.graph emb in
      let d = Decomposition.build ~piece_target:14 emb in
      let mis = Decomposition.independent_set emb d in
      Decomposition.is_independent g mis && mis <> [])

let suites =
  Repro_testkit.Suite.make __MODULE__
    [
        Alcotest.test_case "grid" `Quick test_build_grid;
        Alcotest.test_case "tree input" `Quick test_build_tree_input;
        Alcotest.test_case "single piece" `Quick test_small_graph_single_piece;
        Alcotest.test_case "levels logarithmic" `Quick test_levels_logarithmic;
        Alcotest.test_case "exact MIS" `Quick test_exact_mis_small;
        Alcotest.test_case "MIS application" `Quick test_independent_set_application;
        Alcotest.test_case "MIS linear in the pieces" `Quick
          test_independent_set_linear;
        Alcotest.test_case "BDD grid" `Quick test_bounded_diameter_grid;
        Alcotest.test_case "BDD path" `Quick test_bounded_diameter_path;
        Alcotest.test_case "BDD already small" `Quick
          test_bounded_diameter_already_small;
        qtest prop_bounded_diameter_valid;
        qtest prop_decomposition_valid;
        qtest prop_mis_always_independent;
    ]
