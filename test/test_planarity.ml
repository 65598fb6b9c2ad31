open Repro_graph
open Repro_embedding
open Repro_tree
open Repro_core

let qtest = QCheck_alcotest.to_alcotest

let shuffle_labels ~seed g =
  let n = Graph.n g in
  let perm = Array.init n Fun.id in
  Repro_util.Rng.shuffle_in_place (Repro_util.Rng.create seed) perm;
  Graph.of_edges ~n (List.map (fun (u, v) -> (perm.(u), perm.(v))) (Graph.edges g))

let k5 =
  Graph.of_edges ~n:5
    [ (0, 1); (0, 2); (0, 3); (0, 4); (1, 2); (1, 3); (1, 4); (2, 3); (2, 4); (3, 4) ]

let k33 =
  Graph.of_edges ~n:6
    (List.concat_map (fun i -> List.map (fun j -> (i, 3 + j)) [ 0; 1; 2 ]) [ 0; 1; 2 ])

let petersen =
  Graph.of_edges ~n:10
    ([ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ]
    @ List.init 5 (fun i -> (i, i + 5))
    @ [ (5, 7); (7, 9); (9, 6); (6, 8); (8, 5) ])

let test_biconnected_blocks () =
  (* Two triangles joined at a cut vertex: two blocks. *)
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 2) ] in
  let blocks = Planarity.biconnected_components g in
  Alcotest.(check int) "two blocks" 2 (List.length blocks);
  List.iter
    (fun b -> Alcotest.(check int) "triangle block" 3 (List.length b))
    blocks;
  (* A path: every edge its own (bridge) block. *)
  let p = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check int) "bridges" 3 (List.length (Planarity.biconnected_components p))

let test_embeds_all_families_shuffled () =
  List.iter
    (fun fam ->
      let emb = Gen.by_family ~seed:3 fam ~n:90 in
      let g = shuffle_labels ~seed:41 (Embedded.graph emb) in
      match Planarity.embed g with
      | Some rot ->
        Alcotest.(check bool) (fam ^ " euler") true
          (Rotation.is_planar_embedding g rot)
      | None -> Alcotest.failf "%s rejected" fam)
    Gen.family_names

let test_rejects_kuratowski () =
  Alcotest.(check bool) "K5" false (Planarity.is_planar k5);
  Alcotest.(check bool) "K3,3" false (Planarity.is_planar k33);
  Alcotest.(check bool) "Petersen" false (Planarity.is_planar petersen);
  (* Subdivision of K5 (subdivide edge 3-4). *)
  let k5sub =
    Graph.of_edges ~n:6
      [ (0, 1); (0, 2); (0, 3); (0, 4); (1, 2); (1, 3); (1, 4); (2, 3); (2, 4);
        (3, 5); (5, 4) ]
  in
  Alcotest.(check bool) "K5 subdivision" false (Planarity.is_planar k5sub)

let test_accepts_near_kuratowski () =
  let k5_minus =
    Graph.of_edges ~n:5
      [ (0, 1); (0, 2); (0, 3); (0, 4); (1, 2); (1, 3); (1, 4); (2, 3); (2, 4) ]
  in
  Alcotest.(check bool) "K5 - e" true (Planarity.is_planar k5_minus);
  let k33_minus =
    Graph.of_edges ~n:6
      [ (0, 3); (0, 4); (0, 5); (1, 3); (1, 4); (1, 5); (2, 3); (2, 4) ]
  in
  Alcotest.(check bool) "K3,3 - e" true (Planarity.is_planar k33_minus)

let test_hidden_kuratowski_in_planar_host () =
  (* A planar grid with a K5 hanging off one corner through a bridge. *)
  let grid = Embedded.graph (Gen.grid ~rows:5 ~cols:5) in
  let glued =
    Graph.of_edges ~n:31
      (Graph.edges grid
      @ [ (24, 25) ]
      @ [ (25, 26); (25, 27); (25, 28); (25, 29); (26, 27); (26, 28); (26, 29);
          (27, 28); (27, 29); (28, 29) ])
  in
  Alcotest.(check bool) "glued K5 rejected" false (Planarity.is_planar glued)

let test_disconnected_and_isolated () =
  let g =
    Graph.of_edges ~n:8 [ (0, 1); (1, 2); (2, 0); (4, 5); (5, 6); (6, 7); (7, 4); (4, 6) ]
  in
  match Planarity.embed g with
  | Some rot ->
    Alcotest.(check bool) "euler" true (Rotation.is_planar_embedding g rot)
  | None -> Alcotest.fail "disconnected planar rejected"

let test_empty_and_tiny () =
  Alcotest.(check bool) "empty" true (Planarity.is_planar (Graph.of_edges ~n:0 []));
  Alcotest.(check bool) "single" true (Planarity.is_planar (Graph.of_edges ~n:1 []));
  Alcotest.(check bool) "edge" true (Planarity.is_planar (Graph.of_edges ~n:2 [ (0, 1) ]))

let test_edge_bound_shortcut () =
  (* m > 3n - 6 is rejected without running DMP. *)
  let rng = Repro_util.Rng.create 3 in
  let edges = ref [] in
  for _ = 1 to 200 do
    let u = Repro_util.Rng.int rng 15 and v = Repro_util.Rng.int rng 15 in
    if u <> v then edges := (u, v) :: !edges
  done;
  let g = Graph.of_edges ~n:15 !edges in
  if Graph.m g > 39 then
    Alcotest.(check bool) "dense rejected" false (Planarity.is_planar g)

let prop_generated_planar_always_embedded =
  QCheck.Test.make ~name:"DMP embeds every generated planar graph" ~count:50
    QCheck.(triple (int_range 0 6) (int_range 6 120) (int_bound 10000))
    (fun (which, n, seed) ->
      let fam = List.nth Gen.family_names which in
      let emb = Gen.by_family ~seed fam ~n in
      let g = shuffle_labels ~seed:(seed + 1) (Embedded.graph emb) in
      match Planarity.embed g with
      | Some rot -> Rotation.is_planar_embedding g rot
      | None -> false)

(* A coordinate-free embedding: shuffle the labels, re-embed with DMP. *)
let dmp_embedding ~seed emb0 =
  let g = shuffle_labels ~seed (Embedded.graph emb0) in
  Option.map (Embedded.make ~name:"dmp" g) (Planarity.embed g)

let prop_separator_works_on_dmp_embeddings =
  (* The algorithmic pipeline runs on embeddings produced without any
     coordinates, so the configuration has no outward root direction:
     generate, shuffle labels, re-embed with DMP, separate. *)
  QCheck.Test.make ~name:"separator valid on DMP-embedded graphs" ~count:25
    QCheck.(
      triple (int_range 0 6) (pair (int_range 10 120) (int_bound 10000))
        (int_range 0 2))
    (fun (which, (n, seed), spi) ->
      let family = List.nth Gen.family_names which in
      match dmp_embedding ~seed:(seed + 7) (Gen.by_family ~seed family ~n) with
      | None -> false
      | Some emb ->
        let spanning =
          match spi with
          | 0 -> Spanning.Bfs
          | 1 -> Spanning.Dfs
          | _ -> Spanning.Random seed
        in
        let cfg = Config.of_embedded ~spanning emb in
        let r = Separator.find cfg in
        (Check.check_separator cfg r.Separator.separator).Check.valid
        && Option.fold ~none:true
             ~some:(fun endpoints -> Check.cycle_closable cfg ~endpoints)
             r.Separator.endpoints)

let test_separator_dmp_grid_pinned () =
  (* The minimal heavy face is anchored at the root and every one of its
     candidates fails; the next heavy face answers. *)
  match
    dmp_embedding ~seed:833964 (Gen.by_family ~seed:833963 "grid" ~n:46)
  with
  | None -> Alcotest.fail "grid rejected"
  | Some emb -> (
    let cfg = Config.of_embedded ~spanning:(Spanning.Random 833963) emb in
    let r = Separator.find cfg in
    Alcotest.(check bool) "valid" true
      (Check.check_separator cfg r.Separator.separator).Check.valid;
    match r.Separator.endpoints with
    | Some endpoints ->
      Alcotest.(check bool) "closing edge certified" true
        (Check.cycle_closable cfg ~endpoints)
    | None -> Alcotest.fail "no closing edge reported")

let prop_dfs_works_on_dmp_embeddings =
  QCheck.Test.make ~name:"DFS valid on DMP-embedded graphs" ~count:15
    QCheck.(pair (int_range 10 100) (int_bound 10000))
    (fun (n, seed) ->
      let emb0 =
        Gen.thin ~seed ~keep:0.7 (Gen.stacked_triangulation ~seed ~n ())
      in
      match dmp_embedding ~seed:(seed + 3) emb0 with
      | None -> false
      | Some emb -> Dfs.verify emb ~root:0 (Dfs.run emb ~root:0))

let suites =
  Repro_testkit.Suite.make __MODULE__
    [
        Alcotest.test_case "biconnected blocks" `Quick test_biconnected_blocks;
        Alcotest.test_case "embeds families (shuffled)" `Quick
          test_embeds_all_families_shuffled;
        Alcotest.test_case "rejects Kuratowski" `Quick test_rejects_kuratowski;
        Alcotest.test_case "accepts near-Kuratowski" `Quick
          test_accepts_near_kuratowski;
        Alcotest.test_case "K5 behind a bridge" `Quick
          test_hidden_kuratowski_in_planar_host;
        Alcotest.test_case "disconnected + isolated" `Quick
          test_disconnected_and_isolated;
        Alcotest.test_case "tiny graphs" `Quick test_empty_and_tiny;
        Alcotest.test_case "edge-bound shortcut" `Quick test_edge_bound_shortcut;
        qtest prop_generated_planar_always_embedded;
        qtest prop_separator_works_on_dmp_embeddings;
        Alcotest.test_case "separator on a DMP-embedded grid" `Quick
          test_separator_dmp_grid_pinned;
        qtest prop_dfs_works_on_dmp_embeddings;
    ]
