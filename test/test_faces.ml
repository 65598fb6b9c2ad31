open Repro_graph
open Repro_embedding
open Repro_tree
open Repro_core

let qtest = QCheck_alcotest.to_alcotest

let cfg_of ?(spanning = Spanning.Bfs) emb = Config.of_embedded ~spanning emb

(* Small square face in the 3x3 grid, BFS tree from corner 0. *)
let grid3 = Gen.grid ~rows:3 ~cols:3

let test_fundamental_edges_are_nontree () =
  let cfg = cfg_of grid3 in
  let tree = Config.tree cfg in
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool) "non-tree" false
        (Rooted.parent tree u = v || Rooted.parent tree v = u);
      Alcotest.(check bool) "normalized" true
        (Rooted.pi_left tree u < Rooted.pi_left tree v))
    (Test_weights.fundamental cfg);
  (* m - (n-1) fundamental edges *)
  Alcotest.(check int) "count" (12 - 8) (List.length (Test_weights.fundamental cfg))

let test_border_is_tree_path () =
  let cfg = cfg_of (Gen.grid_diag ~seed:1 ~rows:4 ~cols:4 ()) in
  let tree = Config.tree cfg in
  List.iter
    (fun (u, v) ->
      let b = Faces.border cfg ~u ~v in
      Alcotest.(check (list int)) "border = tree path" (Rooted.path tree u v) b;
      List.iter
        (fun x ->
          Alcotest.(check bool) "on_border agrees" true (Faces.on_border cfg ~u ~v x))
        b)
    (Test_weights.fundamental cfg)

let test_classify_cases () =
  let cfg = cfg_of ~spanning:Spanning.Dfs grid3 in
  let tree = Config.tree cfg in
  List.iter
    (fun (u, v) ->
      match Faces.classify cfg ~u ~v with
      | Faces.Unrelated ->
        Alcotest.(check bool) "not ancestor" false
          (Rooted.is_ancestor tree ~anc:u ~desc:v)
      | Faces.Anc_left | Faces.Anc_right ->
        Alcotest.(check bool) "ancestor" true (Rooted.is_ancestor tree ~anc:u ~desc:v))
    (Test_weights.fundamental cfg)

let test_interior_closed_under_subtrees () =
  let cfg = cfg_of ~spanning:(Spanning.Random 3) (Gen.stacked_triangulation ~seed:4 ~n:50 ()) in
  let tree = Config.tree cfg in
  List.iter
    (fun (u, v) ->
      let interior = Faces.interior_reference cfg ~u ~v in
      let inside = Hashtbl.create 16 in
      List.iter (fun z -> Hashtbl.replace inside z ()) interior;
      List.iter
        (fun z ->
          Array.iter
            (fun c ->
              Alcotest.(check bool) "child of interior node is interior" true
                (Hashtbl.mem inside c))
            (Rooted.children tree z))
        interior)
    (Test_weights.fundamental cfg)

let test_interior_disjoint_from_border () =
  let cfg = cfg_of (Gen.grid_diag ~seed:5 ~rows:5 ~cols:5 ()) in
  List.iter
    (fun (u, v) ->
      List.iter
        (fun z ->
          Alcotest.(check bool) "interior not on border" false
            (Faces.on_border cfg ~u ~v z))
        (Faces.interior_reference cfg ~u ~v))
    (Test_weights.fundamental cfg)

(* The central consistency property: local characterization = exact
   reference, across families and spanning trees. *)
let prop_local_interior_matches_reference =
  QCheck.Test.make ~name:"local interior = face-traversal reference" ~count:60
    QCheck.(triple (int_range 0 4) (int_range 8 60) (int_bound 10000))
    (fun (which, n, seed) ->
      let emb =
        match which with
        | 0 -> Gen.grid_diag ~seed ~rows:(max 2 (n / 8)) ~cols:8 ()
        | 1 -> Gen.stacked_triangulation ~seed ~n ()
        | 2 -> Gen.thin ~seed ~keep:0.5 (Gen.stacked_triangulation ~seed ~n ())
        | 3 -> Gen.wheel (max 4 n)
        | _ -> Gen.fan (max 3 n)
      in
      let spanning =
        match seed mod 3 with
        | 0 -> Spanning.Bfs
        | 1 -> Spanning.Dfs
        | _ -> Spanning.Random seed
      in
      let cfg = Config.of_embedded ~spanning emb in
      List.for_all
        (fun (u, v) ->
          let a = List.sort compare (Faces.interior cfg ~u ~v) in
          let b = List.sort compare (Faces.interior_reference cfg ~u ~v) in
          a = b)
        (Test_weights.fundamental cfg))

(* The same agreement on the part configurations the separator actually
   sees ([Config.of_part]: root_first = None, root anywhere) — the local
   rule is what Phases 4 and 5 enumerate a face with. *)
let prop_local_interior_matches_reference_on_parts =
  QCheck.Test.make ~name:"local interior = face-traversal reference (parts)"
    ~count:40 Test_weights.arb_part_family (fun (which, n, seed) ->
      List.for_all
        (fun cfg ->
          List.for_all
            (fun (u, v) ->
              List.sort compare (Faces.interior cfg ~u ~v)
              = List.sort compare (Faces.interior_reference cfg ~u ~v))
            (Test_weights.fundamental cfg))
        (Test_weights.part_configs (Test_weights.part_family which ~n ~seed)))

let prop_is_inside_matches_reference =
  QCheck.Test.make ~name:"is_inside = reference membership" ~count:40
    QCheck.(pair (int_range 8 40) (int_bound 10000))
    (fun (n, seed) ->
      let emb = Gen.stacked_triangulation ~seed ~n () in
      let spanning = if seed mod 2 = 0 then Spanning.Dfs else Spanning.Random seed in
      let cfg = Config.of_embedded ~spanning emb in
      let g = Config.graph cfg in
      List.for_all
        (fun (u, v) ->
          let inside = Hashtbl.create 16 in
          List.iter
            (fun z -> Hashtbl.replace inside z ())
            (Faces.interior_reference cfg ~u ~v);
          let ok = ref true in
          for z = 0 to Graph.n g - 1 do
            if Faces.is_inside cfg ~u ~v z <> Hashtbl.mem inside z then ok := false
          done;
          !ok)
        (Test_weights.fundamental cfg))

(* Geometric ground truth: interior nodes lie inside the drawn polygon. *)
let prop_interior_matches_geometry =
  QCheck.Test.make ~name:"interior = point-in-polygon (straight-line)" ~count:30
    QCheck.(pair (pair (int_range 3 7) (int_range 3 7)) (int_bound 10000))
    (fun ((r, c), seed) ->
      let emb = Gen.grid_diag ~seed ~rows:r ~cols:c () in
      let coords = Option.get (Embedded.coords emb) in
      let spanning = if seed mod 2 = 0 then Spanning.Bfs else Spanning.Dfs in
      let cfg = Config.of_embedded ~spanning emb in
      let tree = Config.tree cfg in
      let g = Config.graph cfg in
      List.for_all
        (fun (u, v) ->
          let poly =
            Rooted.path tree u v |> List.map (fun x -> coords.(x)) |> Array.of_list
          in
          let ok = ref true in
          for z = 0 to Graph.n g - 1 do
            if not (Faces.on_border cfg ~u ~v z) then begin
              if
                Geometry.point_in_polygon poly coords.(z)
                <> Faces.is_inside cfg ~u ~v z
              then ok := false
            end
          done;
          !ok)
        (Test_weights.fundamental cfg))

(* [on_border] against membership in the tree path, for every fundamental
   edge and vertex: every family with fundamental edges, under BFS, DFS
   and random trees, on the whole-graph configuration and on a part
   configuration of every vertex rooted at a seeded random vertex (no
   virtual root edge). *)
let border_families = [ "grid"; "tgrid"; "stacked"; "thinned"; "cycle"; "fan"; "wheel" ]

let prop_on_border_is_tree_path =
  QCheck.Test.make ~name:"on_border = tree-path membership" ~count:10
    QCheck.(pair (int_range 8 60) (int_bound 10000))
    (fun (n, seed) ->
      List.for_all
        (fun family ->
          let emb = Gen.by_family ~seed family ~n in
          let nn = Graph.n (Embedded.graph emb) in
          let root = Repro_util.Rng.int (Repro_util.Rng.create seed) nn in
          List.for_all
            (fun spanning ->
              List.for_all
                (fun cfg ->
                  let tree = Config.tree cfg in
                  let on_path = Array.make nn false in
                  List.for_all
                    (fun (u, v) ->
                      let path = Rooted.path tree u v in
                      List.iter (fun x -> on_path.(x) <- true) path;
                      let ok = ref true in
                      for x = 0 to nn - 1 do
                        if Faces.on_border cfg ~u ~v x <> on_path.(x) then ok := false
                      done;
                      List.iter (fun x -> on_path.(x) <- false) path;
                      !ok)
                    (Test_weights.fundamental cfg))
                [
                  Config.of_embedded ~spanning emb;
                  Config.of_part ~spanning ~members:(Array.init nn Fun.id) ~root emb;
                ])
            [ Spanning.Bfs; Spanning.Dfs; Spanning.Random seed ])
        border_families)

let test_edge_in_face_self () =
  let cfg = cfg_of (Gen.grid_diag ~seed:2 ~rows:4 ~cols:4 ()) in
  List.iter
    (fun e ->
      let (u, v) = e in
      Alcotest.(check bool) "edge not in own face" false
        (Faces.edge_in_face cfg ~e ~f:(u, v)))
    (Test_weights.fundamental cfg)

let test_edge_in_face_region_containment () =
  (* If f is contained in F_e, then F_f's closed region lies within F_e's:
     interior(F_f) ⊆ interior(F_e) ∪ border(F_e), and the weights differ by
     at most the border length (the paper's monotonicity, made precise). *)
  let cfg = cfg_of ~spanning:Spanning.Dfs (Gen.stacked_triangulation ~seed:6 ~n:40 ()) in
  let edges = Test_weights.fundamental cfg in
  List.iter
    (fun e ->
      List.iter
        (fun f ->
          if e <> f && Faces.edge_in_face cfg ~e ~f then begin
            let (ue, ve) = e and (uf, vf) = f in
            let member z =
              Faces.is_inside cfg ~u:ue ~v:ve z || Faces.on_border cfg ~u:ue ~v:ve z
            in
            List.iter
              (fun z ->
                Alcotest.(check bool)
                  (Printf.sprintf "interior (%d,%d) within (%d,%d)" uf vf ue ve)
                  true (member z))
              (Faces.interior_reference cfg ~u:uf ~v:vf);
            let we = Weights.weight cfg ~u:ue ~v:ve in
            let wf = Weights.weight cfg ~u:uf ~v:vf in
            let border_e = List.length (Faces.border cfg ~u:ue ~v:ve) in
            Alcotest.(check bool)
              (Printf.sprintf "w contained (%d,%d)<=(%d,%d)+border" uf vf ue ve)
              true
              (wf <= we + border_e)
          end)
        edges)
    edges

let test_induced_part_rotation_planar () =
  (* Config.of_part inherits the embedding by restriction; the induced
     rotation must still satisfy Euler's formula. *)
  let emb = Gen.grid_diag ~seed:6 ~rows:6 ~cols:6 () in
  let members = Array.init 24 Fun.id in
  let cfg = Config.of_part ~members ~root:0 emb in
  Alcotest.(check bool) "induced rotation planar" true
    (Repro_embedding.Rotation.is_planar_embedding (Config.graph cfg) (Config.rot cfg));
  (* Local ids map back into the member set. *)
  for v = 0 to Config.n cfg - 1 do
    Alcotest.(check bool) "to_global in members" true
      (Array.mem (Config.to_global cfg v) members)
  done

let test_of_part_requires_connected () =
  let emb = Gen.grid ~rows:3 ~cols:3 in
  (* Two opposite corners only: disconnected member set. *)
  (* The spanning-tree construction cannot cover a disconnected part; the
     failure surfaces as an Invalid_argument from tree assembly. *)
  match Config.of_part ~members:[| 0; 8 |] ~root:0 emb with
  | _ -> Alcotest.fail "disconnected part accepted"
  | exception Invalid_argument _ -> ()

let suites =
  Repro_testkit.Suite.make __MODULE__
    [
        Alcotest.test_case "fundamental edges" `Quick test_fundamental_edges_are_nontree;
        Alcotest.test_case "border is tree path" `Quick test_border_is_tree_path;
        Alcotest.test_case "classify cases" `Quick test_classify_cases;
        Alcotest.test_case "interior closed under subtrees" `Quick
          test_interior_closed_under_subtrees;
        Alcotest.test_case "interior/border disjoint" `Quick
          test_interior_disjoint_from_border;
        Alcotest.test_case "edge not in own face" `Quick test_edge_in_face_self;
        Alcotest.test_case "induced part rotation planar" `Quick
          test_induced_part_rotation_planar;
        Alcotest.test_case "of_part rejects disconnected" `Quick
          test_of_part_requires_connected;
        Alcotest.test_case "containment implies region order" `Quick
          test_edge_in_face_region_containment;
        qtest prop_local_interior_matches_reference;
        qtest prop_local_interior_matches_reference_on_parts;
        qtest prop_is_inside_matches_reference;
        qtest prop_on_border_is_tree_path;
        qtest prop_interior_matches_geometry;
    ]
