open Repro_graph
open Repro_embedding
open Repro_congest
open Repro_core

let qtest = QCheck_alcotest.to_alcotest

let test_dfs_families () =
  List.iter
    (fun emb ->
      let root = Embedded.outer emb in
      let r = Dfs.run emb ~root in
      Alcotest.(check bool) (Embedded.name emb ^ " is DFS tree") true
        (Dfs.verify emb ~root r))
    [
      Gen.grid ~rows:8 ~cols:8;
      Gen.grid_diag ~seed:1 ~rows:7 ~cols:7 ();
      Gen.stacked_triangulation ~seed:3 ~n:120 ();
      Gen.wheel 25;
      Gen.fan 30;
      Gen.cycle 40;
      Gen.star 35;
      Gen.path 60;
      Gen.random_tree ~seed:5 ~n:70 ();
    ]

let test_dfs_root_and_depths () =
  let emb = Gen.grid_diag ~seed:2 ~rows:6 ~cols:6 () in
  let g = Embedded.graph emb in
  let r = Dfs.run emb ~root:0 in
  Alcotest.(check int) "root parent" (-1) r.Dfs.parent.(0);
  Alcotest.(check int) "root depth" 0 r.Dfs.depth.(0);
  for v = 1 to Graph.n g - 1 do
    Alcotest.(check bool) "parent is a graph edge" true
      (Graph.mem_edge g v r.Dfs.parent.(v));
    Alcotest.(check int) "depth consistent" (r.Dfs.depth.(v) - 1)
      r.Dfs.depth.(r.Dfs.parent.(v))
  done

let test_dfs_phases_logarithmic () =
  (* O(log n) phases: sizes drop by >= 1/3 each phase, so phases <=
     log_{3/2} n plus the trailing cleanup. *)
  let emb = Gen.grid_diag ~seed:7 ~rows:16 ~cols:16 () in
  let r = Dfs.run emb ~root:0 in
  Alcotest.(check bool) "valid" true (Dfs.verify emb ~root:0 r);
  let n = 256 in
  let bound = int_of_float (3.0 *. log (float_of_int n)) + 4 in
  Alcotest.(check bool)
    (Printf.sprintf "phases %d <= %d" r.Dfs.phases bound)
    true (r.Dfs.phases <= bound)

let test_dfs_largest_component_shrinks () =
  let emb = Gen.stacked_triangulation ~seed:11 ~n:300 () in
  let r = Dfs.run emb ~root:0 in
  let rec check_decay = function
    | (_, l1, _) :: ((_, l2, _) :: _ as rest) ->
      Alcotest.(check bool)
        (Printf.sprintf "largest decays %d -> %d" l1 l2)
        true
        (float_of_int l2 <= (0.75 *. float_of_int l1) +. 2.0);
      check_decay rest
    | _ -> ()
  in
  check_decay r.Dfs.phase_log

let test_dfs_nonouter_root () =
  (* Roots in the middle of the graph are fine. *)
  let emb = Gen.grid_diag ~seed:4 ~rows:7 ~cols:7 () in
  List.iter
    (fun root ->
      let r = Dfs.run emb ~root in
      Alcotest.(check bool)
        (Printf.sprintf "root=%d" root)
        true (Dfs.verify emb ~root r))
    [ 24; 10; 48 ];
  (* A random spanning tree from an inner root: a component's minimal heavy
     face, anchored at the component root, fails every candidate, and the
     next heavy face answers. *)
  let emb = Gen.by_family ~seed:57504 "tgrid" ~n:64 in
  let r = Dfs.run ~spanning:(Repro_tree.Spanning.Random 880) emb ~root:22 in
  Alcotest.(check bool) "tgrid:64:57504:rand880 root=22" true
    (Dfs.verify emb ~root:22 r)

let test_dfs_rounds_charged () =
  let emb = Gen.grid_diag ~seed:5 ~rows:8 ~cols:8 () in
  let g = Embedded.graph emb in
  let rounds = Rounds.create ~n:(Graph.n g) ~d:(Algo.diameter g) () in
  let r = Dfs.run ~rounds emb ~root:0 in
  Alcotest.(check bool) "valid" true (Dfs.verify emb ~root:0 r);
  Alcotest.(check bool) "rounds positive" true (Rounds.total rounds > 0.0);
  Alcotest.(check bool) "embedding charged" true
    (Rounds.label_invocations rounds Embedding > 0);
  Alcotest.(check bool) "batched join elections charged" true
    (Rounds.label_invocations rounds Join_elections > 0);
  Alcotest.(check bool) "amortized verify charged" true
    (Rounds.label_invocations rounds Verify_balance > 0);
  (* The batched choreography retired the per-candidate mark-path walks. *)
  Alcotest.(check int) "no mark-path walks" 0
    (Rounds.label_invocations rounds Mark_path)

let test_join_single_path () =
  (* Joining a separator that is a straight path through the component. *)
  let emb = Gen.path 9 in
  let g = Embedded.graph emb in
  let st = Join.create g ~root:0 in
  let members = Array.init 8 (fun i -> i + 1) in
  let separator = [ 4; 5; 6 ] in
  let iters = Join.join st ~members ~separator in
  Alcotest.(check bool) "few iterations" true (iters <= 2);
  List.iter
    (fun v ->
      Alcotest.(check bool) (Printf.sprintf "%d joined" v) true (Join.in_tree st v))
    separator;
  (* Parent chain respects the path structure. *)
  Alcotest.(check int) "node 1 parent" 0 st.Join.parent.(1)

let test_join_anchor_deepest () =
  (* The anchor must be the node with the deepest visited neighbour. *)
  let g = Graph.of_edges ~n:6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0) ] in
  let st = Join.create g ~root:0 in
  (* Visit 0 -> 1 -> 2 manually. *)
  st.Join.parent.(1) <- 0;
  st.Join.depth.(1) <- 1;
  st.Join.parent.(2) <- 1;
  st.Join.depth.(2) <- 2;
  match Join.component_anchor st [| 3; 4; 5 |] with
  | Some (anchor, via) ->
    Alcotest.(check int) "anchor" 3 anchor;
    Alcotest.(check int) "via deepest" 2 via
  | None -> Alcotest.fail "no anchor"

let prop_dfs_always_valid =
  QCheck.Test.make ~name:"DFS valid on all families/sizes/roots" ~count:80
    QCheck.(
      triple (int_range 0 6) (pair (int_range 4 200) (int_bound 100000))
        (int_bound 1000))
    (fun (which, (n, seed), root_seed) ->
      let family = List.nth Gen.family_names which in
      let emb = Gen.by_family ~seed family ~n in
      let g = Embedded.graph emb in
      let root = root_seed mod Graph.n g in
      let r = Dfs.run emb ~root in
      Dfs.verify emb ~root r)

let prop_dfs_matches_reachability =
  QCheck.Test.make ~name:"DFS covers all vertices exactly once" ~count:40
    QCheck.(pair (int_range 4 120) (int_bound 100000))
    (fun (n, seed) ->
      let emb = Gen.stacked_triangulation ~seed ~n () in
      let g = Embedded.graph emb in
      let r = Dfs.run emb ~root:0 in
      let ok = ref true in
      for v = 0 to Graph.n g - 1 do
        if v <> 0 && r.Dfs.parent.(v) < 0 then ok := false;
        if r.Dfs.depth.(v) < 0 then ok := false
      done;
      !ok)

let suites =
  Repro_testkit.Suite.make __MODULE__
    [
        Alcotest.test_case "families" `Quick test_dfs_families;
        Alcotest.test_case "root and depths" `Quick test_dfs_root_and_depths;
        Alcotest.test_case "phases logarithmic" `Quick test_dfs_phases_logarithmic;
        Alcotest.test_case "components shrink" `Quick test_dfs_largest_component_shrinks;
        Alcotest.test_case "non-outer roots" `Quick test_dfs_nonouter_root;
        Alcotest.test_case "rounds charged" `Quick test_dfs_rounds_charged;
        Alcotest.test_case "join single path" `Quick test_join_single_path;
        Alcotest.test_case "join anchor deepest" `Quick test_join_anchor_deepest;
        qtest prop_dfs_always_valid;
        qtest prop_dfs_matches_reachability;
    ]
