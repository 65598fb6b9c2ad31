open Repro_graph
open Repro_embedding
open Repro_tree

let qtest = QCheck_alcotest.to_alcotest

let build_on emb kind =
  let g = Embedded.graph emb in
  let root = Embedded.outer emb in
  let parent = Spanning.make kind g ~root in
  Rooted.build ~rot:(Embedded.rot emb) ~root parent

let grid44 = Gen.grid ~rows:4 ~cols:4

let test_bfs_tree_depths () =
  let t = build_on grid44 Spanning.Bfs in
  let g = Embedded.graph grid44 in
  let dist = Algo.bfs_dist g (Rooted.root t) in
  for v = 0 to Graph.n g - 1 do
    Alcotest.(check int) "bfs depth = dist" dist.(v) (Rooted.depth t v)
  done

let test_sizes_sum () =
  let t = build_on grid44 Spanning.Dfs in
  Alcotest.(check int) "root size = n" 16 (Rooted.size t (Rooted.root t));
  (* Sum over each node of 1 + children sizes is consistent. *)
  for v = 0 to 15 do
    let s =
      Array.fold_left (fun acc c -> acc + Rooted.size t c) 1 (Rooted.children t v)
    in
    Alcotest.(check int) "size consistency" (Rooted.size t v) s
  done

let orders_are_permutation t =
  let n = Rooted.n t in
  let seen_l = Array.make n false and seen_r = Array.make n false in
  for v = 0 to n - 1 do
    seen_l.(Rooted.pi_left t v) <- true;
    seen_r.(Rooted.pi_right t v) <- true
  done;
  Array.for_all Fun.id seen_l && Array.for_all Fun.id seen_r

let test_orders_permutation () =
  List.iter
    (fun kind ->
      let t = build_on grid44 kind in
      Alcotest.(check bool) "permutation" true (orders_are_permutation t))
    [ Spanning.Bfs; Spanning.Dfs; Spanning.Random 3 ]

(* On the paper's Figure 2 shape: root with ordered children; check that the
   left order takes the counterclockwise-most child first. *)
let test_left_right_orders_tiny () =
  (* Star with hub 0 at origin and three leaves; clockwise rotation around
     the hub is by decreasing angle. *)
  let g = Graph.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3) ] in
  let coords = [| (0.0, 0.0); (-1.0, 1.0); (0.0, 1.5); (1.0, 1.0) |] in
  let rot = Geometry.rotation_of_coords g coords in
  let parent = [| -1; 0; 0; 0 |] in
  (* Clockwise from the leftmost leaf: 1 (135°), 2 (90°), 3 (45°). *)
  let t = Rooted.build ~root_first:1 ~rot ~root:0 parent in
  Alcotest.(check int) "root left pos" 0 (Rooted.pi_left t 0);
  (* RIGHT order explores clockwise: 1, 2, 3. *)
  Alcotest.(check int) "right: leaf1" 1 (Rooted.pi_right t 1);
  Alcotest.(check int) "right: leaf2" 2 (Rooted.pi_right t 2);
  Alcotest.(check int) "right: leaf3" 3 (Rooted.pi_right t 3);
  (* LEFT order explores counterclockwise: 3, 2, 1. *)
  Alcotest.(check int) "left: leaf3" 1 (Rooted.pi_left t 3);
  Alcotest.(check int) "left: leaf2" 2 (Rooted.pi_left t 2);
  Alcotest.(check int) "left: leaf1" 3 (Rooted.pi_left t 1)

let test_subtree_intervals () =
  let t = build_on (Gen.stacked_triangulation ~seed:4 ~n:40 ()) Spanning.Dfs in
  let n = Rooted.n t in
  for v = 0 to n - 1 do
    for u = 0 to n - 1 do
      let in_interval =
        Rooted.pi_left t u >= Rooted.pi_left t v
        && Rooted.pi_left t u < Rooted.pi_left t v + Rooted.size t v
      in
      Alcotest.(check bool) "interval = subtree" in_interval
        (Rooted.is_ancestor t ~anc:v ~desc:u)
    done
  done

let test_lca_small () =
  (* Path 0-1-2-3-4 rooted at 2. *)
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let rot = Rotation.of_adjacency g in
  let parent = [| 1; 2; -1; 2; 3 |] in
  let t = Rooted.build ~rot ~root:2 parent in
  Alcotest.(check int) "lca(0,4)" 2 (Rooted.lca t 0 4);
  Alcotest.(check int) "lca(3,4)" 3 (Rooted.lca t 3 4);
  Alcotest.(check int) "lca(0,1)" 1 (Rooted.lca t 0 1);
  Alcotest.(check int) "lca(x,x)" 4 (Rooted.lca t 4 4)

let naive_lca t a b =
  let rec ancestors v = if v < 0 then [] else v :: ancestors (Rooted.parent t v) in
  let aa = ancestors a in
  let rec first_common = function
    | [] -> assert false
    | v :: rest -> if List.mem v aa then v else first_common rest
  in
  first_common (ancestors b)

let test_path_endpoints () =
  let t = build_on grid44 Spanning.Dfs in
  let p = Rooted.path t 3 12 in
  Alcotest.(check int) "starts at u" 3 (List.hd p);
  Alcotest.(check int) "ends at v" 12 (List.nth p (List.length p - 1));
  let w = Rooted.lca t 3 12 in
  Alcotest.(check int) "length"
    (Rooted.depth t 3 + Rooted.depth t 12 - (2 * Rooted.depth t w) + 1)
    (List.length p);
  (* Consecutive path nodes are tree edges. *)
  let rec consecutive = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "tree edge" true
        (Rooted.parent t a = b || Rooted.parent t b = a);
      consecutive rest
    | _ -> ()
  in
  consecutive p

let test_centroid_star () =
  let emb = Gen.star 20 in
  let g = Embedded.graph emb in
  let parent = Spanning.bfs g ~root:1 in
  let t = Rooted.build ~rot:(Embedded.rot emb) ~root:1 parent in
  Alcotest.(check int) "star centroid is hub" 0 (Rooted.centroid t)

let test_centroid_path () =
  let emb = Gen.path 9 in
  let g = Embedded.graph emb in
  let parent = Spanning.bfs g ~root:0 in
  let t = Rooted.build ~rot:(Embedded.rot emb) ~root:0 parent in
  Alcotest.(check int) "middle of path" 4 (Rooted.centroid t)

let test_reroot_preserves_edges () =
  let emb = Gen.stacked_triangulation ~seed:8 ~n:30 () in
  let t = build_on emb Spanning.Dfs in
  let t' = Rooted.reroot ~rot:(Embedded.rot emb) t 17 in
  Alcotest.(check int) "new root" 17 (Rooted.root t');
  Alcotest.(check int) "root depth 0" 0 (Rooted.depth t' 17);
  let norm es = List.map (fun (a, b) -> (min a b, max a b)) es |> List.sort compare in
  Alcotest.(check (list (pair int int))) "same edges"
    (norm (Rooted.edges t)) (norm (Rooted.edges t'));
  (* Depth in the re-rooted tree equals tree distance to the new root. *)
  for v = 0 to Rooted.n t - 1 do
    Alcotest.(check int) "depth = path length"
      (List.length (Rooted.path t v 17) - 1)
      (Rooted.depth t' v)
  done

let prop_lca_matches_naive =
  QCheck.Test.make ~name:"interval-climb LCA = naive LCA" ~count:60
    QCheck.(triple (int_range 4 60) (int_bound 1000) (int_bound 10000))
    (fun (n, seed, qseed) ->
      let emb = Gen.stacked_triangulation ~seed ~n () in
      let t = build_on emb (Spanning.Random seed) in
      let rng = Repro_util.Rng.create qseed in
      let ok = ref true in
      for _ = 1 to 20 do
        let a = Repro_util.Rng.int rng n and b = Repro_util.Rng.int rng n in
        if Rooted.lca t a b <> naive_lca t a b then ok := false
      done;
      !ok)

(* For every node z and every strict ancestor x on its parent chain, the
   child of x towards z is the chain node just below x.  Random trees, and
   wheels, fans and stars whose hub rows run to n - 1 children, each from
   a seeded root, spanning kind and virtual root edge. *)
let prop_child_toward =
  QCheck.Test.make ~name:"child_toward = chain node below" ~count:60
    QCheck.(triple (int_range 0 3) (int_range 4 300) (int_bound 1000))
    (fun (which, n, seed) ->
      let emb =
        match which with
        | 0 -> Gen.random_tree ~seed ~n ()
        | 1 -> Gen.wheel n
        | 2 -> Gen.fan n
        | _ -> Gen.star n
      in
      let g = Embedded.graph emb and rot = Embedded.rot emb in
      let root = Repro_util.Rng.int (Repro_util.Rng.create seed) (Graph.n g) in
      let kind =
        match seed mod 3 with
        | 0 -> Spanning.Bfs
        | 1 -> Spanning.Dfs
        | _ -> Spanning.Random seed
      in
      let root_first = Rotation.nth rot root (seed mod Rotation.degree rot root) in
      let t =
        Rooted.build ~root_first ~rot ~root (Spanning.make kind g ~root)
      in
      let ok = ref true in
      for z = 0 to Rooted.n t - 1 do
        let below = ref z in
        while Rooted.parent t !below >= 0 do
          let x = Rooted.parent t !below in
          if Rooted.child_toward t x z <> !below then ok := false;
          below := x
        done
      done;
      !ok)

let prop_orders_subtree_contiguous =
  QCheck.Test.make ~name:"right order also has contiguous subtrees" ~count:40
    QCheck.(pair (int_range 4 50) (int_bound 1000))
    (fun (n, seed) ->
      let emb = Gen.stacked_triangulation ~seed ~n () in
      let t = build_on emb Spanning.Dfs in
      let ok = ref true in
      for v = 0 to n - 1 do
        for u = 0 to n - 1 do
          let anc = Rooted.is_ancestor t ~anc:v ~desc:u in
          let in_r =
            Rooted.pi_right t u >= Rooted.pi_right t v
            && Rooted.pi_right t u < Rooted.pi_right t v + Rooted.size t v
          in
          if anc <> in_r then ok := false
        done
      done;
      !ok)

(* RIGHT-DFS-ORDER as defined: a pre-order that visits each node's
   children clockwise, i.e. in child-row order, on an explicit stack (deep
   paths would overflow a recursive walk). *)
let clockwise_preorder t =
  let pi = Array.make (Rooted.n t) (-1) in
  let clock = ref 0 and stack = ref [ Rooted.root t ] in
  while !stack <> [] do
    let v = List.hd !stack in
    pi.(v) <- !clock;
    incr clock;
    stack := Array.to_list (Rooted.children t v) @ List.tl !stack
  done;
  pi

let right_is_clockwise_preorder t =
  Array.init (Rooted.n t) (Rooted.pi_right t) = clockwise_preorder t

(* [pi_right] is read off the LEFT order (LEFT's post-order reversed).
   Random trees under every spanning kind and a random root corner. *)
let prop_pi_right_preorder =
  QCheck.Test.make ~name:"pi_right = clockwise pre-order" ~count:60
    QCheck.(pair (int_range 1 300) (int_bound 1000))
    (fun (n, seed) ->
      let emb =
        if seed mod 2 = 0 then Gen.random_tree ~seed ~n ()
        else Gen.stacked_triangulation ~seed ~n:(max 4 n) ()
      in
      let g = Embedded.graph emb and rot = Embedded.rot emb in
      let root = seed mod Graph.n g in
      let root_first =
        if Graph.degree g root = 0 then None
        else Some (Rotation.nth rot root (seed mod Rotation.degree rot root))
      in
      List.for_all
        (fun kind ->
          right_is_clockwise_preorder
            (Rooted.build ?root_first ~rot ~root (Spanning.make kind g ~root)))
        [ Spanning.Bfs; Spanning.Dfs; Spanning.Random seed ])

(* Deep paths (rooted at an end and in the middle) and hubs: a star and a
   wheel rooted at the hub, and a wheel rooted on its rim. *)
let test_pi_right_paths_and_hubs () =
  let check name emb ~root =
    let g = Embedded.graph emb in
    let t =
      Rooted.build ~rot:(Embedded.rot emb) ~root (Algo.bfs_parents g root)
    in
    Alcotest.(check bool) (name ^ ": pi_right = clockwise pre-order") true
      (right_is_clockwise_preorder t)
  in
  let hub emb =
    let g = Embedded.graph emb in
    List.fold_left
      (fun h v -> if Graph.degree g v > Graph.degree g h then v else h)
      0
      (List.init (Graph.n g) Fun.id)
  in
  let path = Gen.path 100_000 in
  check "path from an end" path ~root:0;
  check "path from the middle" path ~root:50_000;
  let star = Gen.star 3_000 and wheel = Gen.wheel 2_000 in
  check "star hub" star ~root:(hub star);
  check "wheel hub" wheel ~root:(hub wheel);
  check "wheel rim" wheel ~root:((hub wheel + 1) mod 2_000)

let suites =
  Repro_testkit.Suite.make __MODULE__
    [
        Alcotest.test_case "bfs depths" `Quick test_bfs_tree_depths;
        Alcotest.test_case "sizes sum" `Quick test_sizes_sum;
        Alcotest.test_case "orders permutation" `Quick test_orders_permutation;
        Alcotest.test_case "left/right orders tiny" `Quick
          test_left_right_orders_tiny;
        Alcotest.test_case "subtree intervals" `Quick test_subtree_intervals;
        Alcotest.test_case "lca small" `Quick test_lca_small;
        Alcotest.test_case "path endpoints" `Quick test_path_endpoints;
        Alcotest.test_case "centroid star" `Quick test_centroid_star;
        Alcotest.test_case "centroid path" `Quick test_centroid_path;
        Alcotest.test_case "reroot" `Quick test_reroot_preserves_edges;
        qtest prop_lca_matches_naive;
        qtest prop_child_toward;
        qtest prop_orders_subtree_contiguous;
        qtest prop_pi_right_preorder;
        Alcotest.test_case "pi_right on deep paths and hubs" `Quick
          test_pi_right_paths_and_hubs;
    ]
