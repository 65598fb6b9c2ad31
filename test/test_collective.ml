(* The collective layer: batched tree collectives and the refactored
   composed subroutines.

   Three claims are checked here:

   1. The batched programs compute the right thing: a k-slot
      [learn_batch]/[agg_batch] equals k scalar learns (and a centralized
      reduction), and a k-slot part-wise run equals k one-slot runs.
   2. The refactored [Composed] subroutines are bit-identical to
      [Composed.Reference] AND to the centralized algorithms, with the
      >= 3x batching win intact — this used to be a hand-rolled family
      sweep and is now the testkit's "collective" and "faces" oracles
      (lib/testkit/oracle.ml), declared below as fuzz properties.
   3. Round accounting scales with the communication-tree depth (the
      paper's Õ(D) headline), not with n: shallow families keep executed
      rounds flat as n grows, deep families pay O(depth + k). *)

open Repro_graph
open Repro_embedding
open Repro_tree
open Repro_congest
open Repro_testkit

(* ------------------------------------------------------------------ *)
(* 1. Batched collectives vs scalar primitives.                        *)
(* ------------------------------------------------------------------ *)

let graphs () =
  [
    ("cycle48", Embedded.graph (Gen.cycle 48));
    ("grid6x7", Embedded.graph (Gen.grid ~rows:6 ~cols:7));
    ("star25", Embedded.graph (Gen.star 25));
    ("tri90", Embedded.graph (Gen.stacked_triangulation ~seed:5 ~n:90 ()));
  ]

let spanning g root = fst (fst (Prim.bfs_tree g ~root))

let test_learn_batch_matches_scalar () =
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let parent = spanning g 0 in
      let ctx = Collective.create g ~parent ~root:0 in
      let rng = Repro_util.Rng.create 21 in
      List.iter
        (fun k ->
          let slots =
            Array.init k (fun _ ->
                (Repro_util.Rng.int rng n, Repro_util.Rng.int rng 10_000))
          in
          let got = Collective.learn_batch ctx slots in
          Array.iteri
            (fun i (_, value) ->
              Alcotest.(check int)
                (Printf.sprintf "%s learn_batch k=%d slot %d" name k i)
                value got.(i))
            slots)
        [ 1; 2; 5; 16 ];
      (* One engine run per batch, k logical collectives. *)
      let t = Collective.tally ctx in
      Alcotest.(check int) (name ^ " engine runs") 4 t.Collective.engine_runs;
      Alcotest.(check int) (name ^ " collectives") 24 t.Collective.collectives)
    (graphs ())

let test_agg_batch_matches_centralized () =
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let parent = spanning g 0 in
      let ctx = Collective.create g ~parent ~root:0 in
      let rng = Repro_util.Rng.create 22 in
      List.iter
        (fun op ->
          let k = 7 in
          let values =
            Array.init k (fun _ ->
                Array.init n (fun _ -> Repro_util.Rng.int rng 1000))
          in
          let got = Collective.agg_batch ctx ~op values in
          Array.iteri
            (fun j vals ->
              let expected =
                Array.fold_left (Prim.apply op) vals.(0)
                  (Array.sub vals 1 (n - 1))
              in
              Alcotest.(check int)
                (Printf.sprintf "%s agg_batch slot %d" name j)
                expected got.(j))
            values)
        [ Prim.Sum; Prim.Min; Prim.Max ])
    (graphs ())

let test_partwise_k_slots_match_one_slot () =
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let parent = spanning g 0 in
      let ctx = Collective.create g ~parent ~root:0 in
      let rng = Repro_util.Rng.create 23 in
      let parts = Array.init n (fun _ -> Repro_util.Rng.int rng 5) in
      parts.(0) <- 0;
      List.iter
        (fun op ->
          let k = 3 in
          let values =
            Array.init k (fun _ ->
                Array.init n (fun _ -> Repro_util.Rng.int rng 1000))
          in
          let got =
            Collective.partwise_batch ctx ~bcast_parent:parent ~op ~parts values
          in
          Array.iteri
            (fun j vals ->
              let expected, _ =
                Prim.partwise g ~parent ~op ~parts ~values:vals
              in
              Alcotest.(check (array int))
                (Printf.sprintf "%s k-slot part-wise slot %d" name j)
                expected got.(j))
            values)
        [ Prim.Sum; Prim.Min; Prim.Max ])
    (graphs ())

let test_scalar_primitives_via_ctx () =
  let g = Embedded.graph (Gen.grid ~rows:5 ~cols:5) in
  let n = Graph.n g in
  let parent = spanning g 0 in
  let ctx = Collective.create g ~parent ~root:0 in
  let recorded (out, s) =
    Collective.record ctx s;
    out
  in
  let values = Array.init n (fun v -> v + 1) in
  let sub = recorded (Prim.subtree_agg g ~parent ~op:Prim.Sum ~values) in
  Alcotest.(check int) "convergecast" (n * (n + 1) / 2) sub.(0);
  (* BFS parents of a row-major grid have smaller ids. *)
  let anc = recorded (Prim.ancestor_agg g ~parent ~op:Prim.Max ~values) in
  Alcotest.(check (array int)) "ancestor max" values anc;
  let bc = recorded (Prim.broadcast g ~parent ~root:0 ~value:4242) in
  Alcotest.(check bool) "broadcast" true (Array.for_all (( = ) 4242) bc);
  let got =
    recorded
      (Prim.exchange g
         ~sends:(Array.init n (fun v -> if v = 0 then [] else [ (parent.(v), v) ])))
  in
  Alcotest.(check (list (pair int int)))
    "exchange" [ (1, 1); (5, 5) ] (List.sort compare got.(0));
  Alcotest.(check int) "learn" 77 (Collective.learn ctx ~source:(n - 1) ~value:77);
  (* The tally counted every recorded run and the learn, with full engine
     stats. *)
  let t = Collective.tally ctx in
  Alcotest.(check int) "engine runs" 5 t.Collective.engine_runs;
  Alcotest.(check bool) "total bits recorded" true (t.Collective.total_bits > 0)

(* O(depth + k): a batched learn on a shallow tree must not pay k times
   the depth. *)
let test_batch_rounds_pipelined () =
  let g = Embedded.graph (Gen.star 129) in
  let parent = spanning g 0 in
  let ctx = Collective.create g ~parent ~root:0 in
  let k = 64 in
  let slots = Array.init k (fun i -> (1 + (i mod 128), i)) in
  let _ = Collective.learn_batch ctx slots in
  let batched = (Collective.tally ctx).Collective.rounds in
  Collective.reset ctx;
  Array.iter
    (fun (source, value) -> ignore (Collective.learn ctx ~source ~value))
    slots;
  let serial = (Collective.tally ctx).Collective.rounds in
  Alcotest.(check bool)
    (Printf.sprintf "pipelined %d rounds << serial %d" batched serial)
    true
    (batched <= 2 * (2 + k) + 4 && serial >= 3 * k)

(* ------------------------------------------------------------------ *)
(* 2. Differential (batched = serial oracle = centralized): the         *)
(*    "collective" and "faces" oracles over fuzzed instances.           *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* 3. Round accounting scales with communication-tree depth, not n.    *)
(* ------------------------------------------------------------------ *)

let knowledge_of tree =
  let n = Rooted.n tree in
  Composed.
    {
      parent = Array.init n (Rooted.parent tree);
      depth = Array.init n (Rooted.depth tree);
      pi_left = Array.init n (Rooted.pi_left tree);
      size = Array.init n (Rooted.size tree);
      root = Rooted.root tree;
    }

let local_view_of emb tree =
  let n = Rooted.n tree in
  Composed.
    {
      lparent = Array.init n (Rooted.parent tree);
      ldepth = Array.init n (Rooted.depth tree);
      lsize = Array.init n (Rooted.size tree);
      lrot = Array.init n (Rotation.order (Embedded.rot emb));
      lchildren = Array.init n (Rooted.children tree);
      lpi_l = Array.init n (Rooted.pi_left tree);
      lpi_r = Array.init n (Rooted.pi_right tree);
    }

let setup ?(spanning = Spanning.Bfs) emb =
  let g = Embedded.graph emb in
  let root = Embedded.outer emb in
  let parent = Spanning.make spanning g ~root in
  let tree = Rooted.build ~rot:(Embedded.rot emb) ~root parent in
  (g, root, parent, tree)

let tree_depth tk = Array.fold_left max 0 tk.Composed.depth

let test_reroot_rounds_scale_with_depth () =
  (* Shallow stars of growing n: executed rounds must stay flat.  A deep
     cycle with far fewer nodes must dominate both. *)
  let run emb =
    let g, _, _, tree = setup emb in
    let lv = local_view_of emb tree in
    let tk = knowledge_of tree in
    let n = Graph.n g in
    let _, st = Composed.reroot g lv ~new_root:(n - 1) in
    (st.Composed.rounds, tree_depth tk)
  in
  let r64, d64 = run (Gen.star 64) in
  let r256, d256 = run (Gen.star 256) in
  let rcyc, dcyc = run (Gen.cycle 64) in
  Alcotest.(check int) "star depth flat" d64 d256;
  Alcotest.(check int)
    (Printf.sprintf "star rounds flat (%d vs %d)" r64 r256)
    r64 r256;
  Alcotest.(check bool)
    (Printf.sprintf "deep cycle (D=%d, %d rounds) dominates star256 (D=%d, %d rounds)"
       dcyc rcyc d256 r256)
    true
    (rcyc >= 2 * r256);
  List.iter
    (fun (r, d) ->
      Alcotest.(check bool)
        (Printf.sprintf "rounds %d within O(depth=%d)" r d)
        true
        (r <= (8 * d) + 24))
    [ (r64, d64); (r256, d256); (rcyc, dcyc) ]

let test_hidden_rounds_scale_with_depth () =
  (* The same triangulation under a shallow (BFS) and a deep (DFS) spanning
     tree: executed rounds track the tree depth, staying within the Õ(D)
     envelope in both cases. *)
  let run spanning =
    let emb = Gen.stacked_triangulation ~seed:4 ~n:60 () in
    let g, _, _, tree = setup ~spanning emb in
    let lv = local_view_of emb tree in
    let cfg =
      Repro_core.Config.of_parts ~graph:g ~rot:(Embedded.rot emb) ~tree
    in
    let instance =
      List.find_map
        (fun (u, v) ->
          Repro_core.Faces.interior_reference cfg ~u ~v
          |> List.filter (Rooted.is_leaf tree)
          |> function
          | [] -> None
          | t :: _ -> Some (u, v, t))
        (Test_weights.fundamental cfg)
    in
    match instance with
    | None -> Alcotest.fail "no hidden instance in family"
    | Some (u, v, t) ->
        let _, st = Composed.hidden g lv ~u ~v ~t in
        (st.Composed.rounds, tree_depth (knowledge_of tree))
  in
  let r_shallow, d_shallow = run Spanning.Bfs in
  let r_deep, d_deep = run Spanning.Dfs in
  Alcotest.(check bool)
    (Printf.sprintf "dfs tree deeper (%d) than bfs (%d)" d_deep d_shallow)
    true
    (d_deep >= 2 * d_shallow);
  List.iter
    (fun (r, d) ->
      Alcotest.(check bool)
        (Printf.sprintf "rounds %d within O(depth=%d + k)" r d)
        true
        (r <= (10 * d) + 160))
    [ (r_shallow, d_shallow); (r_deep, d_deep) ]

let suites =
  Suite.make __MODULE__
    [
      Alcotest.test_case "learn_batch = k scalar learns" `Quick
        test_learn_batch_matches_scalar;
      Alcotest.test_case "agg_batch = centralized reduce" `Quick
        test_agg_batch_matches_centralized;
      Alcotest.test_case "k-slot run equals k one-slot runs" `Quick
        test_partwise_k_slots_match_one_slot;
      Alcotest.test_case "scalar primitives via ctx" `Quick
        test_scalar_primitives_via_ctx;
      Alcotest.test_case "batched rounds are O(depth + k)" `Quick
        test_batch_rounds_pipelined;
      Suite.property ~count:30 ~max_size:64 ~seed:202
        ~oracles:[ "collective" ]
        "lca/mark-path/reroot/weights = oracle = centralized, >=3x fewer runs";
      Suite.property ~count:30 ~max_size:56 ~seed:203 ~oracles:[ "faces" ]
        "detect-face/hidden = oracle = centralized";
      Alcotest.test_case "reroot rounds scale with depth" `Quick
        test_reroot_rounds_scale_with_depth;
      Alcotest.test_case "hidden rounds scale with depth" `Quick
        test_hidden_rounds_scale_with_depth;
    ]
