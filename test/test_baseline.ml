open Repro_graph
open Repro_embedding
open Repro_core
open Repro_baseline

let qtest = QCheck_alcotest.to_alcotest

let test_awerbuch_valid () =
  List.iter
    (fun emb ->
      let g = Embedded.graph emb in
      let root = Embedded.outer emb in
      let r = Awerbuch.run g ~root in
      Alcotest.(check bool) (Embedded.name emb) true
        (Algo.is_dfs_tree g ~root ~parent:r.Awerbuch.parent))
    [
      Gen.grid ~rows:6 ~cols:6;
      Gen.grid_diag ~seed:1 ~rows:6 ~cols:6 ();
      Gen.stacked_triangulation ~seed:2 ~n:80 ();
      Gen.star 25;
      Gen.path 40;
      Gen.cycle 30;
    ]

let test_awerbuch_linear_rounds () =
  (* Rounds are Θ(n): between n and ~5n on every family. *)
  List.iter
    (fun emb ->
      let g = Embedded.graph emb in
      let n = Graph.n g in
      let r = Awerbuch.run g ~root:(Embedded.outer emb) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d rounds for n=%d" (Embedded.name emb)
           r.Awerbuch.rounds n)
        true
        (r.Awerbuch.rounds >= n && r.Awerbuch.rounds <= 6 * n))
    [ Gen.grid ~rows:8 ~cols:8; Gen.path 100; Gen.stacked_triangulation ~seed:4 ~n:150 () ]

let test_awerbuch_single_node () =
  let g = Graph.of_edges ~n:1 [] in
  let r = Awerbuch.run g ~root:0 in
  Alcotest.(check int) "parent" (-1) r.Awerbuch.parent.(0)

let test_random_sep_estimator_converges () =
  let emb = Gen.grid ~rows:8 ~cols:8 in
  let cfg = Config.of_embedded emb in
  let rng = Repro_util.Rng.create 5 in
  List.iter
    (fun (u, v) ->
      let est = Random_sep.estimate_weight cfg rng ~samples:4000 ~u ~v in
      let w = Weights.weight cfg ~u ~v in
      Alcotest.(check bool)
        (Printf.sprintf "est %d close to %d" est w)
        true
        (abs (est - w) <= 3))
    (Config.fundamental_edges cfg)

let test_random_sep_high_samples_reliable () =
  let emb = Gen.stacked_triangulation ~seed:8 ~n:60 () in
  let cfg = Config.of_embedded emb in
  let fails = ref 0 in
  for seed = 1 to 20 do
    let o = Random_sep.find ~seed ~samples:4000 cfg in
    if not o.Random_sep.balanced then incr fails
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d failures at 4000 samples" !fails)
    true (!fails <= 1)

let test_random_sep_low_samples_fails_sometimes () =
  (* The ablation of E4: starved of samples the randomized algorithm must
     fail on some seed — the deterministic algorithm never does. *)
  let emb = Gen.stacked_triangulation ~seed:9 ~n:200 () in
  let cfg = Config.of_embedded emb in
  let fails = ref 0 in
  for seed = 1 to 30 do
    let o = Random_sep.find ~seed ~samples:2 cfg in
    if not o.Random_sep.balanced then incr fails
  done;
  Alcotest.(check bool) "some failures" true (!fails > 0);
  (* Deterministic on the same instance: always balanced. *)
  let r = Separator.find cfg in
  Alcotest.(check bool) "deterministic balanced" true
    (Check.balanced cfg r.Repro_core.Separator.separator)

let prop_awerbuch_matches_dfs_property =
  QCheck.Test.make ~name:"Awerbuch DFS valid on random planar" ~count:30
    QCheck.(pair (int_range 4 100) (int_bound 10000))
    (fun (n, seed) ->
      let emb = Gen.thin ~seed ~keep:0.5 (Gen.stacked_triangulation ~seed ~n ()) in
      let g = Embedded.graph emb in
      let r = Awerbuch.run g ~root:0 in
      Algo.is_dfs_tree g ~root:0 ~parent:r.Awerbuch.parent)

let suites =
  Repro_testkit.Suite.make __MODULE__
    [
        Alcotest.test_case "awerbuch valid" `Quick test_awerbuch_valid;
        Alcotest.test_case "awerbuch linear rounds" `Quick test_awerbuch_linear_rounds;
        Alcotest.test_case "awerbuch single node" `Quick test_awerbuch_single_node;
        Alcotest.test_case "random estimator converges" `Quick
          test_random_sep_estimator_converges;
        Alcotest.test_case "random reliable at high samples" `Quick
          test_random_sep_high_samples_reliable;
        Alcotest.test_case "random fails at low samples" `Quick
          test_random_sep_low_samples_fails_sometimes;
        qtest prop_awerbuch_matches_dfs_property;
    ]
