(* The testkit tested: spec round-trips, registry discipline, suite
   derivation, determinism of the randomness sources (satellite d), the
   injected-bug drill (the fuzzer must catch, shrink and replay a
   deliberately broken oracle), the grid round-scaling regression
   (satellite b: charged separator/DFS rounds track the diameter, not n),
   and the heavyweight end-to-end oracles (Theorem 1, Theorem 2, pool
   parallelism) as fuzz properties. *)

open Repro_graph
open Repro_embedding
open Repro_tree
open Repro_core
open Repro_congest
open Repro_testkit

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Specs: the repro currency must round-trip exactly.                  *)
(* ------------------------------------------------------------------ *)

let test_spec_roundtrip () =
  List.iter
    (fun family ->
      List.iter
        (fun spanning ->
          let spec =
            Instance.
              {
                family;
                n = max (Instance.min_size family) 9;
                seed = 12345;
                spanning;
              }
          in
          let s = Instance.to_string spec in
          Alcotest.(check bool)
            (Printf.sprintf "%s parses back" s)
            true
            (Instance.of_string s = spec))
        [ Spanning.Bfs; Spanning.Dfs; Spanning.Random 3 ])
    Instance.families;
  Alcotest.check_raises "malformed spec rejected"
    (Failure "Instance.of_string: malformed spec nonsense") (fun () ->
      ignore (Instance.of_string "nonsense"))

let test_instance_deterministic () =
  let spec =
    Instance.{ family = "stacked"; n = 40; seed = 7; spanning = Spanning.Random 2 }
  in
  let a = Instance.build spec and b = Instance.build spec in
  Alcotest.(check (list (pair int int)))
    "same edges"
    (Graph.edges (Embedded.graph a.Instance.emb))
    (Graph.edges (Embedded.graph b.Instance.emb));
  let n = Embedded.n a.Instance.emb in
  for v = 0 to n - 1 do
    Alcotest.(check int) "same tree"
      (Rooted.parent (Config.tree a.Instance.config) v)
      (Rooted.parent (Config.tree b.Instance.config) v)
  done

(* ------------------------------------------------------------------ *)
(* Registry and suite-registration discipline (satellite c).           *)
(* ------------------------------------------------------------------ *)

let oracle_names = List.map (fun o -> o.Oracle.name) Oracle.all

let test_registry_names () =
  Alcotest.(check (list string))
    "oracles in run order"
    [
      "graph"; "engine"; "orders"; "collective"; "faces"; "pipeline";
      "separator"; "join"; "dfs"; "forest"; "pool"; "backend"; "screen";
    ]
    oracle_names;
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (o.Oracle.name ^ " names its lemma/theorem")
        true
        (String.length o.Oracle.guards > 0))
    Oracle.all

(* [Oracle.find] and the fuzz runner's [--oracle] select by name. *)
let test_oracle_names_distinct () =
  Alcotest.(check int) "no name twice"
    (List.length oracle_names)
    (List.length (List.sort_uniq compare oracle_names))

let test_registry_unknown_oracle () =
  match Oracle.find "no-such-oracle" with
  | _ -> Alcotest.fail "unknown oracle accepted"
  | exception Failure msg ->
    Alcotest.(check bool) "error lists known names" true (contains msg "engine")

let test_suite_derivation () =
  Alcotest.(check string) "dune exe prefix stripped" "collective"
    (Suite.derive "Dune__exe__Test_collective");
  Alcotest.(check string) "no test_ prefix" "engine-equiv"
    (Suite.derive "Engine_equiv");
  Alcotest.(check string) "this module" "testkit" (Suite.derive "Test_testkit");
  match Suite.make __MODULE__ [] with
  | [ (name, []) ] -> Alcotest.(check string) "make uses derived name" "testkit" name
  | _ -> Alcotest.fail "make did not produce one suite"

let test_suite_duplicate_rejected () =
  let s = Suite.make "Test_alpha" [] in
  Alcotest.(check int) "combine flattens" 2
    (List.length (Suite.combine [ s; Suite.make "Test_beta" [] ]));
  Alcotest.check_raises "two modules deriving one name"
    (Suite.Duplicate_suite "alpha") (fun () ->
      ignore (Suite.combine [ s; Suite.make "Alpha" [] ]))

(* ------------------------------------------------------------------ *)
(* Satellite d: seed stability of every randomness source.             *)
(* ------------------------------------------------------------------ *)

let test_rng_seed_stability () =
  let stream rng = Array.init 200 (fun _ -> Repro_util.Rng.int rng 1_000_000) in
  let a = Repro_util.Rng.create 42 and b = Repro_util.Rng.create 42 in
  Alcotest.(check (array int)) "same seed, same stream" (stream a) (stream b);
  (* copy: both continuations replay identically from the fork point *)
  let c = Repro_util.Rng.copy a in
  Alcotest.(check (array int)) "copy continues the stream" (stream a) (stream c);
  (* split: a pure function of the parent state at the split point *)
  let p1 = Repro_util.Rng.create 7 and p2 = Repro_util.Rng.create 7 in
  ignore (stream p1);
  ignore (stream p2);
  Alcotest.(check (array int)) "split is deterministic"
    (stream (Repro_util.Rng.split p1))
    (stream (Repro_util.Rng.split p2))

let test_pool_map_matches_sequential () =
  let input = Array.init 300 (fun i -> i) in
  let f x = (x * x) + (x mod 7) in
  let seq = Array.map f input in
  Repro_util.Pool.with_pool ~seq_grain:0 ~jobs:4 (fun pool ->
      Alcotest.(check bool) "batch goes parallel" true
        (Repro_util.Pool.runs_parallel ~cost:1_000_000 pool (Array.length input));
      Alcotest.(check (array int)) "parallel map = Array.map" seq
        (Repro_util.Pool.map ~cost:1_000_000 pool f input))

let test_pool_partition_bit_identical () =
  (* Theorem 1 parallelism on a fixed instance: the per-part separator
     batch must not depend on the domain count, down to the charged
     totals.  (The "pool" oracle checks the same on fuzzed instances.) *)
  let emb = Gen.grid ~rows:8 ~cols:8 in
  let halves =
    [
      List.filter (fun v -> v mod 8 < 4) (List.init 64 Fun.id);
      List.filter (fun v -> v mod 8 >= 4) (List.init 64 Fun.id);
    ]
  in
  let run pool =
    let ledger = Rounds.create ~n:64 ~d:14 () in
    let results = Separator.find_partition ~rounds:ledger ?pool emb ~parts:halves in
    ( List.map
        (fun (_, r) ->
          (r.Separator.separator, r.Separator.endpoints, r.Separator.phase))
        results,
      Rounds.total ledger )
  in
  let serial_results, serial_total = run None in
  Repro_util.Pool.with_pool ~seq_grain:0 ~jobs:3 (fun pool ->
      let par_results, par_total = run (Some pool) in
      List.iteri
        (fun i ((s1, e1, p1), (s2, e2, p2)) ->
          Alcotest.(check (list int))
            (Printf.sprintf "part %d separator" i)
            s1 s2;
          Alcotest.(check (option (pair int int)))
            (Printf.sprintf "part %d endpoints" i)
            e1 e2;
          Alcotest.(check string) (Printf.sprintf "part %d phase" i) p1 p2)
        (List.combine serial_results par_results);
      Alcotest.(check (float 0.0)) "charged totals identical" serial_total
        par_total)

(* ------------------------------------------------------------------ *)
(* Satellite b: charged rounds track the diameter, not n.              *)
(* ------------------------------------------------------------------ *)

let log2ceil n =
  int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.0))

(* PA units = charged total / pa_cost, i.e. the diameter-normalized cost:
   for an Õ(D)-round pipeline this is polylog(n), independent of n. *)
let grid_cost rows =
  let emb = Gen.grid ~rows ~cols:rows in
  let g = Embedded.graph emb in
  let root = Embedded.outer emb in
  let parent = Spanning.bfs g ~root in
  let tree = Rooted.build ~rot:(Embedded.rot emb) ~root parent in
  let cfg = Config.of_parts ~graph:g ~rot:(Embedded.rot emb) ~tree in
  let n = Graph.n g in
  let d = Algo.diameter g in
  let sep = Rounds.create ~n ~d () in
  ignore (Separator.find ~rounds:sep cfg);
  let dfs = Rounds.create ~n ~d () in
  ignore (Dfs.run ~rounds:dfs emb ~root);
  let units ledger = Rounds.total ledger /. Rounds.pa_cost ledger in
  (log2ceil n, units sep, Rounds.invocations sep, units dfs,
   Rounds.invocations dfs)

let test_grid_round_scaling () =
  (* Observed on the seed implementation (scratch calibration):
       rows  5: sep 40.0/lg²=1.6   dfs 242/lg³=1.9
       rows  8: sep 165/lg²=4.6    dfs 664/lg³=3.1
       rows 20: sep 351/lg²=4.3    dfs 2579/lg³=3.5
     An O(n)-round regression in either pipeline multiplies the larger
     grids' normalized cost by Θ(n / (D·polylog)) and blows through both
     the absolute pins and the growth pin below. *)
  let measured = List.map (fun r -> (r, grid_cost r)) [ 5; 8; 14; 20 ] in
  List.iter
    (fun (rows, (lg, sep_u, sep_inv, dfs_u, dfs_inv)) ->
      let l2 = float_of_int (lg * lg) and l3 = float_of_int (lg * lg * lg) in
      Alcotest.(check bool)
        (Printf.sprintf "rows=%d separator %.0f PA units <= 6 lg^2" rows sep_u)
        true (sep_u <= 6.0 *. l2);
      Alcotest.(check bool)
        (Printf.sprintf "rows=%d separator invocations %d <= 24" rows sep_inv)
        true (sep_inv <= 24);
      Alcotest.(check bool)
        (Printf.sprintf "rows=%d dfs %.0f PA units <= 5 lg^3" rows dfs_u)
        true (dfs_u <= 5.0 *. l3);
      Alcotest.(check bool)
        (Printf.sprintf "rows=%d dfs invocations %d <= 2 lg^2 + 16" rows dfs_inv)
        true (dfs_inv <= (2 * lg * lg) + 16))
    measured;
  (* Growth across a 6.25x jump in n (rows 8 -> 20): normalized cost may
     pick up at most a small polylog factor. *)
  let _, (_, sep8, _, dfs8, _) = List.nth measured 1 in
  let _, (_, sep20, _, dfs20, _) = List.nth measured 3 in
  Alcotest.(check bool)
    (Printf.sprintf "separator PA units grow %.2fx <= 2.5x over 6.25x n"
       (sep20 /. sep8))
    true
    (sep20 <= 2.5 *. sep8);
  Alcotest.(check bool)
    (Printf.sprintf "dfs PA units grow %.2fx <= 5x over 6.25x n" (dfs20 /. dfs8))
    true
    (dfs20 <= 5.0 *. dfs8)

(* ------------------------------------------------------------------ *)
(* The Lemma 11 brute-force oracle on fixed embeddings.                *)
(* ------------------------------------------------------------------ *)

let test_facewalk_matches_rooted () =
  (* Deterministic pin of what the "orders" oracle fuzzes: the face-walk
     orders equal Rooted's recursive precomputation, across spanning
     kinds.  Both sides share no code. *)
  List.iter
    (fun (emb, spanning) ->
      let g = Embedded.graph emb in
      let root = Embedded.outer emb in
      let parent = Spanning.make spanning g ~root in
      let tree = Rooted.build ~rot:(Embedded.rot emb) ~root parent in
      let pl, pr = Facewalk.orders ~rot:(Embedded.rot emb) ~parent ~root () in
      for v = 0 to Graph.n g - 1 do
        Alcotest.(check int)
          (Printf.sprintf "%s pi_left(%d)" (Embedded.name emb) v)
          (Rooted.pi_left tree v) pl.(v);
        Alcotest.(check int)
          (Printf.sprintf "%s pi_right(%d)" (Embedded.name emb) v)
          (Rooted.pi_right tree v) pr.(v)
      done)
    [
      (Gen.path 12, Spanning.Bfs);
      (Gen.grid ~rows:5 ~cols:6, Spanning.Dfs);
      (Gen.wheel 9, Spanning.Random 4);
      (Gen.stacked_triangulation ~seed:11 ~n:40 (), Spanning.Random 2);
    ]

let test_check_all_aggregates_registry () =
  let spec =
    Instance.{ family = "stacked"; n = 28; seed = 9; spanning = Spanning.Bfs }
  in
  let report = Testkit.check_spec spec in
  Alcotest.(check bool) "all oracles pass" true report.Testkit.ok;
  Alcotest.(check int) "one report per registered oracle"
    (List.length Oracle.all)
    (List.length report.Testkit.results);
  Alcotest.(check bool) "checks counted" true (report.Testkit.checks > 50)

(* ------------------------------------------------------------------ *)
(* The injected-bug drill: catch, shrink, replay.                      *)
(* ------------------------------------------------------------------ *)

let test_sabotage_caught_shrunk_replayed () =
  let threshold = 24 in
  let sab = Oracle.sabotage ~threshold in
  let outcome = Runner.fuzz ~oracles:[ sab ] ~max_size:64 ~seed:5 ~count:60 () in
  match outcome.Runner.failures with
  | [] -> Alcotest.fail "injected bug not caught"
  | f :: _ ->
    Alcotest.(check bool) "stops at first failure" true
      (outcome.Runner.cases < 60);
    Alcotest.(check bool) "shrunk never grows" true
      (f.Runner.spec.Instance.n <= f.Runner.original.Instance.n);
    Alcotest.(check bool)
      (Printf.sprintf "shrunk to n = %d, near threshold %d"
         f.Runner.spec.Instance.n threshold)
      true
      (f.Runner.spec.Instance.n < threshold + 16);
    (* the minimal counterexample replays from its spec line alone *)
    let replayed = Runner.failing ~oracles:[ sab ] f.Runner.spec in
    Alcotest.(check bool) "replay still fails" true (replayed <> []);
    let line = Runner.repro_line f in
    Alcotest.(check bool) "repro line replays the shrunk spec" true
      (contains line "--replay"
      && contains line (Instance.to_string f.Runner.spec));
    let json = Runner.artifact_json ~seed:5 f in
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "artifact records %s" needle)
          true (contains json needle))
      [
        Instance.to_string f.Runner.spec;
        Instance.to_string f.Runner.original;
        "\"replay\"";
        "sabotage";
      ]

let test_shrink_is_minimal_on_sabotage () =
  (* Greedy descent must reach the family floor when the bug fires on
     every size above it. *)
  let sab = Oracle.sabotage ~threshold:1 in
  let spec =
    Instance.{ family = "stacked"; n = 48; seed = 3; spanning = Spanning.Dfs }
  in
  let shrunk, steps = Runner.shrink ~oracles:[ sab ] spec in
  Alcotest.(check int) "floor reached" (Instance.min_size "stacked")
    shrunk.Instance.n;
  Alcotest.(check bool) "spanning simplified" true
    (shrunk.Instance.spanning = Spanning.Bfs);
  Alcotest.(check bool) "in a few steps" true (steps > 0 && steps <= 60)

(* ------------------------------------------------------------------ *)
(* End-to-end oracles as fuzz properties.                              *)
(* ------------------------------------------------------------------ *)

let suites =
  Suite.make __MODULE__
    [
      Alcotest.test_case "spec round-trip" `Quick test_spec_roundtrip;
      Alcotest.test_case "instance build deterministic" `Quick
        test_instance_deterministic;
      Alcotest.test_case "registry names + guards" `Quick test_registry_names;
      Alcotest.test_case "oracle names distinct" `Quick
        test_oracle_names_distinct;
      Alcotest.test_case "unknown oracle lists names" `Quick
        test_registry_unknown_oracle;
      Alcotest.test_case "suite names derived" `Quick test_suite_derivation;
      Alcotest.test_case "duplicate suite rejected" `Quick
        test_suite_duplicate_rejected;
      Alcotest.test_case "rng seed stability" `Quick test_rng_seed_stability;
      Alcotest.test_case "pool map = sequential map" `Quick
        test_pool_map_matches_sequential;
      Alcotest.test_case "pool partition bit-identical" `Quick
        test_pool_partition_bit_identical;
      Alcotest.test_case "grid round scaling (charged ledger)" `Quick
        test_grid_round_scaling;
      Alcotest.test_case "face walk = Rooted orders (Lemma 11)" `Quick
        test_facewalk_matches_rooted;
      Alcotest.test_case "check_all covers the registry" `Quick
        test_check_all_aggregates_registry;
      Alcotest.test_case "injected bug: caught, shrunk, replayed" `Quick
        test_sabotage_caught_shrunk_replayed;
      Alcotest.test_case "shrink reaches the family floor" `Quick
        test_shrink_is_minimal_on_sabotage;
      Suite.property ~count:25 ~max_size:64 ~seed:404 ~oracles:[ "graph" ]
        "flat CSR store = reference adjacency-list build";
      Suite.property ~count:25 ~max_size:56 ~seed:401 ~oracles:[ "separator" ]
        "Theorem 1: valid balanced separators, Õ(D) charged rounds";
      Suite.property ~count:25 ~max_size:56 ~seed:402 ~oracles:[ "dfs" ]
        "Theorem 2: DFS tree verified, Õ(D) charged rounds";
      Suite.property ~count:20 ~max_size:48 ~seed:403 ~oracles:[ "pool" ]
        "pool jobs=1 = jobs=N on partition batches";
    ]
