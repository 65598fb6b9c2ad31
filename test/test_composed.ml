(* The composed subroutines (lca, mark-path, Lemma-11 orders, weights,
   Phase 1, faces, Borůvka, re-root) against their centralized
   counterparts.

   The hand-rolled family sweeps and QCheck properties that used to live
   here are now the testkit's "orders", "pipeline" and "forest" oracles
   (lib/testkit/oracle.ml) — each compares the batched executed routine
   against both the serial Composed.Reference choreography and the
   centralized algorithm on fuzzed instances, with pinned round budgets.
   This suite declares those properties and keeps only the deterministic
   edge cases the size-ramped fuzzer rarely reaches: degenerate inputs
   (u = v mark-path, n = 1 orders), a fixed Lemma 9 partition, and a
   distribution check (phase 3 actually fires on triangulations). *)

open Repro_graph
open Repro_embedding
open Repro_tree
open Repro_congest
open Repro_testkit

(* Package a Rooted tree into the distributed knowledge the composed
   subroutines assume every node holds after Phase 1. *)
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

let setup ?(spanning = Spanning.Bfs) emb =
  let g = Embedded.graph emb in
  let root = Embedded.outer emb in
  let parent = Spanning.make spanning g ~root in
  let tree = Rooted.build ~rot:(Embedded.rot emb) ~root parent in
  (g, tree, knowledge_of tree)

let test_mark_path_endpoints_equal () =
  let emb = Gen.path 9 in
  let g, _, tk = setup emb in
  let marked, _ = Composed.mark_path g tk ~u:4 ~v:4 in
  Alcotest.(check bool) "self marked" true marked.(4);
  let count = Array.fold_left (fun a m -> if m then a + 1 else a) 0 marked in
  Alcotest.(check int) "only self" 1 count

let test_dfs_orders_single_node () =
  let g = Graph.of_edges ~n:1 [] in
  let orders, phases, _ =
    Composed.dfs_orders g ~children:[| [||] |] ~parent:[| -1 |] ~depth:[| 0 |]
      ~root:0
  in
  Alcotest.(check int) "pi_l" 0 orders.Composed.pi_left.(0);
  Alcotest.(check int) "phases" 0 phases

let test_separator_phase3_executed () =
  (* Not an equivalence check (the "pipeline" oracle does that): this pins
     the *distribution* — on stacked triangulations the in-range-face fast
     path of phase 3 must actually fire most of the time, so the oracle is
     exercising the interesting branch and not just the None fallback. *)
  let valid = ref 0 and skipped = ref 0 in
  List.iter
    (fun seed ->
      let emb = Gen.stacked_triangulation ~seed ~n:80 () in
      let g = Embedded.graph emb in
      let root = Embedded.outer emb in
      let parent = Spanning.bfs g ~root in
      let tree = Rooted.build ~rot:(Embedded.rot emb) ~root parent in
      let n = Graph.n g in
      let rot_orders = Array.init n (Rotation.order (Embedded.rot emb)) in
      let depth = Array.init n (Rooted.depth tree) in
      match Composed.separator_phase3 g ~rot_orders ~parent ~depth ~root with
      | None, _ -> incr skipped
      | Some (_, marked), stats ->
        let sep = ref [] in
        Array.iteri (fun x m -> if m then sep := x :: !sep) marked;
        let cfg =
          Repro_core.Config.of_parts ~graph:g ~rot:(Embedded.rot emb) ~tree
        in
        let verdict = Repro_core.Check.check_separator cfg !sep in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d valid executed separator" seed)
          true verdict.Repro_core.Check.valid;
        Alcotest.(check bool) "bandwidth respected" true
          (stats.Composed.max_edge_bits <= Bandwidth.default ~n);
        incr valid)
    [ 1; 2; 3; 4; 5 ];
  (* Triangulations essentially always have an in-range face. *)
  Alcotest.(check bool)
    (Printf.sprintf "phase-3 fired %d times" !valid)
    true (!valid >= 3)

let test_boruvka_lemma9_parts () =
  (* Lemma 9: per-part spanning trees in parallel (0/1 weights), on a fixed
     two-part split the fuzzer's random partitions won't reproduce. *)
  let emb = Gen.grid ~rows:6 ~cols:6 in
  let g = Embedded.graph emb in
  let parts = Array.init 36 (fun v -> if v mod 6 < 3 then 0 else 1) in
  let (parent, _, _), _, _ = Composed.spanning_forest g ~parts () in
  let roots = ref 0 in
  for v = 0 to 35 do
    if parent.(v) = -1 then incr roots
    else
      Alcotest.(check int) "parent stays in part" parts.(v) parts.(parent.(v))
  done;
  Alcotest.(check int) "one tree per part" 2 !roots

let suites =
  Suite.make __MODULE__
    [
      Suite.property ~count:35 ~max_size:72 ~seed:301 ~oracles:[ "orders" ]
        "Lemma-11 orders = face walk = centralized";
      Suite.property ~count:30 ~max_size:64 ~seed:302 ~oracles:[ "pipeline" ]
        "phase1/phase3/forest = serial oracle = centralized";
      Suite.property ~count:25 ~max_size:56 ~seed:303 ~oracles:[ "forest" ]
        "per-part Borůvka forest on random connected partitions";
      Alcotest.test_case "mark-path self" `Quick test_mark_path_endpoints_equal;
      Alcotest.test_case "dfs-orders single node" `Quick
        test_dfs_orders_single_node;
      Alcotest.test_case "separator phase-3 executed" `Quick
        test_separator_phase3_executed;
      Alcotest.test_case "boruvka Lemma 9 parts" `Quick
        test_boruvka_lemma9_parts;
    ]
