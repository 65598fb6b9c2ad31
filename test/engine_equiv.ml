(* Differential suite: the event-driven scheduler (Engine.Make) against the
   dense reference scheduler (the testkit's Reference.Engine.Make).

   The hand-rolled graph zoo that used to live here is now the testkit's
   "engine" oracle (lib/testkit/oracle.ml): every program through both
   schedulers on fuzzed instances, bit-identical outputs AND statistics,
   plus a round budget.  This suite is the thin property declaration over
   that oracle, keeping only the deterministic tiny-graph edge cases
   (n = 1, n = 2) the size-ramped fuzzer reaches rarely. *)

open Repro_graph
open Repro_congest
open Repro_testkit

module Bfs_diff = Oracle.Diff (Prim.Bfs_program)
module Subtree_diff = Oracle.Diff (Prim.Subtree_program)
module Broadcast_diff = Oracle.Diff (Prim.Broadcast_program)

let check name (_, err) =
  match err with
  | None -> ()
  | Some msg -> Alcotest.fail (name ^ ": " ^ msg)

let test_single_node_and_tiny () =
  let g1 = Graph.of_edges ~n:1 [] in
  check "n=1 bfs" (Bfs_diff.check g1 ~input:[| true |]);
  check "n=1 subtree"
    (Subtree_diff.check g1
       ~input:[| { Prim.Subtree_program.parent = -1; value = 5; op = Prim.Sum } |]);
  let g2 = Graph.of_edges ~n:2 [ (0, 1) ] in
  check "n=2 bfs" (Bfs_diff.check g2 ~input:[| true; false |]);
  check "n=2 broadcast"
    (Broadcast_diff.check g2
       ~input:
         [|
           { Prim.Broadcast_program.parent = -1; value = Some 9 };
           { Prim.Broadcast_program.parent = 0; value = None };
         |])

let suites =
  Suite.make __MODULE__
    [
      Suite.property ~count:40 ~max_size:72 ~seed:101 ~oracles:[ "engine" ]
        "event-driven = reference on fuzzed instances";
      Alcotest.test_case "tiny graphs: event-driven = reference" `Quick
        test_single_node_and_tiny;
    ]
