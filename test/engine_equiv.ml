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
module Ancestor_diff = Oracle.Diff (Prim.Ancestor_program)
module Partwise_diff = Oracle.Diff (Prim.Partwise_program)

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
  (* A broadcast is the ancestor sum of a root-only value. *)
  check "n=2 broadcast"
    (Ancestor_diff.check g2
       ~input:
         [|
           { Prim.Ancestor_program.parent = -1; value = 9; op = Prim.Sum };
           { Prim.Ancestor_program.parent = 0; value = 0; op = Prim.Sum };
         |]);
  (* The part-wise pipeline with one slot and with three, in one part and
     in one part per node. *)
  List.iter
    (fun k ->
      let ops = Array.sub [| Prim.Sum; Prim.Min; Prim.Max |] 0 k in
      let node ~parent ~part v =
        {
          Prim.Partwise_program.parent;
          part;
          values = Array.init k (fun j -> (10 * v) + j);
          ops;
        }
      in
      check
        (Printf.sprintf "n=1 partwise k=%d" k)
        (Partwise_diff.check g1 ~input:[| node ~parent:(-1) ~part:0 0 |]);
      List.iter
        (fun parts ->
          check
            (Printf.sprintf "n=2 partwise k=%d parts=%d" k parts)
            (Partwise_diff.check g2
               ~input:
                 [|
                   node ~parent:(-1) ~part:0 0;
                   node ~parent:0 ~part:(parts - 1) 1;
                 |]))
        [ 1; 2 ])
    [ 1; 3 ]

let suites =
  Suite.make __MODULE__
    [
      Suite.property ~count:40 ~max_size:72 ~seed:101 ~oracles:[ "engine" ]
        "event-driven = reference on fuzzed instances";
      Alcotest.test_case "tiny graphs: event-driven = reference" `Quick
        test_single_node_and_tiny;
    ]
