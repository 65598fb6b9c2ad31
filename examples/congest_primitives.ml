(* Tour of the message-level CONGEST substrate: the primitives the paper
   consumes as black boxes, executed for real with bandwidth accounting.

   Run with:  dune exec examples/congest_primitives.exe *)

open Repro_graph
open Repro_embedding
open Repro_congest

let show name (stats : Engine.stats) =
  Printf.printf "  %-22s rounds=%-5d messages=%-7d max-bits/edge=%d\n" name
    stats.Engine.rounds stats.Engine.messages stats.Engine.max_edge_bits

let () =
  let emb = Gen.grid_diag ~seed:3 ~rows:16 ~cols:16 () in
  let g = Embedded.graph emb in
  let n = Graph.n g in
  Printf.printf "network: %s  n=%d m=%d  bandwidth=%d bits/edge/round\n"
    (Embedded.name emb) n (Graph.m g) (Bandwidth.default ~n);

  (* 1. BFS tree by flooding — the backbone of every other primitive. *)
  let (parent, dist), stats = Prim.bfs_tree g ~root:0 in
  show "bfs-tree" stats;
  let depth = Array.fold_left max 0 dist in
  Printf.printf "      tree depth %d (eccentricity of the root)\n" depth;

  (* 2. Broadcast: the root's value reaches everyone over tree edges. *)
  let values, stats = Prim.broadcast g ~parent ~root:0 ~value:4242 in
  assert (Array.for_all (fun v -> v = 4242) values);
  show "broadcast" stats;

  (* 3. Subtree aggregation (DESCENDANT-SUM-PROBLEM): every node learns the
     size of its own subtree. *)
  let sizes, stats = Prim.subtree_agg g ~parent ~op:Prim.Sum ~values:(Array.make n 1) in
  assert (sizes.(0) = n);
  show "subtree-sum" stats;

  (* 4. Part-wise aggregation, the paper's workhorse (Proposition 4): one
     pipelined upcast/downcast over the BFS tree, O(depth + #parts) rounds.
     Parts here are the 16 grid columns; each learns its minimum value. *)
  let parts = Array.init n (fun v -> v mod 16) in
  let values = Array.init n (fun v -> (v * 7919) mod 1000) in
  let answers, stats = Prim.partwise g ~parent ~op:Prim.Min ~parts ~values in
  show "partwise-min (k=16)" stats;
  Printf.printf "      %d parts, rounds/(depth+k) = %.2f\n" 16
    (float_of_int stats.Engine.rounds /. float_of_int (depth + 16));
  (* Verify against a centralized reduction. *)
  let expected = Array.make 16 max_int in
  Array.iteri (fun v p -> expected.(p) <- min expected.(p) values.(v)) parts;
  Array.iteri (fun v a -> assert (a = expected.(parts.(v)))) answers;

  (* 5. The paper's Section-5.2 subroutines, executed end to end from raw
     local data (parent pointers, depths, rotations): Phase 1 by fragment
     merging (Lemma 11), face weights (Lemma 12) and the Phase-3 separator
     when some face is balanced (Lemma 5). *)
  let emb_tri = Gen.stacked_triangulation ~seed:5 ~n:120 () in
  let gt = Embedded.graph emb_tri in
  let root = Embedded.outer emb_tri in
  let parent = Repro_tree.Spanning.bfs gt ~root in
  let bfs_depth =
    let d = Algo.bfs_dist gt root in
    Array.map (fun x -> x) d
  in
  let rot_orders =
    Array.init (Graph.n gt) (Rotation.order (Embedded.rot emb_tri))
  in
  (match
     Composed.separator_phase3 gt ~rot_orders ~parent ~depth:bfs_depth ~root
   with
  | Some ((u, v), marked), stats ->
    let size = Array.fold_left (fun a m -> if m then a + 1 else a) 0 marked in
    Printf.printf
      "\nexecuted separator (Phases 1-3, Lemmas 11/12/5) on %s:\n"
      (Embedded.name emb_tri);
    Printf.printf
      "  fundamental edge (%d,%d); |S| = %d; measured rounds = %d, messages = %d\n"
      u v size stats.Composed.rounds stats.Composed.messages
  | None, _ -> print_endline "\n(no balanced face — charged phases 4/5 apply)");

  (* 6. The collective layer the composed subroutines are built on: one ctx
     per communication tree, and k scalar collectives batched into a single
     pipelined O(depth + k)-round engine run. *)
  let ctx = Collective.create gt ~parent ~root in
  let k = 8 in
  let slots = Array.init k (fun i -> ((i * 37) mod Graph.n gt, 100 + i)) in
  let learned = Collective.learn_batch ctx slots in
  Array.iteri (fun i (_, x) -> assert (learned.(i) = x)) slots;
  let t = Collective.tally ctx in
  Printf.printf
    "\ncollective layer: %d scalar learns in %d engine run (%d rounds);\n" k
    t.Collective.engine_runs t.Collective.rounds;
  Printf.printf "  serial cost would be 2k = %d runs of ~depth rounds each\n"
    (2 * k);

  (* 7. The charged model: what the deterministic-shortcut black box of the
     paper costs for the same operation. *)
  let d = Algo.diameter g in
  let rounds = Rounds.create ~n ~d () in
  Printf.printf
    "\ncharged cost of one part-wise aggregation at D=%d: %.0f rounds\n" d
    (Rounds.pa_cost rounds);
  Printf.printf
    "(the executed pipelined version above used %d — the shortcut bound is\n"
    stats.Engine.rounds;
  Printf.printf " a worst-case guarantee over adversarial partitions)\n"
