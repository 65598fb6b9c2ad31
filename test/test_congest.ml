open Repro_graph
open Repro_embedding
open Repro_congest

let qtest = QCheck_alcotest.to_alcotest

let test_bfs_tree_grid () =
  let emb = Gen.grid ~rows:5 ~cols:6 in
  let g = Embedded.graph emb in
  let (parent, dist), stats = Prim.bfs_tree g ~root:0 in
  let expected = Algo.bfs_dist g 0 in
  Alcotest.(check (array int)) "distances" expected dist;
  Alcotest.(check int) "root parent" (-1) parent.(0);
  for v = 1 to Graph.n g - 1 do
    Alcotest.(check bool) "parent edge" true (Graph.mem_edge g v parent.(v));
    Alcotest.(check int) "parent one closer" (dist.(v) - 1) dist.(parent.(v))
  done;
  (* Flooding finishes within eccentricity + O(1) rounds. *)
  let ecc = Array.fold_left max 0 expected in
  Alcotest.(check bool) "rounds near ecc" true (stats.Engine.rounds <= ecc + 2)

let test_bfs_single_node () =
  let g = Graph.of_edges ~n:1 [] in
  let (parent, dist), stats = Prim.bfs_tree g ~root:0 in
  Alcotest.(check int) "parent" (-1) parent.(0);
  Alcotest.(check int) "dist" 0 dist.(0);
  Alcotest.(check int) "zero rounds" 0 stats.Engine.rounds

let test_subtree_sums () =
  let emb = Gen.grid ~rows:4 ~cols:4 in
  let g = Embedded.graph emb in
  let (parent, _), _ = Prim.bfs_tree g ~root:0 in
  let values = Array.make 16 1 in
  let sums, _ = Prim.subtree_agg g ~parent ~op:Prim.Sum ~values in
  Alcotest.(check int) "root sum = n" 16 sums.(0);
  (* Compare against centralized subtree sizes. *)
  let t = Repro_tree.Rooted.build ~rot:(Embedded.rot emb) ~root:0 parent in
  for v = 0 to 15 do
    Alcotest.(check int) "subtree size" (Repro_tree.Rooted.size t v) sums.(v)
  done

let test_subtree_max () =
  let emb = Gen.path 6 in
  let g = Embedded.graph emb in
  let parent = [| -1; 0; 1; 2; 3; 4 |] in
  let values = [| 3; 9; 2; 7; 1; 5 |] in
  let maxs, _ = Prim.subtree_agg g ~parent ~op:Prim.Max ~values in
  Alcotest.(check int) "root max" 9 maxs.(0);
  Alcotest.(check int) "mid max" 7 maxs.(2);
  Alcotest.(check int) "leaf max" 5 maxs.(5)

let test_ancestor_sum () =
  (* Path rooted at one end: node k's ancestor-sum is the prefix sum. *)
  let emb = Gen.path 7 in
  let g = Embedded.graph emb in
  let parent = [| -1; 0; 1; 2; 3; 4; 5 |] in
  let values = [| 1; 2; 3; 4; 5; 6; 7 |] in
  let sums, _ = Prim.ancestor_agg g ~parent ~op:Prim.Sum ~values in
  Alcotest.(check (array int)) "prefix sums" [| 1; 3; 6; 10; 15; 21; 28 |] sums

let test_ancestor_min_matches_naive () =
  let emb = Gen.stacked_triangulation ~seed:6 ~n:50 () in
  let g = Embedded.graph emb in
  let (parent, _), _ = Prim.bfs_tree g ~root:0 in
  let rng = Repro_util.Rng.create 8 in
  let values = Array.init 50 (fun _ -> Repro_util.Rng.int rng 1000) in
  let mins, _ = Prim.ancestor_agg g ~parent ~op:Prim.Min ~values in
  for v = 0 to 49 do
    let rec naive x = if x < 0 then max_int else min values.(x) (naive parent.(x)) in
    Alcotest.(check int) "ancestor min" (naive v) mins.(v)
  done

let test_broadcast () =
  let emb = Gen.grid ~rows:3 ~cols:5 in
  let g = Embedded.graph emb in
  let (parent, _), _ = Prim.bfs_tree g ~root:7 in
  let values, stats = Prim.broadcast g ~parent ~root:7 ~value:12345 in
  Array.iter (fun v -> Alcotest.(check int) "value received" 12345 v) values;
  Alcotest.(check bool) "rounds bounded by depth+2" true
    (stats.Engine.rounds <= Array.fold_left max 0 (Algo.bfs_dist g 7) + 3)

let test_partwise_sum () =
  let emb = Gen.grid ~rows:4 ~cols:6 in
  let g = Embedded.graph emb in
  let n = Graph.n g in
  let (parent, _), _ = Prim.bfs_tree g ~root:0 in
  (* Parts = columns of the grid (connected vertical strips). *)
  let parts = Array.init n (fun v -> v mod 6) in
  let values = Array.init n (fun v -> v) in
  let answers, stats = Prim.partwise g ~parent ~op:Prim.Sum ~parts ~values in
  let expected = Array.make 6 0 in
  for v = 0 to n - 1 do
    expected.(parts.(v)) <- expected.(parts.(v)) + v
  done;
  for v = 0 to n - 1 do
    Alcotest.(check int) "part sum" expected.(parts.(v)) answers.(v)
  done;
  (* O(depth + k): generous constant-factor check. *)
  let bound = 4 * (Array.fold_left max 0 (Algo.bfs_dist g 0) + 6 + 4) in
  Alcotest.(check bool) "pipelined rounds" true (stats.Engine.rounds <= bound)

let test_partwise_min_singletons () =
  (* Every node its own part: answers are the nodes' own values. *)
  let emb = Gen.cycle 12 in
  let g = Embedded.graph emb in
  let (parent, _), _ = Prim.bfs_tree g ~root:0 in
  let parts = Array.init 12 Fun.id in
  let values = Array.init 12 (fun v -> 100 - v) in
  let answers, _ = Prim.partwise g ~parent ~op:Prim.Min ~parts ~values in
  Alcotest.(check (array int)) "own values" values answers

let test_partwise_one_part () =
  let emb = Gen.stacked_triangulation ~seed:3 ~n:40 () in
  let g = Embedded.graph emb in
  let (parent, _), _ = Prim.bfs_tree g ~root:0 in
  let parts = Array.make 40 0 in
  let values = Array.init 40 Fun.id in
  let answers, _ = Prim.partwise g ~parent ~op:Prim.Max ~parts ~values in
  Array.iter (fun a -> Alcotest.(check int) "global max" 39 a) answers

let test_bandwidth_enforced () =
  (* A message bigger than the bandwidth must be rejected. *)
  let g = Graph.of_edges ~n:2 [ (0, 1) ] in
  let module Big = struct
    type input = unit
    type state = bool
    type msg = unit
    type output = unit

    let msg_bits () = 10_000
    let init ~n:_ ~id ~neighbors:_ () =
      if id = 0 then (true, [ (1, ()) ]) else (true, [])
    let step ~round:_ ~id:_ st ~inbox:_ = (st, [])
    let finished st = st
    let output _ = ()
  end in
  let module E = Engine.Make (Big) in
  Alcotest.check_raises "bandwidth"
    (Engine.Bandwidth_exceeded { src = 0; dst = 1; bits = 10_000; limit = 32 })
    (fun () -> ignore (E.run ~bandwidth:32 g ~input:[| (); () |]))

let test_nonedge_rejected () =
  let g = Graph.of_edges ~n:3 [ (0, 1) ] in
  let module Bad = struct
    type input = unit
    type state = bool
    type msg = unit
    type output = unit

    let msg_bits () = 1
    let init ~n:_ ~id ~neighbors:_ () =
      if id = 0 then (true, [ (2, ()) ]) else (true, [])
    let step ~round:_ ~id:_ st ~inbox:_ = (st, [])
    let finished st = st
    let output _ = ()
  end in
  let module E = Engine.Make (Bad) in
  Alcotest.check_raises "non-edge"
    (Invalid_argument "Engine: message along a non-edge") (fun () ->
      ignore (E.run g ~input:[| (); (); () |]))

let test_nontermination_detected () =
  (* A chatterbox protocol that never finishes must hit the round cap. *)
  let g = Graph.of_edges ~n:2 [ (0, 1) ] in
  let module Forever = struct
    type input = unit
    type state = unit
    type msg = unit
    type output = unit

    let msg_bits () = 1
    let init ~n:_ ~id:_ ~neighbors:_ () = ((), [])
    let step ~round:_ ~id st ~inbox:_ = (st, [ ((id + 1) mod 2, ()) ])
    let finished _ = false
    let output _ = ()
  end in
  let module E = Engine.Make (Forever) in
  Alcotest.check_raises "cap" (Engine.Did_not_terminate { max_rounds = 50 })
    (fun () -> ignore (E.run ~max_rounds:50 g ~input:[| (); () |]))

let test_duplicate_message_rejected () =
  (* Two messages on the same edge in one round violate the model. *)
  let g = Graph.of_edges ~n:2 [ (0, 1) ] in
  let module Dup = struct
    type input = unit
    type state = bool
    type msg = unit
    type output = unit

    let msg_bits () = 1
    let init ~n:_ ~id ~neighbors:_ () =
      if id = 0 then (true, [ (1, ()); (1, ()) ]) else (true, [])
    let step ~round:_ ~id:_ st ~inbox:_ = (st, [])
    let finished st = st
    let output _ = ()
  end in
  let module E = Engine.Make (Dup) in
  Alcotest.check_raises "duplicate" (Engine.Duplicate_message { src = 0; dst = 1 })
    (fun () -> ignore (E.run g ~input:[| (); () |]))

let test_rounds_accountant () =
  let r = Rounds.create ~n:1024 ~d:10 () in
  let ledger = Some r in
  Alcotest.(check (float 1e-9)) "pa cost" (10.0 *. 100.0) (Rounds.pa_cost r);
  Rounds.charge ledger Weights;
  Rounds.charge ledger Weights;
  Rounds.charge_rounds ledger Backend_collect 7;
  Rounds.charge None Weights;
  Alcotest.(check (float 1e-9)) "total" 2007.0 (Rounds.total r);
  Alcotest.(check bool) "breakdown, heaviest first" true
    (Rounds.breakdown r = [ (Weights, 2000.0, 2); (Backend_collect, 7.0, 1) ]);
  (* Lemmas 9 and 11 cost the same: ties keep table order. *)
  let tie = Rounds.create ~n:1024 ~d:10 () in
  Rounds.charge (Some tie) Dfs_order;
  Rounds.charge (Some tie) Spanning_forest;
  Alcotest.(check bool) "ties in table order" true
    (List.map (fun (l, _, _) -> l) (Rounds.breakdown tie)
    = [ Rounds.Spanning_forest; Dfs_order ]);
  Alcotest.(check bool) "an exact-rounds label refuses a PA charge" true
    (match Rounds.charge ledger Backend_collect with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_rounds_subroutine_charges () =
  let r = Rounds.create ~n:256 ~d:5 () in
  Rounds.charge (Some r) Dfs_order;
  (* log2 256 = 8 phases, each one PA = 5 * 64 rounds. *)
  Alcotest.(check (float 1e-9)) "dfs-order" (8.0 *. 320.0) (Rounds.total r)

(* The paper's bound per PA label, in PA units per charge. *)
let pa_units ~lg = function
  | Rounds.Spanning_forest | Dfs_order -> lg
  | Mark_path -> lg * lg
  | _ -> 1

(* Every label of the table is charged by some entry point, and every PA
   label at its published bound. *)
let test_every_label_charged () =
  let open Repro_core in
  let charged = ref [] in
  let run emb f =
    let g = Embedded.graph emb in
    let rounds = Rounds.create ~n:(Graph.n g) ~d:(Algo.diameter g) () in
    f rounds;
    let lg = int_of_float (Rounds.log2n rounds) in
    List.iter
      (fun (label, r, calls) ->
        charged := label :: !charged;
        if label <> Rounds.Backend_collect then
          Alcotest.(check (float 1e-6))
            (Rounds.label_name label ^ " per charge")
            (float_of_int (pa_units ~lg label) *. Rounds.pa_cost rounds)
            (r /. float_of_int calls))
      (Rounds.breakdown rounds)
  in
  List.iter
    (fun family ->
      let emb = Gen.by_family ~seed:3 family ~n:150 in
      let n = Embedded.n emb in
      run emb (fun rounds -> ignore (Screen.check ~rounds emb));
      run emb (fun rounds ->
          ignore (Dfs.run ~rounds emb ~root:(Embedded.outer emb)));
      run emb (fun rounds ->
          ignore
            (Dfs.run ~rounds ~spanning:(Repro_tree.Spanning.Random 5) emb
               ~root:(n / 2)));
      run emb (fun rounds ->
          ignore
            (Decomposition.build ~rounds
               ~backend:(Backend.fast_path ~cutoff:30 (Backend.default ()))
               emb));
      let cfg = Config.of_embedded emb in
      run emb (fun rounds ->
          ignore (Separator.shrink ~rounds cfg (Separator.find cfg).separator));
      run emb (fun rounds ->
          ignore (Repro_baseline.Random_sep.find ~rounds ~seed:1 ~samples:400 cfg));
      run emb (fun rounds ->
          let g = Config.graph cfg in
          let st = Join.create g ~root:(Repro_tree.Rooted.root (Config.tree cfg)) in
          ignore
            (Repro_testkit.Reference.Join.join ~rounds st
               ~members:(Array.init n Fun.id)
               ~separator:(Separator.find cfg).separator)))
    Gen.family_names;
  (* Lemma 16's hiding edge is asked for only when every Phase-4 sweep
     hit fails, as on this tree from an inner root. *)
  let emb = Gen.by_family ~seed:8 "tgrid" ~n:60 in
  run emb (fun rounds ->
      ignore
        (Dfs.run ~rounds ~spanning:(Repro_tree.Spanning.Random 8) emb
           ~root:(Embedded.n emb / 2)));
  Alcotest.(check (list string)) "every label charged"
    (List.map Rounds.label_name Rounds.labels)
    (List.filter (fun l -> List.mem l !charged) Rounds.labels
    |> List.map Rounds.label_name)

(* Minor words of [k] untraced charges: constant in [k] when a charge
   allocates nothing. *)
let test_untraced_charge_allocates_nothing () =
  let ledger = Some (Rounds.create ~n:1000 ~d:7 ()) in
  let words k =
    let before = Gc.minor_words () in
    for _ = 1 to k do
      Rounds.charge ledger Weights;
      Rounds.charge ledger Mark_path;
      Rounds.charge_rounds ledger Backend_collect 3
    done;
    Gc.minor_words () -. before
  in
  ignore (words 10);
  Alcotest.(check (float 0.0)) "1,000 vs 10,000 charges" (words 1_000)
    (words 10_000)

let prop_partwise_matches_reference =
  QCheck.Test.make ~name:"partwise aggregation matches reference" ~count:30
    QCheck.(triple (int_range 2 60) (int_range 1 10) (int_bound 1000))
    (fun (n, nparts, seed) ->
      let emb = Gen.stacked_triangulation ~seed ~n:(max 4 n) () in
      let g = Embedded.graph emb in
      let n = Graph.n g in
      let rng = Repro_util.Rng.create seed in
      let (parent, _), _ = Prim.bfs_tree g ~root:0 in
      let parts = Array.init n (fun _ -> Repro_util.Rng.int rng nparts) in
      let values = Array.init n (fun _ -> Repro_util.Rng.int rng 1000) in
      let answers, _ = Prim.partwise g ~parent ~op:Prim.Min ~parts ~values in
      let expected = Hashtbl.create 8 in
      Array.iteri
        (fun v p ->
          let cur = Hashtbl.find_opt expected p in
          Hashtbl.replace expected p
            (match cur with None -> values.(v) | Some x -> min x values.(v)))
        parts;
      Array.for_all Fun.id
        (Array.mapi (fun v a -> a = Hashtbl.find expected parts.(v)) answers))

let suites =
  Repro_testkit.Suite.make __MODULE__
    [
        Alcotest.test_case "bfs tree grid" `Quick test_bfs_tree_grid;
        Alcotest.test_case "bfs single node" `Quick test_bfs_single_node;
        Alcotest.test_case "subtree sums" `Quick test_subtree_sums;
        Alcotest.test_case "subtree max" `Quick test_subtree_max;
        Alcotest.test_case "ancestor sum" `Quick test_ancestor_sum;
        Alcotest.test_case "ancestor min" `Quick test_ancestor_min_matches_naive;
        Alcotest.test_case "broadcast" `Quick test_broadcast;
        Alcotest.test_case "partwise sum" `Quick test_partwise_sum;
        Alcotest.test_case "partwise singletons" `Quick test_partwise_min_singletons;
        Alcotest.test_case "partwise one part" `Quick test_partwise_one_part;
        Alcotest.test_case "bandwidth enforced" `Quick test_bandwidth_enforced;
        Alcotest.test_case "non-edge rejected" `Quick test_nonedge_rejected;
        Alcotest.test_case "non-termination detected" `Quick
          test_nontermination_detected;
        Alcotest.test_case "duplicate message rejected" `Quick
          test_duplicate_message_rejected;
        Alcotest.test_case "rounds accountant" `Quick test_rounds_accountant;
        Alcotest.test_case "subroutine charges" `Quick test_rounds_subroutine_charges;
        Alcotest.test_case "every label charged at its bound" `Quick
          test_every_label_charged;
        Alcotest.test_case "untraced charge allocates nothing" `Quick
          test_untraced_charge_allocates_nothing;
        qtest prop_partwise_matches_reference;
    ]
