(* Sequential equivalence of the part-parallel batch runner: for every
   family, running with no pool, a jobs=1 pool and a jobs=4 pool must
   produce bit-identical trees, decompositions and charged round totals. *)

open Repro_util
open Repro_graph
open Repro_embedding
open Repro_congest
open Repro_core

let with_modes f =
  (* no pool / sequential pool / parallel pool.  [seq_grain:0] forces the
     parallel path even on these small test graphs, whose batch costs would
     otherwise fall below the default grain and run sequentially — the whole
     point here is to exercise pool scheduling against the sequential
     reference. *)
  let none = f None in
  let seq = Pool.with_pool ~jobs:1 (fun p -> f (Some p)) in
  let par = Pool.with_pool ~seq_grain:0 ~jobs:4 (fun p -> f (Some p)) in
  (none, seq, par)

let check_all name eq (none, seq, par) =
  Alcotest.(check bool) (name ^ ": jobs=1 = no pool") true (eq none seq);
  Alcotest.(check bool) (name ^ ": jobs=4 = no pool") true (eq none par)

let test_dfs_deterministic () =
  List.iter
    (fun family ->
      let emb = Gen.by_family ~seed:7 family ~n:150 in
      let g = Embedded.graph emb in
      let d = Algo.diameter g in
      let run pool =
        let rounds = Rounds.create ~n:(Graph.n g) ~d () in
        let r = Dfs.run ~rounds ?pool emb ~root:(Embedded.outer emb) in
        (r, Rounds.total rounds, List.sort compare (Rounds.breakdown rounds))
      in
      check_all (family ^ " dfs")
        (fun (r1, t1, b1) (r2, t2, b2) ->
          r1.Dfs.parent = r2.Dfs.parent
          && r1.Dfs.depth = r2.Dfs.depth
          && r1.Dfs.phases = r2.Dfs.phases
          && r1.Dfs.max_join_iterations = r2.Dfs.max_join_iterations
          && r1.Dfs.phase_log = r2.Dfs.phase_log
          && r1.Dfs.separator_phases = r2.Dfs.separator_phases
          && t1 = t2 && b1 = b2)
        (with_modes run))
    Gen.family_names

let test_decomposition_deterministic () =
  List.iter
    (fun family ->
      let emb = Gen.by_family ~seed:3 family ~n:150 in
      let g = Embedded.graph emb in
      let d = Algo.diameter g in
      let run pool =
        let rounds = Rounds.create ~n:(Graph.n g) ~d () in
        let t = Decomposition.build ~rounds ?pool ~piece_target:12 emb in
        (t, Rounds.total rounds)
      in
      check_all (family ^ " decomposition")
        (fun (t1, r1) (t2, r2) ->
          t1.Decomposition.pieces = t2.Decomposition.pieces
          && t1.Decomposition.separator = t2.Decomposition.separator
          && t1.Decomposition.levels = t2.Decomposition.levels
          && t1.Decomposition.separator_count = t2.Decomposition.separator_count
          && r1 = r2)
        (with_modes run))
    Gen.family_names

let test_find_partition_deterministic () =
  let emb = Gen.stacked_triangulation ~seed:9 ~n:200 () in
  let parts =
    let t = Decomposition.build ~piece_target:40 emb in
    List.filter (fun p -> List.length p > 3) t.Decomposition.pieces
  in
  Alcotest.(check bool) "enough parts" true (List.length parts >= 2);
  let run pool =
    List.map
      (fun (_, r) -> (r.Separator.separator, r.Separator.phase))
      (Separator.find_partition ?pool emb ~parts)
  in
  check_all "find_partition" ( = ) (with_modes run)

let test_bounded_diameter_deterministic () =
  let emb = Gen.grid_diag ~seed:2 ~rows:12 ~cols:12 () in
  let run pool =
    let t = Decomposition.bounded_diameter ?pool ~diameter_target:6 emb in
    (t.Decomposition.pieces, t.Decomposition.separator, t.Decomposition.levels)
  in
  check_all "bounded_diameter" ( = ) (with_modes run)

(* Theorem 1's parallel-parts charge: a batch costs its heaviest part, not
   the sum; on a tie the lowest-index part's breakdown and trace are the
   ones absorbed; results come back in part order.  A pool adds only its
   own batch span. *)
let test_map_parts_charge () =
  let run pool =
    let trace = Repro_trace.Trace.create () in
    let rounds = Rounds.create ~trace ~n:16 ~d:2 () in
    let results =
      Rounds.map_parts ~rounds ?pool ~label:"pool.parts" ~cost:0
        (fun ?rounds (label, charge) ->
          Rounds.span rounds (Rounds.label_name label) (fun () ->
              Rounds.charge_rounds rounds label charge);
          label)
        [| (Rounds.Weights, 3); (Hidden, 5); (Detect_face, 1); (Re_root, 5) |]
    in
    let root = Repro_trace.Trace.root trace in
    ( (results, Rounds.total rounds, Rounds.breakdown rounds),
      List.map (fun s -> s.Repro_trace.Trace.name) root.children,
      Repro_trace.Trace.to_metrics_string trace )
  in
  let ledger, spans, _ = run None in
  Alcotest.(check bool) "part order; the tie's first part, charged once" true
    (ledger
    = ( [| Rounds.Weights; Hidden; Detect_face; Re_root |],
        5.0,
        [ (Rounds.Hidden, 5.0, 1) ] ));
  Alcotest.(check (list string)) "no pool: the absorbed part's span only"
    [ Rounds.label_name Hidden ] spans;
  let _, _, seq_metrics = Pool.with_pool ~jobs:1 (fun p -> run (Some p)) in
  let par_ledger, par_spans, par_metrics =
    Pool.with_pool ~seq_grain:0 ~jobs:3 (fun p -> run (Some p))
  in
  Alcotest.(check bool) "jobs=3 ledger = no pool" true (par_ledger = ledger);
  Alcotest.(check (list string)) "jobs=3: the pool span, then the absorb"
    [ Rounds.label_name Hidden; "pool.parts" ] par_spans;
  Alcotest.(check string) "jobs=3 metrics = jobs=1" seq_metrics par_metrics

let suites =
  Repro_testkit.Suite.make __MODULE__
    [
        Alcotest.test_case "dfs sequential-equivalent" `Quick test_dfs_deterministic;
        Alcotest.test_case "decomposition sequential-equivalent" `Quick
          test_decomposition_deterministic;
        Alcotest.test_case "find_partition sequential-equivalent" `Quick
          test_find_partition_deterministic;
        Alcotest.test_case "bounded_diameter sequential-equivalent" `Quick
          test_bounded_diameter_deterministic;
        Alcotest.test_case "map_parts charges the heaviest part" `Quick
          test_map_parts_charge;
    ]
