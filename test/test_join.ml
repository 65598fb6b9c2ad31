(* The batched JOIN choreography vs its serial reference.

   Three claims:

   1. Bit-identity: on every generator family, the slot-batched join
      (lib/core/join.ml) produces exactly the partial tree and iteration
      count of the testkit's [Reference.Join] — the pre-batching per-component anchor
      aggregation + re-root + mark-path choreography kept verbatim as the
      differential oracle.
   2. The charged schedule is >= 2x cheaper from lg >= 4 on (per
      iteration: 2*lg + 3 PA units against lg^2 + lg + 2).
   3. Executed for real in the message engine over the reference's own
      forests ([Reference.Join.executed]), the slot batching keeps a >= 2x
      engine-run advantage over the serial per-slot binding (mirroring
      test_collective.ml's batching-win assertions). *)

open Repro_graph
open Repro_embedding
open Repro_congest
open Repro_core
open Repro_testkit

let log2ceil n = int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.0))

(* One joinable scenario per family: the full vertex set as members, the
   tree root as DFS root, and a real separator of the configuration. *)
let scenario emb =
  let cfg = Config.of_embedded emb in
  let g = Config.graph cfg in
  let root = Repro_tree.Rooted.root (Config.tree cfg) in
  let separator = (Separator.find cfg).Separator.separator in
  (g, root, Array.init (Graph.n g) Fun.id, separator)

let families () =
  [
    ("grid7x7", Gen.grid ~rows:7 ~cols:7);
    ("grid-diag6", Gen.grid_diag ~seed:3 ~rows:6 ~cols:6 ());
    ("tri90", Gen.stacked_triangulation ~seed:2 ~n:90 ());
    ("wheel30", Gen.wheel 30);
    ("fan25", Gen.fan 25);
    ("cycle33", Gen.cycle 33);
    ("star40", Gen.star 40);
    ("path50", Gen.path 50);
    ("rtree60", Gen.random_tree ~seed:8 ~n:60 ());
    ("caterpillar", Gen.caterpillar ~spine:10 ~legs:5);
  ]

let test_batched_equals_reference () =
  List.iter
    (fun (name, emb) ->
      let g, root, members, separator = scenario emb in
      let n = Graph.n g in
      let d = max 1 (Algo.diameter g) in
      let run reference =
        let ledger = Rounds.create ~n ~d () in
        let st = Join.create g ~root in
        let iters =
          if reference then
            Reference.Join.join ~rounds:ledger st ~members ~separator
          else Join.join ~rounds:ledger st ~members ~separator
        in
        (st, iters, Rounds.total ledger)
      in
      let stb, ib, cb = run false in
      let str_, ir, cr = run true in
      Alcotest.(check bool)
        (name ^ ": parent arrays identical")
        true
        (stb.Join.parent = str_.Join.parent);
      Alcotest.(check bool)
        (name ^ ": depth arrays identical")
        true
        (stb.Join.depth = str_.Join.depth);
      Alcotest.(check int) (name ^ ": iteration count") ir ib;
      List.iter
        (fun v ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d joined" name v)
            true (Join.in_tree stb v))
        separator;
      if log2ceil n >= 4 then
        Alcotest.(check bool)
          (Printf.sprintf "%s: charged halved (%.0f vs %.0f)" name cb cr)
          true
          (2.0 *. cb <= cr))
    (families ())

let test_exec_engine_run_ratio () =
  List.iter
    (fun (name, emb) ->
      let g, root, members, separator = scenario emb in
      let run serial =
        let st = Join.create g ~root in
        let iters, stats =
          Reference.Join.executed ~serial st ~root ~members ~separator
        in
        (st, iters, stats)
      in
      let stb, ib, sb = run false in
      let sts, is_, ss = run true in
      Alcotest.(check bool)
        (name ^ ": serial binding = batched binding")
        true
        (stb.Join.parent = sts.Join.parent
        && stb.Join.depth = sts.Join.depth
        && ib = is_);
      (* 4 engine runs per iteration batched, 8 serial: the exchange, the
         two-slot anchor/marked MAX, the target MAX, and the two-slot SUM
         bookkeeping, each paying per slot under the serial binding. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: serial %d runs >= 2x batched %d" name
           ss.Composed.engine_runs sb.Composed.engine_runs)
        true
        (ss.Composed.engine_runs >= 2 * sb.Composed.engine_runs))
    [
      ("grid6x6", Gen.grid ~rows:6 ~cols:6);
      ("tri70", Gen.stacked_triangulation ~seed:7 ~n:70 ());
      ("wheel24", Gen.wheel 24);
    ]

let test_batched_never_marks_paths () =
  let g, root, members, separator = scenario (Gen.grid ~rows:8 ~cols:8) in
  let ledger = Rounds.create ~n:(Graph.n g) ~d:(max 1 (Algo.diameter g)) () in
  let st = Join.create g ~root in
  ignore (Join.join ~rounds:ledger st ~members ~separator);
  Alcotest.(check int) "no mark-path walks" 0
    (Rounds.label_invocations ledger Mark_path);
  Alcotest.(check bool) "elections charged" true
    (Rounds.label_invocations ledger Join_elections > 0)

(* The member index of [Join.join] is a per-domain scratch that grows to
   the largest n it has seen and is reused by every later join on that
   domain.  Reuse across graphs of different sizes, and after a join that
   raised, must not leak into any result: each run below equals the same
   run on a fresh domain (whose scratch starts empty). *)
let test_scratch_reuse_across_graphs () =
  let dfs emb () =
    let g = Embedded.graph emb in
    let rounds =
      Rounds.create ~n:(Graph.n g) ~d:(max 1 (Algo.diameter g)) ()
    in
    let r = Dfs.run ~rounds emb ~root:0 in
    (r.Dfs.parent, r.Dfs.depth, Rounds.total rounds)
  in
  let fresh f = Domain.join (Domain.spawn f) in
  let same name emb =
    let here = dfs emb () in
    Alcotest.(check bool)
      (name ^ ": parent, depth and charged rounds = fresh domain")
      true
      (here = fresh (dfs emb))
  in
  (* A component holding separator nodes but no visited neighbour: the
     "no tree neighbour" failure, raised mid-join. *)
  let failing_join () =
    let g = Embedded.graph (Gen.path 6) in
    let st = Join.create g ~root:0 in
    match Join.join st ~members:[| 3; 4; 5 |] ~separator:[ 4 ] with
    | _ -> Alcotest.fail "join without a tree neighbour succeeded"
    | exception Invalid_argument _ -> ()
  in
  same "large" (Gen.stacked_triangulation ~seed:5 ~n:700 ());
  same "small" (Gen.grid ~rows:5 ~cols:5);
  failing_join ();
  (* Not the wheel: its rim separator is every rim node, so a stale mark
     there changes nothing.  Here one leaks into the join's elections. *)
  same "small after failure" (Gen.stacked_triangulation ~seed:5 ~n:40 ());
  same "large again" (Gen.grid_diag ~seed:4 ~rows:30 ~cols:30 ())

(* The engine's anchor codes reach n^3, past [max_int] from n = 1,664,511
   on; the host election compares (depth u, u, v) instead.  On the path
   0-1-2-3-4 of a 2,000,000-vertex graph, with 0 visited at depth 1,500,000
   and 3 at depth 5, the component {1, 2} hangs from 0, 1 first, as the
   DFS-RULE requires; the executed elections refuse that n.  Run on a
   fresh domain, so JOIN's per-domain scratch at this n dies with it. *)
let test_anchor_past_code_range () =
  Domain.join
  @@ Domain.spawn (fun () ->
         let g = Graph.of_edges ~n:2_000_000 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
         let st = Join.create g ~root:0 in
         st.Join.depth.(0) <- 1_500_000;
         st.Join.parent.(3) <- 4;
         st.Join.depth.(3) <- 5;
         Alcotest.(check (option (pair int int)))
           "component_anchor: 1 under 0" (Some (1, 0))
           (Join.component_anchor st [| 1; 2 |]);
         (match
            Reference.Join.executed st ~root:0 ~members:[| 1; 2 |]
              ~separator:[ 1; 2 ]
          with
         | _ -> Alcotest.fail "executed elections accepted n = 2,000,000"
         | exception Invalid_argument _ -> ());
         ignore (Join.join st ~members:[| 1; 2 |] ~separator:[ 1; 2 ]);
         Alcotest.(check (list int)) "parents of 1 and 2" [ 0; 1 ]
           [ st.Join.parent.(1); st.Join.parent.(2) ];
         Alcotest.(check (list int)) "depths of 1 and 2"
           [ 1_500_001; 1_500_002 ]
           [ st.Join.depth.(1); st.Join.depth.(2) ])

(* A separator node outside [members] is never reached: its iteration
   attaches nothing, and every implementation raises "no progress" instead
   of looping. *)
let test_no_progress () =
  let g = Embedded.graph (Gen.path 6) in
  let raises name f =
    let st = Join.create g ~root:0 in
    match f st with
    | _ -> Alcotest.failf "%s: a separator node outside members joined" name
    | exception Invalid_argument _ ->
      Alcotest.(check (list int))
        (name ^ ": members joined before the failure")
        [ 0; 1 ]
        [ st.Join.parent.(1); st.Join.parent.(2) ]
  in
  let members = [| 1; 2 |] and separator = [ 2; 5 ] in
  raises "Join.join" (Join.join ~members ~separator);
  raises "Reference.Join.join" (Reference.Join.join ~members ~separator);
  raises "Reference.Join.executed"
    (Reference.Join.executed ~root:0 ~members ~separator)

let suites =
  Suite.make __MODULE__
    [
      Alcotest.test_case "batched join = reference on all families" `Quick
        test_batched_equals_reference;
      Alcotest.test_case "executed elections: >=2x fewer engine runs" `Quick
        test_exec_engine_run_ratio;
      Alcotest.test_case "batched join retires mark-path" `Quick
        test_batched_never_marks_paths;
      Alcotest.test_case "scratch reuse: large/small/raise/large = fresh domain"
        `Quick test_scratch_reuse_across_graphs;
      Alcotest.test_case "anchor election past n^3 > max_int" `Quick
        test_anchor_past_code_range;
      Alcotest.test_case "separator node outside members: no progress" `Quick
        test_no_progress;
      Suite.property ~count:25 ~max_size:56 ~seed:204 ~oracles:[ "join" ]
        "batched = reference = executed, >=2x cheaper (fuzz)";
    ]
