(* The separator-backend registry (tentpole of the pluggable-backend PR):
   registration semantics, per-backend conformance on deterministic
   families, default-path bit-identity, and cutoff-dispatch determinism
   across pool sizes. *)

open Repro_graph
open Repro_embedding
open Repro_tree
open Repro_core
open Repro_baseline

let suite_families =
  [
    Gen.grid ~rows:9 ~cols:9;
    Gen.grid_diag ~seed:3 ~rows:8 ~cols:8 ();
    Gen.stacked_triangulation ~seed:5 ~n:120 ();
    Gen.cycle 40;
    Gen.path 30;
  ]

let test_registry_roundtrip () =
  Backends.ensure ();
  let bs = Backend.all () in
  Alcotest.(check bool) "congest registered first" true
    (match bs with b :: _ -> b.Backend.name = "congest" | [] -> false);
  Alcotest.(check string) "default is congest" "congest"
    (Backend.default ()).Backend.name;
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "%s registered" name)
        true
        (List.mem name (Backend.names ())))
    [ "congest"; "lt-level"; "hn-cycle" ];
  List.iter
    (fun b ->
      Alcotest.(check string)
        (Printf.sprintf "lookup %s round-trips" b.Backend.name)
        b.Backend.name
        (Backend.lookup b.Backend.name).Backend.name;
      Alcotest.(check bool)
        (Printf.sprintf "lookup_opt %s" b.Backend.name)
        true
        (Backend.lookup_opt b.Backend.name <> None))
    bs;
  Alcotest.(check string) "centralized default is lt-level" "lt-level"
    (match Backend.centralized_default () with
    | Some b -> b.Backend.name
    | None -> "<none>");
  Alcotest.(check bool) "unknown lookup raises Failure" true
    (match Backend.lookup "no-such-backend" with
    | _ -> false
    | exception Failure _ -> true)

let test_duplicate_rejected () =
  Backends.ensure ();
  Alcotest.(check bool) "re-registering congest raises" true
    (match Backend.register (Backend.default ()) with
    | () -> false
    | exception Backend.Duplicate_backend "congest" -> true
    | exception _ -> false)

let test_dummy_registration () =
  (* Registering a new backend is open to clients: an alias of congest
     under a fresh name must round-trip without disturbing the default or
     the oracle's shipped-backend filter. *)
  Backends.ensure ();
  (match Backend.lookup_opt "test-dummy" with
  | Some _ -> () (* already registered by a previous in-process run *)
  | None ->
    let congest = Backend.default () in
    Backend.register
      { congest with Backend.name = "test-dummy"; description = "test alias" });
  Alcotest.(check bool) "dummy listed" true
    (List.mem "test-dummy" (Backend.names ()));
  Alcotest.(check string) "default still congest" "congest"
    (Backend.default ()).Backend.name;
  Alcotest.(check string) "centralized default still lt-level" "lt-level"
    (match Backend.centralized_default () with
    | Some b -> b.Backend.name
    | None -> "<none>")

let test_centralized_backends_balanced () =
  Backends.ensure ();
  List.iter
    (fun emb ->
      let cfg = Config.of_embedded emb in
      let g = Embedded.graph emb in
      let n = Graph.n g in
      let limit = Check.balance_limit n in
      List.iter
        (fun bname ->
          let b = Backend.lookup bname in
          let r = b.Backend.find cfg in
          let sep = r.Repro_core.Separator.separator in
          Alcotest.(check bool)
            (Printf.sprintf "%s balanced on %s" bname (Embedded.name emb))
            true
            (sep <> [] && Lipton_tarjan.max_component_after g sep <= limit);
          let trimmed = b.Backend.trim cfg sep in
          Alcotest.(check bool)
            (Printf.sprintf "%s trim keeps balance on %s" bname
               (Embedded.name emb))
            true
            (List.length trimmed <= List.length sep
            && Lipton_tarjan.max_component_after g trimmed <= limit))
        [ "lt-level"; "hn-cycle" ])
    suite_families

let test_hn_cycle_closing_edge () =
  Backends.ensure ();
  let b = Backend.lookup "hn-cycle" in
  Alcotest.(check bool) "hn-cycle is cycle-certified" true
    (b.Backend.certificate = Backend.Cycle_certified);
  let fired = ref 0 in
  List.iter
    (fun emb ->
      let cfg = Config.of_embedded emb in
      let g = Embedded.graph emb in
      let r = b.Backend.find cfg in
      match r.Repro_core.Separator.endpoints with
      | None -> ()
      | Some (a, bb) ->
        incr fired;
        Alcotest.(check bool)
          (Printf.sprintf "closing edge (%d,%d) exists on %s" a bb
             (Embedded.name emb))
          true (Graph.mem_edge g a bb))
    suite_families;
  (* At least one family must exercise a real cycle certificate, or the
     whole stage is dead code. *)
  Alcotest.(check bool) "some family produced a cycle certificate" true
    (!fired > 0)

(* Naive reference for the optimized fundamental-cycle sweep: same BFS
   tree, same edge order, same tie-break, but every candidate pays the
   full max_component_after sweep. *)
let naive_best_fundamental_cycle g ~root =
  let parent = Spanning.bfs g ~root in
  let depth = Algo.bfs_dist g root in
  let path_between u v =
    let rec go u v left right =
      if u = v then List.rev_append left (u :: right)
      else if depth.(u) >= depth.(v) then go parent.(u) v (u :: left) right
      else go u parent.(v) left (v :: right)
    in
    go u v [] []
  in
  let best = ref None in
  Graph.iter_edges g (fun u v ->
      if parent.(u) <> v && parent.(v) <> u then begin
        let cycle = path_between u v in
        let mc = Lipton_tarjan.max_component_after g cycle in
        let len = List.length cycle in
        match !best with
        | Some (_, bmc, bsize) when bmc < mc || (bmc = mc && bsize <= len) ->
          ()
        | _ -> best := Some (cycle, mc, len)
      end);
  Option.map (fun (cycle, mc, _) -> (cycle, mc)) !best

let test_best_fundamental_cycle_matches_naive () =
  List.iter
    (fun emb ->
      let g = Embedded.graph emb in
      let opt = Lipton_tarjan.best_fundamental_cycle g ~root:0 in
      let naive = naive_best_fundamental_cycle g ~root:0 in
      Alcotest.(check bool)
        (Printf.sprintf "optimized = naive on %s" (Embedded.name emb))
        true (opt = naive))
    [
      Gen.grid ~rows:7 ~cols:7;
      Gen.grid_diag ~seed:2 ~rows:6 ~cols:6 ();
      Gen.stacked_triangulation ~seed:9 ~n:90 ();
      Gen.cycle 25;
      Gen.path 15;
    ]

let test_stop_at_respects_goal () =
  let g = Embedded.graph (Gen.grid_diag ~seed:4 ~rows:7 ~cols:7 ()) in
  let n = Graph.n g in
  let limit = Check.balance_limit n in
  match Lipton_tarjan.best_fundamental_cycle ~stop_at:limit g ~root:0 with
  | Some (cycle, mc) ->
    Alcotest.(check bool) "early-stopped cycle meets the goal" true
      (mc <= limit);
    Alcotest.(check int) "mc honest" mc
      (Lipton_tarjan.max_component_after g cycle)
  | None -> Alcotest.fail "triangulated grid has fundamental cycles"

let test_default_bit_identity () =
  Backends.ensure ();
  let emb = Gen.stacked_triangulation ~seed:13 ~n:150 () in
  let cfg = Config.of_embedded emb in
  let direct = Separator.find cfg in
  let via_registry = (Backend.default ()).Backend.find cfg in
  Alcotest.(check bool) "Separator.find = default backend find" true
    (direct = via_registry);
  let d0 = Decomposition.build emb in
  let d1 = Decomposition.build ~backend:(Backend.lookup "congest") emb in
  Alcotest.(check bool) "Decomposition.build default = explicit congest" true
    (d0.Decomposition.pieces = d1.Decomposition.pieces
    && d0.Decomposition.separator = d1.Decomposition.separator
    && d0.Decomposition.levels = d1.Decomposition.levels
    && d0.Decomposition.separator_count = d1.Decomposition.separator_count)

let test_cutoff_dispatch_deterministic () =
  Backends.ensure ();
  let emb = Gen.grid ~rows:20 ~cols:20 in
  let g = Embedded.graph emb in
  let n = Graph.n g in
  let d = Algo.diameter g in
  let run pool =
    let ledger = Repro_congest.Rounds.create ~n ~d:(max 1 d) () in
    let t =
      Decomposition.build ~rounds:ledger ?pool ~small_part_cutoff:30 emb
    in
    (t, Repro_congest.Rounds.total ledger)
  in
  let t1, r1 = run None in
  let tn, rn =
    Repro_util.Pool.with_pool ~seq_grain:0 ~jobs:4 (fun pool ->
        run (Some pool))
  in
  Alcotest.(check bool) "decomposition bit-identical across pool sizes" true
    (t1.Decomposition.pieces = tn.Decomposition.pieces
    && t1.Decomposition.separator = tn.Decomposition.separator
    && t1.Decomposition.levels = tn.Decomposition.levels
    && t1.Decomposition.separator_count = tn.Decomposition.separator_count);
  Alcotest.(check bool)
    (Printf.sprintf "charged rounds identical (%.1f vs %.1f)" r1 rn)
    true (r1 = rn);
  Alcotest.(check bool) "fast path produced a valid decomposition" true
    (Decomposition.check emb ~piece_target:20 t1)

let test_dfs_with_cutoff () =
  Backends.ensure ();
  let emb = Gen.grid_diag ~seed:7 ~rows:12 ~cols:12 () in
  let g = Embedded.graph emb in
  let root = Embedded.outer emb in
  let r = Dfs.run ~small_part_cutoff:25 emb ~root in
  Alcotest.(check bool) "DFS with fast path verifies" true
    (Dfs.verify emb ~root r);
  Alcotest.(check bool) "centralized phase fired on small components" true
    (List.mem_assoc "lt-level" r.Dfs.separator_phases);
  (* Cutoff covering every component: all non-trivial separators come from
     the centralized backend, and the tree is still a DFS tree. *)
  let r_all = Dfs.run ~small_part_cutoff:(Graph.n g) emb ~root in
  Alcotest.(check bool) "DFS fully centralized verifies" true
    (Dfs.verify emb ~root r_all);
  Alcotest.(check bool) "only trivial/lt-level phases fire" true
    (List.for_all
       (fun (phase, _) -> phase = "trivial" || phase = "lt-level")
       r_all.Dfs.separator_phases)

let test_backend_oracle_large_grid () =
  (* One instance big enough that the oracle's size-vs-sqrt(n) tripwire is
     not vacuous (fuzz sizes never are). *)
  Backends.ensure ();
  let inst =
    Repro_testkit.Instance.build
      {
        Repro_testkit.Instance.family = "stacked";
        n = 2500;
        seed = 11;
        spanning = Spanning.Bfs;
      }
  in
  let report = Repro_testkit.Oracle.run_protected
      (Repro_testkit.Oracle.find "backend") inst
  in
  Alcotest.(check bool) report.Repro_testkit.Oracle.detail true
    report.Repro_testkit.Oracle.ok

let suites =
  Repro_testkit.Suite.make __MODULE__
    [
      Alcotest.test_case "registry round-trip" `Quick test_registry_roundtrip;
      Alcotest.test_case "duplicate name rejected" `Quick
        test_duplicate_rejected;
      Alcotest.test_case "client registration" `Quick test_dummy_registration;
      Alcotest.test_case "centralized backends balanced" `Quick
        test_centralized_backends_balanced;
      Alcotest.test_case "hn-cycle closing edge" `Quick
        test_hn_cycle_closing_edge;
      Alcotest.test_case "fundamental-cycle sweep = naive" `Quick
        test_best_fundamental_cycle_matches_naive;
      Alcotest.test_case "stop_at respects goal" `Quick
        test_stop_at_respects_goal;
      Alcotest.test_case "default path bit-identical" `Quick
        test_default_bit_identity;
      Alcotest.test_case "cutoff dispatch deterministic" `Quick
        test_cutoff_dispatch_deterministic;
      Alcotest.test_case "dfs with fast path" `Quick test_dfs_with_cutoff;
      Alcotest.test_case "backend oracle at n=2500" `Slow
        test_backend_oracle_large_grid;
      Repro_testkit.Suite.property ~count:25 ~max_size:56 ~seed:405
        ~oracles:[ "backend" ] "backend registry conformance (fuzz)";
    ]
