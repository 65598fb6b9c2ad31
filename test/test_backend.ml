(* The two separator backends: lookup by name, per-backend conformance on
   deterministic families, default-path bit-identity, and the small-part
   fast path: its dispatch by part size and its determinism across pool
   sizes. *)

open Repro_graph
open Repro_embedding
open Repro_tree
open Repro_core

let suite_families =
  [
    Gen.grid ~rows:9 ~cols:9;
    Gen.grid_diag ~seed:3 ~rows:8 ~cols:8 ();
    Gen.stacked_triangulation ~seed:5 ~n:120 ();
    Gen.cycle 40;
    Gen.path 30;
  ]

let test_registry_roundtrip () =
  Alcotest.(check (list string)) "all = congest, lt-level"
    [ "congest"; "lt-level" ]
    (List.map (fun b -> b.Backend.name) Backend.all);
  Alcotest.(check string) "default is congest" "congest"
    (Backend.default ()).Backend.name;
  List.iter
    (fun b ->
      Alcotest.(check (option string))
        (Printf.sprintf "lookup %s round-trips" b.Backend.name)
        (Some b.Backend.name)
        (Option.map (fun b -> b.Backend.name) (Backend.lookup b.Backend.name)))
    Backend.all;
  Alcotest.(check bool) "unknown lookup is None" true
    (Backend.lookup "no-such-backend" = None)

let test_centralized_backends_balanced () =
  List.iter
    (fun emb ->
      let cfg = Config.of_embedded emb in
      List.iter
        (fun b ->
          let bname = b.Backend.name in
          let r = b.Backend.find cfg in
          let sep = r.Repro_core.Separator.separator in
          Alcotest.(check bool)
            (Printf.sprintf "%s balanced on %s" bname (Embedded.name emb))
            true
            (sep <> [] && Check.balanced cfg sep);
          let trimmed = b.Backend.trim cfg sep in
          Alcotest.(check bool)
            (Printf.sprintf "%s trim keeps balance on %s" bname
               (Embedded.name emb))
            true
            (List.length trimmed <= List.length sep
            && Check.balanced cfg trimmed))
        (List.filter (fun b -> b.Backend.kind = Backend.Centralized) Backend.all))
    suite_families

let test_default_bit_identity () =
  let emb = Gen.stacked_triangulation ~seed:13 ~n:150 () in
  let cfg = Config.of_embedded emb in
  let direct = Separator.find cfg in
  let via_backend = (Backend.default ()).Backend.find cfg in
  Alcotest.(check bool) "Separator.find = default backend find" true
    (direct = via_backend);
  let d0 = Decomposition.build emb in
  let d1 = Decomposition.build ~backend:(Backend.default ()) emb in
  Alcotest.(check bool) "Decomposition.build default = explicit congest" true
    (d0.Decomposition.pieces = d1.Decomposition.pieces
    && d0.Decomposition.separator = d1.Decomposition.separator
    && d0.Decomposition.levels = d1.Decomposition.levels
    && d0.Decomposition.separator_count = d1.Decomposition.separator_count)

(* [b] with every call filed in [seen], the way the benchmark's timed
   backend wraps the registry one: the hook, the part's size and, for
   [find], the answer's phase and the backend-collect charges it made. *)
let observed seen (b : Backend.t) =
  let collects rounds =
    Option.fold ~none:0 rounds ~some:(fun r ->
        Repro_congest.Rounds.label_invocations r Backend_collect)
  in
  {
    b with
    Backend.find =
      (fun ?rounds cfg ->
        let before = collects rounds in
        let r = b.Backend.find ?rounds cfg in
        seen :=
          ("find", Config.n cfg, r.Separator.phase, collects rounds - before)
          :: !seen;
        r);
    trim =
      (fun ?rounds cfg s ->
        seen := ("trim", Config.n cfg, "", 0) :: !seen;
        b.Backend.trim ?rounds cfg s);
  }

let test_cutoff_dispatch_deterministic () =
  let emb = Gen.grid ~rows:20 ~cols:20 in
  let g = Embedded.graph emb in
  let n = Graph.n g in
  let d = Algo.diameter g in
  let cutoff = 30 in
  let run ?pool backend =
    let ledger = Repro_congest.Rounds.create ~n ~d:(max 1 d) () in
    let t = Decomposition.build ~rounds:ledger ?pool ~backend emb in
    (t, Repro_congest.Rounds.total ledger)
  in
  let fast = Backend.fast_path ~cutoff (Backend.default ()) in
  let t1, r1 = run fast in
  let tn, rn =
    Repro_util.Pool.with_pool ~seq_grain:0 ~jobs:4 (fun pool -> run ~pool fast)
  in
  Alcotest.(check bool) "decomposition bit-identical across pool sizes" true
    (t1 = tn);
  Alcotest.(check bool)
    (Printf.sprintf "charged rounds identical (%.1f vs %.1f)" r1 rn)
    true (r1 = rn);
  Alcotest.(check bool) "fast path produced a valid decomposition" true
    (Decomposition.check emb ~piece_target:20 t1);
  (* The fast path around a counting default backend: the default sees
     exactly the parts above the cutoff, and the others answer from
     lt-level with one collect charge each. *)
  let inner = ref [] and outer = ref [] in
  let tw, rw =
    run
      (observed outer
         (Backend.fast_path ~cutoff (observed inner (Backend.default ()))))
  in
  let small, large = List.partition (fun (_, k, _, _) -> k <= cutoff) !outer in
  Alcotest.(check bool) "parts on both sides of the cutoff" true
    (small <> [] && large <> []);
  Alcotest.(check (list (pair string int)))
    "the wrapped backend sees exactly the parts above the cutoff"
    (List.map (fun (hook, k, _, _) -> (hook, k)) large)
    (List.map (fun (hook, k, _, _) -> (hook, k)) !inner);
  List.iter
    (fun (hook, k, phase, collects) ->
      if hook = "find" then
        Alcotest.(check (pair string int))
          (Printf.sprintf "part of %d: lt-level, one collect" k)
          ("lt-level", 1) (phase, collects))
    small;
  Alcotest.(check bool) "wrapped counter = unwrapped fast path" true
    (tw = t1 && rw = r1)

let test_dfs_with_cutoff () =
  let emb = Gen.grid_diag ~seed:7 ~rows:12 ~cols:12 () in
  let g = Embedded.graph emb in
  let root = Embedded.outer emb in
  let fast cutoff = Backend.fast_path ~cutoff (Backend.default ()) in
  let r = Dfs.run ~backend:(fast 25) emb ~root in
  Alcotest.(check bool) "DFS with fast path verifies" true
    (Dfs.verify emb ~root r);
  Alcotest.(check bool) "centralized phase fired on small components" true
    (List.mem_assoc "lt-level" r.Dfs.separator_phases);
  (* Cutoff covering every component: all non-trivial separators come from
     the centralized backend, and the tree is still a DFS tree. *)
  let r_all = Dfs.run ~backend:(fast (Graph.n g)) emb ~root in
  Alcotest.(check bool) "DFS fully centralized verifies" true
    (Dfs.verify emb ~root r_all);
  Alcotest.(check bool) "only trivial/lt-level phases fire" true
    (List.for_all
       (fun (phase, _) -> phase = "trivial" || phase = "lt-level")
       r_all.Dfs.separator_phases)

let test_backend_oracle_large_grid () =
  (* One instance big enough that the oracle's size-vs-sqrt(n) tripwire is
     not vacuous (fuzz sizes never are). *)
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
      Alcotest.test_case "centralized backends balanced" `Quick
        test_centralized_backends_balanced;
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
