open Repro_embedding
open Repro_tree
open Repro_congest
open Repro_core

let qtest = QCheck_alcotest.to_alcotest

let find_on ?rounds emb spanning =
  let cfg = Config.of_embedded ~spanning emb in
  (cfg, Separator.find ?rounds cfg)

let assert_valid name (cfg, r) =
  let verdict = Check.check_separator cfg r.Separator.separator in
  Alcotest.(check bool)
    (Printf.sprintf "%s valid (%s): %s" name r.Separator.phase
       (Fmt.str "%a" Check.pp_verdict verdict))
    true verdict.Check.valid

let test_grid_families () =
  List.iter
    (fun emb ->
      List.iter
        (fun sp -> assert_valid (Embedded.name emb) (find_on emb sp))
        [ Spanning.Bfs; Spanning.Dfs; Spanning.Random 5 ])
    [
      Gen.grid ~rows:7 ~cols:7;
      Gen.grid_diag ~seed:3 ~rows:6 ~cols:6 ();
      Gen.stacked_triangulation ~seed:2 ~n:90 ();
      Gen.wheel 30;
      Gen.fan 25;
      Gen.cycle 33;
    ]

let test_tree_inputs () =
  (* Trees exercise Phase 2, including the star (centroid deviation). *)
  List.iter
    (fun emb -> assert_valid (Embedded.name emb) (find_on emb Spanning.Bfs))
    [
      Gen.star 40;
      Gen.path 50;
      Gen.random_tree ~seed:8 ~n:60 ();
      Gen.caterpillar ~spine:10 ~legs:5;
    ]

let test_star_phase_is_tree () =
  let _, r = find_on (Gen.star 40) Spanning.Bfs in
  Alcotest.(check string) "phase" "2-tree" r.Separator.phase

let test_trivial_small () =
  List.iter
    (fun n ->
      let emb = Gen.path n in
      let cfg, r = find_on emb Spanning.Bfs in
      Alcotest.(check bool) "valid" true
        (Check.check_separator cfg r.Separator.separator).Check.valid)
    [ 1; 2; 3 ]

let test_separator_is_tree_path () =
  let cfg, r = find_on (Gen.grid_diag ~seed:9 ~rows:8 ~cols:8 ()) Spanning.Dfs in
  Alcotest.(check bool) "tree path" true
    (Check.is_tree_path (Config.tree cfg) r.Separator.separator)

let test_tgrid_window_complete () =
  (* A high-diameter part where the even 24-leaf sample of the Phase-5
     window misses every balanced leaf: the rest of the window must still
     be probed, so a phase (not a search below the phases) answers. *)
  let cfg = Config.of_embedded (Gen.grid_diag ~seed:6 ~rows:60 ~cols:60 ()) in
  let r = Separator.find cfg in
  assert_valid "tgrid 60x60 seed 6" (cfg, r);
  Alcotest.(check bool)
    (Printf.sprintf "phase %s is a Phase-5 candidate" r.Separator.phase)
    true
    (String.starts_with ~prefix:"5-" r.Separator.phase)

let test_closing_edges_pinned () =
  (* Two pinned grids, every spanning kind: each separator is valid and
     each reported closing edge is real or planarly insertable. *)
  List.iter
    (fun seed ->
      let emb = Gen.by_family ~seed "grid" ~n:50 in
      List.iter
        (fun sp ->
          let name = Printf.sprintf "grid:50:%d %s" seed (Spanning.kind_name sp) in
          let cfg, r = find_on emb sp in
          assert_valid name (cfg, r);
          match r.Separator.endpoints with
          | None -> ()
          | Some endpoints ->
            Alcotest.(check bool) (name ^ " closing edge certified") true
              (Check.cycle_closable cfg ~endpoints))
        [ Spanning.Bfs; Spanning.Dfs; Spanning.Random seed ])
    [ 434796; 483504 ]

let test_rounds_charged () =
  let emb = Gen.grid_diag ~seed:4 ~rows:8 ~cols:8 () in
  let g = Embedded.graph emb in
  let d = Repro_graph.Algo.diameter g in
  let rounds = Rounds.create ~n:(Repro_graph.Graph.n g) ~d () in
  let _ = find_on ~rounds emb Spanning.Bfs in
  Alcotest.(check bool) "positive rounds" true (Rounds.total rounds > 0.0);
  Alcotest.(check bool) "has dfs-order charge" true
    (Rounds.label_invocations rounds Dfs_order > 0)

let test_partition_version () =
  (* Theorem 1's partition interface: grid split into vertical strips. *)
  let emb = Gen.grid ~rows:6 ~cols:12 in
  let parts =
    List.init 4 (fun b ->
        List.concat_map
          (fun r -> List.init 3 (fun c -> (r * 12) + (3 * b) + c))
          (List.init 6 Fun.id))
  in
  let rounds = Rounds.create ~n:72 ~d:16 () in
  let results = Separator.find_partition ~rounds emb ~parts in
  Alcotest.(check int) "4 parts" 4 (List.length results);
  List.iter
    (fun (cfg, r) ->
      Alcotest.(check bool) "part separator valid" true
        (Check.check_separator cfg r.Separator.separator).Check.valid)
    results;
  Alcotest.(check bool) "charged once (max), not 4x" true
    (Rounds.total rounds > 0.0)

let test_singleton_parts () =
  let emb = Gen.grid ~rows:2 ~cols:3 in
  let parts = List.init 6 (fun v -> [ v ]) in
  let results = Separator.find_partition emb ~parts in
  List.iter
    (fun (_, r) ->
      Alcotest.(check int) "singleton separator" 1 (List.length r.Separator.separator))
    results

let test_shrink_balanced_and_smaller () =
  List.iter
    (fun emb ->
      let cfg = Config.of_embedded emb in
      let r = Separator.find cfg in
      let s = Separator.shrink cfg r.Separator.separator in
      Alcotest.(check bool) (Embedded.name emb ^ " still balanced") true
        (Check.balanced cfg s);
      Alcotest.(check bool) "not larger" true
        (List.length s <= List.length r.Separator.separator);
      Alcotest.(check bool) "non-empty" true (s <> []))
    [
      Gen.cycle 90;
      Gen.grid ~rows:9 ~cols:9;
      Gen.grid_diag ~seed:3 ~rows:8 ~cols:8 ();
      Gen.path 50;
      Gen.star 30;
    ]

let test_shrink_cycle_recovers_third () =
  (* On a cycle the untrimmed separator is the whole path; trimming must
     recover roughly n/3. *)
  let emb = Gen.cycle 99 in
  let cfg = Config.of_embedded emb in
  let r = Separator.find cfg in
  let s = Separator.shrink cfg r.Separator.separator in
  Alcotest.(check bool)
    (Printf.sprintf "trimmed to %d ~ n/3" (List.length s))
    true
    (List.length s <= 35)

let test_shrink_singleton_stable () =
  let emb = Gen.star 20 in
  let cfg = Config.of_embedded emb in
  (* The hub alone is balanced. *)
  let s = Separator.shrink cfg [ 0 ] in
  Alcotest.(check (list int)) "unchanged" [ 0 ] s

(* [Separator.shrink] against the binary-search reference on fresh
   ledgers: the same trimmed path and the same number of charged
   probes. *)
let shrink_matches_reference cfg path =
  let fresh () = Rounds.create ~n:(Config.n cfg) ~d:1 () in
  let l = fresh () and l' = fresh () in
  let s = Separator.shrink ~rounds:l cfg path in
  let s' = Repro_testkit.Oracle.shrink_reference ~rounds:l' cfg path in
  ( s,
    s',
    Rounds.label_invocations l Shrink_balance,
    Rounds.label_invocations l' Shrink_balance )

let test_shrink_no_balanced_window () =
  (* Two nodes out of a 400-node grid leave a component far above 2n/3:
     no window is balanced, and both sides return the path unchanged. *)
  let cfg = Config.of_embedded (Gen.grid ~rows:20 ~cols:20) in
  let tree = Config.tree cfg in
  let root = Rooted.root tree in
  let path = [ root; Rooted.child tree root 0 ] in
  let s, s', probes, probes' = shrink_matches_reference cfg path in
  Alcotest.(check (list int)) "one-pass unchanged" path s;
  Alcotest.(check (list int)) "reference unchanged" path s';
  Alcotest.(check int) "trim balance probes" probes' probes

let prop_shrink_matches_reference =
  QCheck.Test.make ~name:"shrink = binary-search reference (path, probes)"
    ~count:60
    QCheck.(
      triple (int_range 0 6) (pair (int_range 6 300) (int_bound 100000))
        (int_range 0 2))
    (fun (which, (n, seed), spi) ->
      let family = List.nth Gen.family_names which in
      let emb = Gen.by_family ~seed family ~n in
      let spanning =
        match spi with 0 -> Spanning.Bfs | 1 -> Spanning.Dfs | _ -> Spanning.Random seed
      in
      let cfg = Config.of_embedded ~spanning emb in
      let nn = Config.n cfg in
      (* The separator, and a tree path between two seeded nodes, which
         need not be balanced at all. *)
      let other = Rooted.path (Config.tree cfg) (seed mod nn) (seed / 7 mod nn) in
      List.for_all
        (fun path ->
          let s, s', probes, probes' = shrink_matches_reference cfg path in
          s = s' && probes = probes')
        [ (Separator.find cfg).Separator.separator; other ])

(* [Check.balanced_with]'s early-exit BFS against the union-find verdict,
   every call back to back on one scratch and queue, which must be
   all-false again after each call.  Removal sets: the found separator
   (balanced), seeded tree paths, random subsets with repeats, the empty
   set (one component over the limit) and every vertex; on the cycle
   family also every split {0, a + 1}, whose two arcs a and n - 2 - a
   take each size at and around the limit, in both BFS orders. *)
let probe_scratch = Array.make 512 false
let probe_queue = Array.make 512 0

let prop_balanced_with_union_find =
  QCheck.Test.make ~name:"balanced_with = union-find verdict" ~count:80
    QCheck.(
      triple (int_range 0 6) (pair (int_range 4 300) (int_bound 100000))
        (int_range 0 2))
    (fun (which, (n, seed), spi) ->
      let family = List.nth Gen.family_names which in
      let emb = Gen.by_family ~seed family ~n in
      let spanning =
        match spi with 0 -> Spanning.Bfs | 1 -> Spanning.Dfs | _ -> Spanning.Random seed
      in
      let cfg = Config.of_embedded ~spanning emb in
      let g = Config.graph cfg and nn = Config.n cfg in
      let rng = Repro_util.Rng.create seed in
      let reference s =
        let removed = Array.make nn false in
        List.iter (fun v -> removed.(v) <- true) s;
        Check.max_component_without g removed <= Check.balance_limit nn
      in
      let verdicts = ref [] in
      let agrees s =
        let v =
          Check.balanced_with ~scratch:probe_scratch ~queue:probe_queue cfg s
        in
        verdicts := v :: !verdicts;
        v = reference s && Array.for_all not probe_scratch
      in
      let tree = Config.tree cfg in
      let paths =
        List.init 4 (fun _ ->
            Rooted.path tree (Repro_util.Rng.int rng nn) (Repro_util.Rng.int rng nn))
      in
      let subsets =
        List.init 4 (fun _ ->
            List.init (Repro_util.Rng.int rng (2 * nn)) (fun _ ->
                Repro_util.Rng.int rng nn))
      in
      let splits =
        if family = "cycle" then List.init (nn - 1) (fun a -> [ 0; a + 1 ]) else []
      in
      List.for_all agrees
        (((Separator.find cfg).Separator.separator :: paths)
        @ subsets @ splits
        @ [ []; List.init nn Fun.id ])
      && List.mem true !verdicts && List.mem false !verdicts)

let prop_certified_closing_edges =
  (* Whenever a closing edge is reported, the full cycle-separator
     definition holds: the edge is real or planarly insertable. *)
  QCheck.Test.make ~name:"reported closing edges are certifiable" ~count:60
    QCheck.(
      triple (int_range 0 6) (pair (int_range 6 200) (int_bound 100000))
        (int_range 0 2))
    (fun (which, (n, seed), spi) ->
      let family = List.nth Gen.family_names which in
      let emb = Gen.by_family ~seed family ~n in
      let spanning =
        match spi with 0 -> Spanning.Bfs | 1 -> Spanning.Dfs | _ -> Spanning.Random seed
      in
      let cfg = Config.of_embedded ~spanning emb in
      let r = Separator.find cfg in
      match r.Separator.endpoints with
      | None -> true
      | Some endpoints -> Check.cycle_closable cfg ~endpoints)

let prop_shrink_preserves_balance =
  QCheck.Test.make ~name:"shrink keeps balance, never grows" ~count:50
    QCheck.(pair (int_range 6 150) (int_bound 10000))
    (fun (n, seed) ->
      let emb = Gen.stacked_triangulation ~seed ~n () in
      let cfg = Config.of_embedded ~spanning:(Spanning.Random seed) emb in
      let r = Separator.find cfg in
      let s = Separator.shrink cfg r.Separator.separator in
      Check.balanced cfg s
      && List.length s <= List.length r.Separator.separator
      && s <> [])

let prop_separator_always_valid =
  QCheck.Test.make ~name:"separator valid on all families/trees/sizes" ~count:120
    QCheck.(
      triple (int_range 0 6) (pair (int_range 4 250) (int_bound 100000))
        (int_range 0 2))
    (fun (which, (n, seed), spi) ->
      let family = List.nth Gen.family_names which in
      let emb = Gen.by_family ~seed family ~n in
      let spanning =
        match spi with 0 -> Spanning.Bfs | 1 -> Spanning.Dfs | _ -> Spanning.Random seed
      in
      let cfg = Config.of_embedded ~spanning emb in
      let r = Separator.find cfg in
      (Check.check_separator cfg r.Separator.separator).Check.valid)

let prop_phase3_weight_in_range_never_fails =
  (* When phase 3 fires, the very first candidate works (Lemma 5): at most
     one candidate tried. *)
  QCheck.Test.make ~name:"phase-3 separators need one candidate" ~count:60
    QCheck.(pair (int_range 10 150) (int_bound 100000))
    (fun (n, seed) ->
      let emb = Gen.stacked_triangulation ~seed ~n () in
      let cfg = Config.of_embedded ~spanning:(Spanning.Random seed) emb in
      let r = Separator.find cfg in
      if r.Separator.phase = "3-face" then r.Separator.candidates_tried = 1 else true)

let suites =
  Repro_testkit.Suite.make __MODULE__
    [
        Alcotest.test_case "planar families" `Quick test_grid_families;
        Alcotest.test_case "tree inputs" `Quick test_tree_inputs;
        Alcotest.test_case "star uses tree phase" `Quick test_star_phase_is_tree;
        Alcotest.test_case "trivial sizes" `Quick test_trivial_small;
        Alcotest.test_case "output is a tree path" `Quick test_separator_is_tree_path;
        Alcotest.test_case "tgrid window complete" `Quick
          test_tgrid_window_complete;
        Alcotest.test_case "pinned closing edges" `Quick
          test_closing_edges_pinned;
        Alcotest.test_case "rounds charged" `Quick test_rounds_charged;
        Alcotest.test_case "partition interface" `Quick test_partition_version;
        Alcotest.test_case "singleton parts" `Quick test_singleton_parts;
        Alcotest.test_case "shrink balanced/smaller" `Quick
          test_shrink_balanced_and_smaller;
        Alcotest.test_case "shrink cycle to n/3" `Quick
          test_shrink_cycle_recovers_third;
        Alcotest.test_case "shrink singleton" `Quick test_shrink_singleton_stable;
        Alcotest.test_case "shrink with no balanced window" `Quick
          test_shrink_no_balanced_window;
        qtest prop_certified_closing_edges;
        qtest prop_shrink_preserves_balance;
        qtest prop_shrink_matches_reference;
        qtest prop_balanced_with_union_find;
        qtest prop_separator_always_valid;
        qtest prop_phase3_weight_in_range_never_fails;
    ]
