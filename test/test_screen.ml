(* The hostile-input screen: verdict round-trips on every hostile family,
   reason coverage for each rejection variant, witness minimality under
   the greedy shrinker, jobs=1 vs jobs=N bit-identity of screening
   ledgers/traces, typed rejections at every screened library entry, and
   the CLI exit-code contract (sep/dfs/bdd exit 3 with the replay spec). *)

open Repro_graph
open Repro_embedding
open Repro_congest
open Repro_core
open Repro_testkit
module Trace = Repro_trace.Trace

let build family ~n ~seed =
  Instance.build { Instance.family; n; seed; spanning = Repro_tree.Spanning.Bfs }

(* --- verdicts -------------------------------------------------------- *)

let test_clean_families_accepted () =
  List.iter
    (fun family ->
      let inst = build family ~n:40 ~seed:7 in
      Alcotest.(check bool)
        (family ^ " accepted")
        true
        (Screen.accepted (Screen.check inst.Instance.emb)))
    Instance.families

let test_hostile_families_rejected () =
  List.iter
    (fun family ->
      let inst = build family ~n:64 ~seed:2 in
      let emb = inst.Instance.emb in
      let v = Screen.check emb in
      Alcotest.(check bool) (family ^ " not accepted") false (Screen.accepted v);
      Alcotest.(check bool)
        (family ^ " verdict deterministic")
        true
        (Screen.check emb = v);
      Alcotest.(check bool)
        (family ^ " verdict prints")
        true
        (String.length (Screen.verdict_to_string v) > 0);
      (match v with
      | Screen.Flagged w ->
        Alcotest.(check bool)
          (family ^ " witness certifies")
          true (Screen.witness_certifies emb w)
      | _ -> ());
      (* The embedding's name is the replay spec: parsing it back yields
         the same hostile instance, bit-identically. *)
      let spec = inst.Instance.spec in
      Alcotest.(check bool)
        (family ^ " spec round-trips")
        true
        (Instance.of_string (Instance.to_string spec) = spec);
      let e2 = Instance.hostile_embedded spec in
      Alcotest.(check bool)
        (family ^ " hostile build deterministic")
        true
        (Graph.edges (Embedded.graph e2) = Graph.edges (Embedded.graph emb)))
    Instance.hostile_families

(* One test per rejection reason, on inputs engineered to hit it. *)
let test_reason_coverage () =
  (* Disconnected: two grids, no connecting edge. *)
  (match Screen.check (Instance.disconnected_union ~seed:1 ~n:32) with
  | Screen.Rejected (Screen.Disconnected { components; witness }) ->
    Alcotest.(check bool) "2+ components" true (components >= 2);
    Alcotest.(check bool) "witness in second grid" true (witness >= 0)
  | v -> Alcotest.failf "xunion: %s" (Screen.verdict_to_string v));
  (* Euler bound: K6 has m = 15 > 3n - 6 = 12 (rotation = plain adjacency
     order, a valid permutation, so only the edge count trips). *)
  let k6_edges = ref [] in
  for u = 0 to 5 do
    for v = u + 1 to 5 do
      k6_edges := (u, v) :: !k6_edges
    done
  done;
  let k6 = Graph.of_edges ~n:6 !k6_edges in
  let emb_k6 = Embedded.make ~name:"k6" k6 (Rotation.of_adjacency k6) in
  (match Screen.check emb_k6 with
  | Screen.Rejected (Screen.Euler_bound { n; m }) ->
    Alcotest.(check int) "n" 6 n;
    Alcotest.(check int) "m" 15 m
  | v -> Alcotest.failf "k6: %s" (Screen.verdict_to_string v));
  (* Rotation inconsistency: a rotation built for a different graph. *)
  let tri = Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  let path = Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let emb_bad = Embedded.make ~name:"bad-rot" tri (Rotation.of_adjacency path) in
  (match Screen.check emb_bad with
  | Screen.Rejected (Screen.Rotation_inconsistent { vertex }) ->
    Alcotest.(check bool) "vertex in range" true (vertex >= 0 && vertex < 3)
  | v -> Alcotest.failf "bad-rot: %s" (Screen.verdict_to_string v));
  (* Same degrees, wrong neighbours: the 4-cycle 0-1-2-3 with the rotation
     of the 4-cycle 0-2-1-3, whose row at 0 lists 2, not a neighbour. *)
  let c4 = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let c4' = Graph.of_edges ~n:4 [ (0, 2); (2, 1); (1, 3); (3, 0) ] in
  let emb_c4 = Embedded.make ~name:"c4-rot" c4 (Rotation.of_adjacency c4') in
  (match Screen.check emb_c4 with
  | Screen.Rejected (Screen.Rotation_inconsistent { vertex }) ->
    Alcotest.(check int) "first inconsistent vertex" 0 vertex
  | v -> Alcotest.failf "c4-rot: %s" (Screen.verdict_to_string v));
  (* Flagged: a planted chord is elected as a single-edge witness. *)
  match Screen.check (Instance.planar_plus_chords ~seed:3 ~n:49 ~k:1) with
  | Screen.Flagged w ->
    Alcotest.(check bool)
      "chord witness certifies" true
      (Screen.witness_certifies (Instance.planar_plus_chords ~seed:3 ~n:49 ~k:1) w)
  | v -> Alcotest.failf "xchords1: %s" (Screen.verdict_to_string v)

(* --- rotation closure against the search-based check ----------------- *)

(* The closure check as it was before the screen read [pos_of_rank]
   directly: every entry of the row is a neighbour (binary search), no rank
   repeats, and every entry's [Rotation.position] is its own slot.  Kept as
   the reference the screen's check must match, verdict and vertex. *)
let rotation_violation_by_search g rot =
  let n = Graph.n g in
  let seen = Array.make n (-1) in
  let bad = ref (-1) in
  (try
     for v = 0 to n - 1 do
       let deg = Graph.degree g v in
       if Rotation.degree rot v <> deg then begin
         bad := v;
         raise Exit
       end;
       for i = 0 to deg - 1 do
         let r = Graph.neighbor_rank g v (Rotation.nth rot v i) in
         if r < 0 || seen.(r) = v then begin
           bad := v;
           raise Exit
         end;
         seen.(r) <- v
       done;
       for i = 0 to deg - 1 do
         if Rotation.position rot v (Rotation.nth rot v i) <> i then begin
           bad := v;
           raise Exit
         end
       done
     done
   with Exit -> ());
  if !bad < 0 then None else Some !bad

(* [swaps] random degree-preserving swaps (a, b), (c, d) -> (a, d), (c, b)
   of four distinct vertices whose new edges are absent. *)
let swap_edges rng g ~swaps =
  let edges = Graph.edge_array g in
  let m = Array.length edges in
  let present = Hashtbl.create (2 * m) in
  let key a b = if a < b then (a, b) else (b, a) in
  Array.iter (fun (a, b) -> Hashtbl.replace present (a, b) ()) edges;
  let done_ = ref 0 and tries = ref 0 in
  while !done_ < swaps && !tries < 100 * swaps do
    incr tries;
    let i = Repro_util.Rng.int rng m and j = Repro_util.Rng.int rng m in
    let a, b = edges.(i) in
    let c, d =
      if Repro_util.Rng.bool rng then edges.(j)
      else
        let c, d = edges.(j) in
        (d, c)
    in
    if
      a <> c && a <> d && b <> c && b <> d
      && (not (Hashtbl.mem present (key a d)))
      && not (Hashtbl.mem present (key c b))
    then begin
      Hashtbl.remove present (key a b);
      Hashtbl.remove present (key c d);
      Hashtbl.replace present (key a d) ();
      Hashtbl.replace present (key c b) ();
      edges.(i) <- key a d;
      edges.(j) <- key c b;
      incr done_
    end
  done;
  Graph.of_edges ~n:(Graph.n g) (Array.to_list edges)

(* A consistent rotation of another graph with the same degrees, each row
   shuffled, screened against the original graph: the screen rejects it
   at exactly the vertex the search-based check names, or not for its
   closure at all. *)
let prop_closure_matches_search =
  QCheck.Test.make ~name:"closure check = search-based check" ~count:60
    QCheck.(pair (int_bound 100_000) (int_range 16 400))
    (fun (seed, n) ->
      let rng = Repro_util.Rng.create seed in
      let family = List.nth [ "grid"; "tgrid"; "stacked" ] (seed mod 3) in
      let g = Embedded.graph (Gen.by_family ~seed family ~n) in
      let g' = swap_edges rng g ~swaps:(1 + Repro_util.Rng.int rng 4) in
      let rot' =
        Rotation.of_orders g'
          (Array.init (Graph.n g') (fun v ->
               let row = Graph.neighbors g' v in
               Repro_util.Rng.shuffle_in_place rng row;
               row))
      in
      let emb = Embedded.make ~name:"swapped" g rot' in
      match (rotation_violation_by_search g rot', Screen.check emb) with
      | Some v, Screen.Rejected (Screen.Rotation_inconsistent { vertex }) ->
        vertex = v
      | None, Screen.Rejected (Screen.Rotation_inconsistent _) -> false
      | None, _ -> true
      | Some _, _ -> false)

(* --- witness minimality under the greedy shrinker -------------------- *)

let hostile_prop =
  {
    Oracle.name = "screen-hostile";
    guards = "test-only: fails whenever the screen accepts nothing";
    run =
      (fun inst ->
        let v = Screen.check inst.Instance.emb in
        {
          Oracle.oracle = "screen-hostile";
          ok = Screen.accepted v;
          detail = Screen.verdict_to_string v;
          rounds = 0;
          budget = max_int;
          checks = 1;
        });
  }

let test_witness_minimal_under_shrink () =
  let spec =
    { Instance.family = "xchords4"; n = 64; seed = 9;
      spanning = Repro_tree.Spanning.Random 3 }
  in
  let shrunk, steps = Runner.shrink ~oracles:[ hostile_prop ] spec in
  Alcotest.(check bool) "shrink made progress" true (steps > 0);
  Alcotest.(check string) "family preserved" "xchords4" shrunk.Instance.family;
  (* Every hostile build fails the property, so the greedy descent must
     reach the family's size floor and the simplest spanning kind. *)
  Alcotest.(check int) "shrunk to the size floor"
    (Instance.min_size "xchords4") shrunk.Instance.n;
  Alcotest.(check bool) "spanning simplified" true
    (shrunk.Instance.spanning = Repro_tree.Spanning.Bfs);
  (* The minimal counterexample still carries a certified witness. *)
  let inst = Instance.build shrunk in
  (match Screen.check inst.Instance.emb with
  | Screen.Flagged w ->
    Alcotest.(check bool) "minimal witness certifies" true
      (Screen.witness_certifies inst.Instance.emb w)
  | Screen.Rejected _ -> ()
  | Screen.Accepted -> Alcotest.fail "shrunk spec no longer hostile")

(* --- screened entries raise typed rejections -------------------------- *)

let test_entries_reject_before_phases () =
  let inst = build "xchords1" ~n:32 ~seed:5 in
  let emb = inst.Instance.emb in
  let expect_entry name f =
    match f () with
    | _ -> Alcotest.failf "%s: hostile input accepted" name
    | exception Screen.Rejected_input { entry; verdict; spec } ->
      Alcotest.(check string) (name ^ " entry") name entry;
      Alcotest.(check bool) (name ^ " verdict hostile") false
        (Screen.accepted verdict);
      Alcotest.(check string) (name ^ " replay spec") "xchords1:32:5" spec
  in
  expect_entry "Dfs.run" (fun () -> Dfs.run emb ~root:0);
  expect_entry "Decomposition.build" (fun () -> Decomposition.build emb);
  expect_entry "Decomposition.bounded_diameter" (fun () ->
      Decomposition.bounded_diameter ~diameter_target:8 emb);
  expect_entry "Separator.find_partition" (fun () ->
      Separator.find_partition emb
        ~parts:[ List.init (Embedded.n emb) Fun.id ])

(* Proposition 1 is billed by the screen's planarity tier alone, so every
   screened entry charges it exactly once on a clean instance. *)
let test_entries_charge_embedding_once () =
  let emb = Gen.by_family ~seed:2 "tgrid" ~n:150 in
  let g = Embedded.graph emb in
  let embedding_charges f =
    let rounds = Rounds.create ~n:(Graph.n g) ~d:(Algo.diameter g) () in
    ignore (f rounds);
    Rounds.label_invocations rounds Embedding
  in
  List.iter
    (fun (entry, f) ->
      Alcotest.(check int) (entry ^ " charges embedding[Prop1]") 1
        (embedding_charges f))
    [
      ("Dfs.run", fun rounds -> ignore (Dfs.run ~rounds emb ~root:0));
      ("Decomposition.build", fun rounds ->
          ignore (Decomposition.build ~rounds emb));
      ("Decomposition.bounded_diameter", fun rounds ->
          ignore
            (Decomposition.bounded_diameter ~rounds ~diameter_target:6 emb));
      ("Separator.find_partition", fun rounds ->
          ignore
            (Separator.find_partition ~rounds emb
               ~parts:[ List.init (Graph.n g) Fun.id ]));
    ]

(* --- jobs=1 vs jobs=N bit-identity of screening ledgers/traces -------- *)

let screened_dfs ~jobs =
  let emb = Gen.by_family ~seed:1 "grid" ~n:220 in
  let g = Embedded.graph emb in
  let tracer = Trace.create () in
  let rounds =
    Rounds.create ~trace:tracer ~n:(Graph.n g) ~d:(Algo.diameter g) ()
  in
  let r =
    Repro_util.Pool.with_pool ~seq_grain:0 ~jobs (fun pool ->
        Dfs.run ~rounds ~pool emb ~root:(Embedded.outer emb))
  in
  (tracer, rounds, r)

let test_jobs_bit_identity () =
  let t1, l1, r1 = screened_dfs ~jobs:1 in
  let t4, l4, r4 = screened_dfs ~jobs:4 in
  Alcotest.(check (array int)) "outputs identical" r1.Dfs.parent r4.Dfs.parent;
  Alcotest.(check bool) "charged totals identical" true
    (Rounds.total l1 = Rounds.total l4);
  Alcotest.(check int) "structure charges identical"
    (Rounds.label_invocations l1 Screen_structure)
    (Rounds.label_invocations l4 Screen_structure);
  Alcotest.(check bool) "screening charged" true
    (Rounds.label_invocations l1 Screen_structure >= 1);
  let m1 = Trace.to_metrics_string t1 and m4 = Trace.to_metrics_string t4 in
  Alcotest.(check string) "metrics (incl. screen spans) bit-identical" m1 m4;
  (* The screen spans are present and attributed. *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "screen.structure span present" true
    (contains m1 "screen.structure");
  Alcotest.(check bool) "screen.planarity span present" true
    (contains m1 "screen.planarity")

(* --- CLI exit codes ---------------------------------------------------- *)

(* The executables are built next to this test binary (the dune test
   stanza depends on them), so their paths do not depend on the working
   directory.  Exit 3 is the screen-rejection code. *)
let exe dir name =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ ".."; dir; name ]

let repro_exe = exe "bin" "main.exe"
let fuzz_exe = exe "bin" "fuzz.exe"
let bench_exe = exe "bench" "main.exe"

let cli cmdline =
  Sys.command
    (Printf.sprintf "%s %s >/dev/null 2>&1" (Filename.quote repro_exe) cmdline)

(* Exit code and the non-empty stdout and stderr line counts of one run,
   in the working directory [cwd] when given. *)
let run_lines ?cwd exe cmdline =
  let out = Filename.temp_file "repro-cli" ".out" in
  let err = Filename.temp_file "repro-cli" ".err" in
  let cd = match cwd with Some d -> "cd " ^ Filename.quote d ^ " && " | None -> "" in
  let code =
    Sys.command
      (Printf.sprintf "%s%s %s >%s 2>%s" cd (Filename.quote exe) cmdline
         (Filename.quote out) (Filename.quote err))
  in
  let lines path =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
    |> List.length
  in
  let counts = (code, lines out, lines err) in
  List.iter Sys.remove [ out; err ];
  counts

let edge_file contents =
  let path = Filename.temp_file "repro-edges" ".txt" in
  Out_channel.with_open_text path (fun oc -> output_string oc contents);
  path

let test_cli_exit_codes () =
  if not (Sys.file_exists repro_exe) then
    Alcotest.failf "CLI binary %s not found" repro_exe
  else begin
    Alcotest.(check int) "sep rejects hostile input with exit 3" 3
      (cli "sep --family xrot -n 64 --seed 2");
    Alcotest.(check int) "dfs rejects hostile input with exit 3" 3
      (cli "dfs --family xunion -n 64 --seed 2 --jobs 1");
    Alcotest.(check int) "bdd rejects hostile input with exit 3" 3
      (cli "bdd --family xchords1 -n 64 --seed 2 --by-size --jobs 1");
    Alcotest.(check int) "sep accepts clean input" 0
      (cli "sep --family grid -n 64 --seed 2");
    (* Bad arguments: exit 2 with one stderr line, before any output. *)
    let token = edge_file "0 1\n1 x\n" in
    let loop = edge_file "0 1\n2 2\n" in
    let negative = edge_file "0 1\n-1 2\n" in
    let disconnected = edge_file "0 1\n2 3\n" in
    let missing = Filename.concat (Filename.get_temp_dir_name ()) "repro-no-such-file" in
    List.iter
      (fun cmdline ->
        Alcotest.(check (triple int int int))
          (cmdline ^ ": exit 2, one stderr line, no stdout")
          (2, 0, 1) (run_lines repro_exe cmdline))
      [
        "sep --backend nope --family grid -n 64";
        "sep --family nosuch";
        "bdd --family nosuch --jobs 1";
        "sep --tree bogus -n 64";
        "dfs --root 9999 -n 64 --jobs 1";
        "bdd --target 0 -n 64 --jobs 1";
        "sep --edges " ^ Filename.quote missing;
        "sep --edges " ^ Filename.quote token;
        "dfs --edges " ^ Filename.quote loop ^ " --jobs 1";
        "bdd --edges " ^ Filename.quote negative ^ " --jobs 1";
        "sep -n abc";
        "dfs --jobs x";
        "bdd --bogus";
      ];
    Alcotest.(check int) "a disconnected edge list is a screen rejection" 3
      (cli ("sep --edges " ^ Filename.quote disconnected));
    List.iter Sys.remove [ token; loop; negative; disconnected ];
    (* The bench harness writes a BENCH document only under --out, and a
       bad argument stops it before any experiment runs. *)
    let dir = Filename.temp_dir "repro-bench" "" in
    List.iter
      (fun cmdline ->
        Alcotest.(check (triple int int int))
          ("bench " ^ cmdline ^ ": exit 2, one stderr line, no stdout")
          (2, 0, 1)
          (run_lines ~cwd:dir bench_exe cmdline);
        Alcotest.(check (array string))
          ("bench " ^ cmdline ^ ": no file written")
          [||] (Sys.readdir dir))
      [ "--sort"; "e99" ];
    Sys.rmdir dir
  end

(* The fuzz runner keeps the same contract. *)
let test_fuzz_bad_arguments () =
  if not (Sys.file_exists fuzz_exe) then
    Alcotest.failf "fuzz binary %s not found" fuzz_exe
  else
    List.iter
      (fun cmdline ->
        Alcotest.(check (triple int int int))
          ("fuzz " ^ cmdline ^ ": exit 2, one stderr line, no stdout")
          (2, 0, 1) (run_lines fuzz_exe cmdline))
      [ "--bogus"; "--backend nope" ]

let suites =
  Suite.make __MODULE__
    [
      Alcotest.test_case "clean families accepted" `Quick
        test_clean_families_accepted;
      Alcotest.test_case "hostile families rejected with replayable verdicts"
        `Quick test_hostile_families_rejected;
      Alcotest.test_case "each rejection reason reachable" `Quick
        test_reason_coverage;
      Alcotest.test_case "witness minimality under the greedy shrinker" `Quick
        test_witness_minimal_under_shrink;
      Alcotest.test_case "screened entries raise typed rejections" `Quick
        test_entries_reject_before_phases;
      Alcotest.test_case "jobs=1 and jobs=4 screening ledgers/traces identical"
        `Quick test_jobs_bit_identity;
      Alcotest.test_case "CLI exit codes (sep/dfs/bdd reject with 3)" `Quick
        test_cli_exit_codes;
      Alcotest.test_case "fuzz bad arguments exit 2 with one line" `Quick
        test_fuzz_bad_arguments;
      Alcotest.test_case "each screened entry charges Proposition 1 once"
        `Quick test_entries_charge_embedding_once;
      QCheck_alcotest.to_alcotest prop_closure_matches_search;
    ]
