(* Benchmark harness: regenerates every experiment table (E1..E19) and figure
   series (F1..F3) listed in DESIGN.md / EXPERIMENTS.md, plus bechamel
   micro-benchmarks of the core routines.

   Every table prints the paper-expected shape next to the measured values;
   absolute round numbers come from the charged cost model (Rounds), while
   the message-level experiments (E5 Awerbuch, E7 part-wise aggregation)
   report genuinely executed rounds. *)

open Repro_util
open Repro_graph
open Repro_embedding
open Repro_tree
open Repro_congest
open Repro_core
open Repro_baseline

let pf = Printf.printf

let section title = pf "\n######## %s ########\n" title

(* ------------------------------------------------------------------ *)
(* Machine-readable recording: every table printed by an experiment is  *)
(* also captured, and [--out PATH] writes the whole run to PATH.        *)
(* ------------------------------------------------------------------ *)

(* Peak resident set size of this process, from the kernel's high-water
   mark (VmHWM in /proc/self/status, kB).  0 where /proc is unavailable.
   [reset_peak_rss] rearms the mark (write "5" to /proc/self/clear_refs),
   so each experiment reports its own peak rather than the run's maximum;
   where the reset is unsupported the values degrade to a monotone
   high-water mark, still an upper bound per experiment. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line -> (
        match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
        | Some kb -> kb
        | None -> scan ())
    in
    let kb = scan () in
    close_in_noerr ic;
    kb

let reset_peak_rss () =
  match open_out "/proc/self/clear_refs" with
  | exception Sys_error _ -> ()
  | oc ->
    (try output_string oc "5" with Sys_error _ -> ());
    close_out_noerr oc

let current_exp = ref "-"
let recorded : (string * Table.t) list ref = ref []

let output t =
  Table.print t;
  recorded := (!current_exp, t) :: !recorded

(* Machine-readable metrics documents (usually [Trace.to_metrics]) attached
   to the current experiment; the CI bench-diff gate compares these exactly
   against the committed baseline, unlike wall-clock which gets a
   tolerance. *)
let metrics_recorded : (string * (string * Repro_trace.Json.t)) list ref =
  ref []

let record_metrics key j =
  metrics_recorded := (!current_exp, (key, j)) :: !metrics_recorded

let write_json ~path ~jobs ~timings =
  let open Repro_trace.Json in
  let strings xs = List (List.map (fun x -> String x) xs) in
  let table_json t =
    Obj
      [
        ("title", String (Table.title t));
        ("headers", strings (Table.headers t));
        ("rows", List (List.map strings (Table.rows t)));
      ]
  in
  let of_exp name recorded =
    List.rev recorded |> List.filter (fun (e, _) -> e = name) |> List.map snd
  in
  let exp_json (name, wall, rss_kb) =
    Obj
      [
        ("name", String name);
        ("wall_seconds", Float (Float.round (wall *. 1000.0) /. 1000.0));
        ("peak_rss_kb", Int rss_kb);
        ("metrics", Obj (of_exp name !metrics_recorded));
        ("tables", List (List.map table_json (of_exp name !recorded)));
      ]
  in
  let oc = open_out path in
  output_string oc
    (to_string
       (Obj [ ("jobs", Int jobs); ("experiments", List (List.map exp_json timings)) ]));
  output_char oc '\n';
  close_out oc;
  pf "\nwrote %s\n" path

(* ------------------------------------------------------------------ *)
(* E1: separator validity and balance across all families.             *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1  Separator validity & balance (Thm 1, Lemmas 1/5)";
  pf "expected: 100%% valid, every component ratio <= 2/3\n";
  let t =
    Table.create ~title:"E1"
      [ "family"; "n"; "runs"; "valid"; "max comp ratio"; "mean |S|"; "phases used" ]
  in
  Table.set_align t 0 Table.Left;
  Table.set_align t 6 Table.Left;
  List.iter
    (fun family ->
      List.iter
        (fun n ->
          let runs = ref 0 and valid = ref 0 in
          let worst_ratio = ref 0.0 and sizes = ref [] in
          let phases = Hashtbl.create 8 in
          List.iter
            (fun seed ->
              List.iter
                (fun spanning ->
                  let emb = Gen.by_family ~seed family ~n in
                  let cfg = Config.of_embedded ~spanning emb in
                  let r = Separator.find cfg in
                  let v = Check.check_separator cfg r.Separator.separator in
                  incr runs;
                  if v.Check.valid then incr valid;
                  worst_ratio :=
                    max !worst_ratio
                      (float_of_int v.Check.max_component
                      /. float_of_int (Config.n cfg));
                  sizes := float_of_int v.Check.size :: !sizes;
                  Hashtbl.replace phases r.Separator.phase ())
                [ Spanning.Bfs; Spanning.Dfs; Spanning.Random seed ])
            [ 1; 2; 3 ];
          let phase_names =
            Hashtbl.fold (fun k () acc -> k :: acc) phases [] |> List.sort compare
          in
          Table.add_row t
            [
              family;
              Table.fmt_int n;
              Table.fmt_int !runs;
              Printf.sprintf "%d/%d" !valid !runs;
              Table.fmt_float ~digits:3 !worst_ratio;
              Table.fmt_float ~digits:1 (Stats.mean (Array.of_list !sizes));
              String.concat "," phase_names;
            ])
        [ 120; 480; 1920 ])
    Gen.family_names;
  output t

(* ------------------------------------------------------------------ *)
(* E2/F1: separator rounds scale with D, not n.                        *)
(* ------------------------------------------------------------------ *)

let diameter_suite =
  (* Same order of magnitude n, very different diameters. *)
  [
    ("stacked", fun n seed -> Gen.stacked_triangulation ~seed ~n ());
    ( "tgrid",
      fun n seed ->
        let s = int_of_float (sqrt (float_of_int n)) in
        Gen.grid_diag ~seed ~rows:s ~cols:s () );
    ( "grid",
      fun n _ ->
        let s = int_of_float (sqrt (float_of_int n)) in
        Gen.grid ~rows:s ~cols:s );
    ("cycle", fun n _ -> Gen.cycle n);
  ]

(* The suite at n = 4,096 with each instance's D, built once per process:
   E2, F1 and E5 all read it, and D of the cycle takes one BFS per
   vertex. *)
let diameter_suite_4096 =
  lazy
    (List.map
       (fun (name, gen) ->
         let emb = gen 4096 1 in
         (name, emb, Algo.diameter (Embedded.graph emb)))
       diameter_suite)

let e2 () =
  section "E2  Separator rounds scale with D, not n (Thm 1)";
  pf "expected: rounds/(D*log^2 n) flat across families; cycle pays its D\n";
  let t =
    Table.create ~title:"E2 (n ~ 4096)"
      [
        "family"; "n"; "D"; "rounds"; "subroutine calls"; "rounds/(D log^2 n)";
        "rounds/n";
      ]
  in
  Table.set_align t 0 Table.Left;
  List.iter
    (fun (name, emb, d) ->
      let g = Embedded.graph emb in
      let n = Graph.n g in
      let rounds = Rounds.create ~n ~d () in
      let cfg = Config.of_embedded emb in
      let _ = Separator.find ~rounds cfg in
      let total = Rounds.total rounds in
      let lg = Rounds.log2n rounds in
      Table.add_row t
        [
          name;
          Table.fmt_int n;
          Table.fmt_int d;
          Table.fmt_float ~digits:0 total;
          Table.fmt_int (Rounds.invocations rounds);
          Table.fmt_float ~digits:2 (total /. (float_of_int d *. lg *. lg));
          Table.fmt_float ~digits:1 (total /. float_of_int n);
        ])
    (Lazy.force diameter_suite_4096);
  output t;
  pf "(the per-family constant is the number of subroutine invocations —\n";
  pf " a constant per phase; the D*log^2 n factor is the PA unit cost)\n"

let f1 () =
  section "F1  (figure) separator rounds vs D at fixed n";
  pf "expected: rounds grow ~linearly in D (slope ~1 in log-log)\n";
  let t = Table.create ~title:"F1 (n ~ 4096)" [ "D"; "rounds"; "family" ] in
  Table.set_align t 2 Table.Left;
  let points = ref [] in
  List.iter
    (fun (name, emb, d) ->
      let rounds = Rounds.create ~n:(Embedded.n emb) ~d () in
      let _ = Separator.find ~rounds (Config.of_embedded emb) in
      points := (d, Rounds.total rounds, name) :: !points)
    (Lazy.force diameter_suite_4096);
  List.iter
    (fun (d, r, name) ->
      Table.add_row t [ Table.fmt_int d; Table.fmt_float ~digits:0 r; name ])
    (List.sort compare !points);
  output t;
  let xs = Array.of_list (List.map (fun (d, _, _) -> float_of_int d) !points) in
  let ys = Array.of_list (List.map (fun (_, r, _) -> r) !points) in
  pf "log-log slope rounds~D: %.2f (expected ~1.0)\n" (Stats.loglog_slope ~x:xs ~y:ys)

(* ------------------------------------------------------------------ *)
(* E3: DFS phases and rounds.                                          *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "E3  DFS: O(log n) phases, rounds ~ D*polylog (Thm 2)";
  pf "expected: phases <~ log_1.5 n; rounds/(D log^3 n) flat-ish\n";
  let t =
    Table.create ~title:"E3"
      [
        "family"; "n"; "D"; "phases"; "log1.5 n"; "max join iters"; "rounds";
        "rounds/(D log^3 n)";
      ]
  in
  Table.set_align t 0 Table.Left;
  List.iter
    (fun (name, gen) ->
      List.iter
        (fun n ->
          let emb = gen n 1 in
          let g = Embedded.graph emb in
          let nn = Graph.n g in
          let d = Algo.diameter g in
          let rounds = Rounds.create ~n:nn ~d () in
          let r = Dfs.run ~rounds emb ~root:(Embedded.outer emb) in
          assert (Dfs.verify emb ~root:(Embedded.outer emb) r);
          let total = Rounds.total rounds in
          let lg = Rounds.log2n rounds in
          Table.add_row t
            [
              name;
              Table.fmt_int nn;
              Table.fmt_int d;
              Table.fmt_int r.Dfs.phases;
              Table.fmt_float ~digits:1 (log (float_of_int nn) /. log 1.5);
              Table.fmt_int r.Dfs.max_join_iterations;
              Table.fmt_float ~digits:0 total;
              Table.fmt_float ~digits:2 (total /. (float_of_int d *. (lg ** 3.0)));
            ])
        [ 256; 1024; 4096 ])
    [ List.nth diameter_suite 0; List.nth diameter_suite 1 ];
  output t

(* ------------------------------------------------------------------ *)
(* E4: deterministic vs randomized separator.                          *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4  Deterministic matches randomized (abstract / Sec 1.2)";
  pf "expected: same Õ(D) schedule; randomized fails at low samples, det never\n";
  let t =
    Table.create ~title:"E4 (stacked n=400, 30 seeds per row)"
      [ "algorithm"; "samples"; "failures"; "fallbacks"; "rounds (charged)" ]
  in
  Table.set_align t 0 Table.Left;
  let emb = Gen.stacked_triangulation ~seed:5 ~n:400 () in
  let g = Embedded.graph emb in
  let d = Algo.diameter g in
  let cfg = Config.of_embedded emb in
  let det_rounds = Rounds.create ~n:400 ~d () in
  let det = Separator.find ~rounds:det_rounds cfg in
  let det_ok = Check.balanced cfg det.Separator.separator in
  Table.add_row t
    [
      "deterministic";
      "-";
      (if det_ok then "0/30" else "30/30");
      "0";
      Table.fmt_float ~digits:0 (Rounds.total det_rounds);
    ];
  List.iter
    (fun samples ->
      let fails = ref 0 and fellback = ref 0 in
      let rr = Rounds.create ~n:400 ~d () in
      for seed = 1 to 30 do
        let local = Rounds.like rr in
        let o = Random_sep.find ~rounds:local ~seed ~samples cfg in
        if seed = 1 then Rounds.absorb rr local;
        if not o.Random_sep.balanced then incr fails;
        if o.Random_sep.fell_back then incr fellback
      done;
      Table.add_row t
        [
          "randomized";
          Table.fmt_int samples;
          Printf.sprintf "%d/30" !fails;
          Table.fmt_int !fellback;
          Table.fmt_float ~digits:0 (Rounds.total rr);
        ])
    [ 2; 8; 32; 128; 512; 2048 ];
  output t

(* ------------------------------------------------------------------ *)
(* E5: ours (charged Õ(D)) vs Awerbuch (measured Θ(n)).                *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5  DFS rounds: this paper vs Awerbuch's O(n) baseline";
  pf "expected shape: Awerbuch grows ~linearly in n (slope ~1);\n";
  pf "ours grows like D*polylog (sub-linear slope on low-diameter families),\n";
  pf "so Awerbuch wins small n and loses past a crossover; on cycles (D ~ n)\n";
  pf "Awerbuch keeps winning — exactly the paper's positioning.\n";
  let t =
    Table.create ~title:"E5"
      [
        "family"; "n"; "D"; "awerbuch (measured)"; "ours (log^2 model)";
        "ours (log^1 model)";
      ]
  in
  Table.set_align t 0 Table.Left;
  let slopes = ref [] in
  List.iter
    (fun (name, gen) ->
      let xs = ref [] and ya = ref [] and yo = ref [] in
      List.iter
        (fun n ->
          let emb, d =
            if n = 4096 then
              let _, emb, d =
                List.find
                  (fun (m, _, _) -> m = name)
                  (Lazy.force diameter_suite_4096)
              in
              (emb, d)
            else
              let emb = gen n 1 in
              (emb, Algo.diameter (Embedded.graph emb))
          in
          let g = Embedded.graph emb in
          let nn = Graph.n g in
          let root = Embedded.outer emb in
          let aw = Awerbuch.run g ~root in
          assert (Algo.is_dfs_tree g ~root ~parent:aw.Awerbuch.parent);
          let measure params =
            let rounds = Rounds.create ~params ~n:nn ~d () in
            let r = Dfs.run ~rounds emb ~root in
            assert (Dfs.verify emb ~root r);
            Rounds.total rounds
          in
          let ours2 = measure Rounds.default_params in
          let ours1 = measure Rounds.{ c_pa = 1.0; log_exponent = 1 } in
          xs := float_of_int nn :: !xs;
          ya := float_of_int aw.Awerbuch.rounds :: !ya;
          yo := ours2 :: !yo;
          Table.add_row t
            [
              name;
              Table.fmt_int nn;
              Table.fmt_int d;
              Table.fmt_int aw.Awerbuch.rounds;
              Table.fmt_float ~digits:0 ours2;
              Table.fmt_float ~digits:0 ours1;
            ])
        [ 64; 256; 1024; 4096 ];
      let x = Array.of_list !xs in
      let sa = Stats.loglog_slope ~x ~y:(Array.of_list !ya) in
      let so = Stats.loglog_slope ~x ~y:(Array.of_list !yo) in
      let last_ratio = List.hd !yo /. List.hd !ya in
      slopes := (name, sa, so, last_ratio) :: !slopes)
    [ List.nth diameter_suite 0; List.nth diameter_suite 3 ];
  output t;
  List.iter
    (fun (name, sa, so, last_ratio) ->
      pf "%s: awerbuch slope(n)=%.2f  ours slope(n)=%.2f\n" name sa so;
      if name = "cycle" then
        pf "  -> D ~ n: Awerbuch wins at every size, as the paper predicts\n"
      else if so < sa -. 0.05 then begin
        let crossover = 4096.0 *. (last_ratio ** (1.0 /. (sa -. so))) in
        pf "  -> ours scales better; extrapolated crossover n ~ %.1e\n" crossover
      end
      else
        pf
          "  -> low-diameter family, but at simulator sizes the log^2-model \
           polylog\n     factors still dominate the 4n constant (ours/awerbuch \
           = %.0fx at n=4096);\n     the D-scaling that flips this \
           asymptotically is measured directly in E2/F1\n"
          last_ratio)
    (List.rev !slopes)

(* ------------------------------------------------------------------ *)
(* E6: the deterministic weight formula is exact.                      *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6  Weight formula exactness (Definition 2 = Lemmas 3/4)";
  pf "expected: 0 mismatches everywhere\n";
  let t =
    Table.create ~title:"E6" [ "family"; "tree"; "edges checked"; "mismatches" ]
  in
  Table.set_align t 0 Table.Left;
  Table.set_align t 1 Table.Left;
  List.iter
    (fun family ->
      List.iter
        (fun spanning ->
          let checked = ref 0 and bad = ref 0 in
          List.iter
            (fun seed ->
              let emb = Gen.by_family ~seed family ~n:300 in
              let cfg = Config.of_embedded ~spanning emb in
              List.iter
                (fun (u, v) ->
                  incr checked;
                  if Weights.weight cfg ~u ~v <> Weights.count_reference cfg ~u ~v
                  then incr bad)
                (Config.fundamental_edges cfg))
            [ 1; 2; 3; 4 ];
          Table.add_row t
            [
              family;
              Spanning.kind_name spanning;
              Table.fmt_int !checked;
              Table.fmt_int !bad;
            ])
        [ Spanning.Bfs; Spanning.Dfs; Spanning.Random 17 ])
    [ "tgrid"; "stacked"; "thinned" ];
  output t

(* ------------------------------------------------------------------ *)
(* E7: executed part-wise aggregation rounds.                          *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7  Part-wise aggregation, message-level (O(depth + k) executed)";
  pf "expected: measured rounds <= c*(depth + k), bandwidth never exceeded\n";
  let t =
    Table.create ~title:"E7 (grid 32x32, BFS-band parts)"
      [ "k parts"; "depth"; "rounds"; "rounds/(depth+k)"; "max bits/edge"; "messages" ]
  in
  let emb = Gen.grid ~rows:32 ~cols:32 in
  let g = Embedded.graph emb in
  let (parent, dist), _ = Prim.bfs_tree g ~root:0 in
  let depth = Array.fold_left max 0 dist in
  List.iter
    (fun k ->
      let parts = Array.map (fun d -> d * k / (depth + 1)) dist in
      let values = Array.init (Graph.n g) (fun v -> v) in
      let answers, stats = Prim.partwise g ~parent ~op:Prim.Sum ~parts ~values in
      let expected = Hashtbl.create 16 in
      Array.iteri
        (fun v p ->
          Hashtbl.replace expected p
            (values.(v) + Option.value ~default:0 (Hashtbl.find_opt expected p)))
        parts;
      Array.iteri (fun v a -> assert (a = Hashtbl.find expected parts.(v))) answers;
      Table.add_row t
        [
          Table.fmt_int k;
          Table.fmt_int depth;
          Table.fmt_int stats.Engine.rounds;
          Table.fmt_float ~digits:2
            (float_of_int stats.Engine.rounds /. float_of_int (depth + k));
          Table.fmt_int stats.Engine.max_edge_bits;
          Table.fmt_int stats.Engine.messages;
        ])
    [ 1; 4; 16; 64; 256 ];
  output t

(* ------------------------------------------------------------------ *)
(* E8: augmentation vs full triangulation (ablation).                  *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8  Ablation: augmentation avoids triangulating faces";
  pf "expected: candidate virtual edges ~ #interior leaves (augmentation)\n";
  pf "          vs Theta(|face|^2) pairs a triangulation may add\n";
  let t =
    Table.create ~title:"E8"
      [ "instance"; "n"; "face size"; "aug candidates"; "triangulation pairs"; "saving" ]
  in
  Table.set_align t 0 Table.Left;
  List.iter
    (fun (name, emb, spanning) ->
      let cfg = Config.of_embedded ~spanning emb in
      let n = Config.n cfg in
      let weights = Weights.to_list (Weights.all_weights cfg) in
      if weights <> [] then begin
        let (u, v), _ =
          List.fold_left
            (fun acc (e, w) ->
              match acc with (_, w') when w > w' -> (e, w) | _ -> acc)
            (List.hd weights) (List.tl weights)
        in
        let interior = Faces.interior_reference cfg ~u ~v in
        let tree = Config.tree cfg in
        let face_size = List.length interior + List.length (Faces.border cfg ~u ~v) in
        let leaves = List.length (List.filter (Rooted.is_leaf tree) interior) in
        let tri_pairs = face_size * (face_size - 1) / 2 in
        Table.add_row t
          [
            name;
            Table.fmt_int n;
            Table.fmt_int face_size;
            Table.fmt_int (max 1 leaves);
            Table.fmt_int tri_pairs;
            Printf.sprintf "%.0fx"
              (float_of_int tri_pairs /. float_of_int (max 1 leaves));
          ]
      end)
    [
      ("wheel-400", Gen.wheel 400, Spanning.Bfs);
      ("fan-400", Gen.fan 400, Spanning.Bfs);
      ("cycle-400", Gen.cycle 400, Spanning.Bfs);
      ("stacked-400", Gen.stacked_triangulation ~seed:3 ~n:400 (), Spanning.Dfs);
      ("tgrid-20x20", Gen.grid_diag ~seed:3 ~rows:20 ~cols:20 (), Spanning.Random 3);
    ];
  output t

(* ------------------------------------------------------------------ *)
(* E9: JOIN halves the remaining separator.                            *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9  JOIN iterations are logarithmic (Lemma 2)";
  pf "expected: iterations <= log2|S| + O(1) in every join\n";
  let t =
    Table.create ~title:"E9"
      [ "family"; "n"; "joins"; "max |S|"; "max iters"; "worst iters - log2|S|" ]
  in
  Table.set_align t 0 Table.Left;
  List.iter
    (fun (name, gen) ->
      List.iter
        (fun n ->
          let emb = gen n 1 in
          let g = Embedded.graph emb in
          let root = Embedded.outer emb in
          let st = Join.create g ~root in
          let all = Array.init (Graph.n g) Fun.id in
          let joins = ref 0 and max_s = ref 0 and max_it = ref 0 in
          let worst_gap = ref neg_infinity in
          let continue_ = ref true in
          while !continue_ do
            let comps = Join.unvisited_components st all in
            if comps = [] then continue_ := false
            else
              List.iter
                (fun members ->
                  let part_root =
                    match Join.component_anchor st members with
                    | Some (v, _) -> v
                    | None -> members.(0)
                  in
                  let cfg = Config.of_part ~members ~root:part_root emb in
                  let r = Separator.find cfg in
                  let sep = List.map (Config.to_global cfg) r.Separator.separator in
                  let s = List.length sep in
                  let iters = Join.join st ~members ~separator:sep in
                  incr joins;
                  max_s := max !max_s s;
                  max_it := max !max_it iters;
                  worst_gap :=
                    max !worst_gap
                      (float_of_int iters
                      -. (log (float_of_int (max 2 s)) /. log 2.0)))
                comps
          done;
          assert (Algo.is_dfs_tree g ~root ~parent:st.Join.parent);
          Table.add_row t
            [
              name;
              Table.fmt_int (Graph.n g);
              Table.fmt_int !joins;
              Table.fmt_int !max_s;
              Table.fmt_int !max_it;
              Table.fmt_float ~digits:1 !worst_gap;
            ])
        [ 256; 1024 ])
    [ List.nth diameter_suite 0; List.nth diameter_suite 1; List.nth diameter_suite 3 ];
  output t

(* ------------------------------------------------------------------ *)
(* E10: the executed Phase 1-3 pipeline (Lemmas 11, 12, 5 end to end).  *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10  Executed message-level pipeline (Lemmas 11/12 + Phase 3)";
  pf "expected: O(log depth) merge phases; weights exact; separator valid;\n";
  pf "          all within the Theta(log n) per-edge bandwidth\n";
  let t =
    Table.create ~title:"E10 (stacked triangulations, BFS trees)"
      [
        "n"; "tree depth"; "merge phases"; "rounds"; "messages"; "max bits";
        "bits budget"; "|S|"; "valid";
      ]
  in
  List.iter
    (fun n ->
      let emb = Gen.stacked_triangulation ~seed:2 ~n () in
      let g = Embedded.graph emb in
      let root = Embedded.outer emb in
      let parent = Repro_tree.Spanning.bfs g ~root in
      let tree = Repro_tree.Rooted.build ~rot:(Embedded.rot emb) ~root parent in
      let nn = Graph.n g in
      let rot_orders = Array.init nn (Rotation.order (Embedded.rot emb)) in
      let depth = Array.init nn (Repro_tree.Rooted.depth tree) in
      let tree_depth = Array.fold_left max 0 depth in
      (* Merge-phase count from a direct dfs_orders run. *)
      let children = Array.init nn (Repro_tree.Rooted.children tree) in
      let _, phases, _ = Composed.dfs_orders g ~children ~parent ~depth ~root in
      match Composed.separator_phase3 g ~rot_orders ~parent ~depth ~root with
      | None, _ ->
        Table.add_row t
          [
            Table.fmt_int nn; Table.fmt_int tree_depth; Table.fmt_int phases;
            "-"; "-"; "-"; "-"; "-"; "no in-range face";
          ]
      | Some (_, marked), stats ->
        let sep = ref [] in
        Array.iteri (fun x m -> if m then sep := x :: !sep) marked;
        let cfg =
          Config.of_parts ~graph:g ~rot:(Embedded.rot emb) ~tree
        in
        let verdict = Check.check_separator cfg !sep in
        Table.add_row t
          [
            Table.fmt_int nn;
            Table.fmt_int tree_depth;
            Table.fmt_int phases;
            Table.fmt_int stats.Composed.rounds;
            Table.fmt_int stats.Composed.messages;
            Table.fmt_int stats.Composed.max_edge_bits;
            Table.fmt_int (Bandwidth.default ~n:nn);
            Table.fmt_int verdict.Check.size;
            string_of_bool verdict.Check.valid;
          ])
    [ 64; 256; 1024 ];
  output t;
  pf "(rounds here use the tree-pipelined part-wise fallback, O(depth + k)\n";
  pf " per merge phase; the paper's shortcut black box would make it Õ(D))\n";
  (* The rest of the executed subroutine inventory, at one size. *)
  let emb = Gen.stacked_triangulation ~seed:2 ~n:256 () in
  let g = Embedded.graph emb in
  let (_, _, _), bphases, bstats = Composed.spanning_forest g () in
  pf "executed Boruvka (Lemma 9):  %d phases, %d rounds, %d messages\n" bphases
    bstats.Composed.rounds bstats.Composed.messages;
  let root = Embedded.outer emb in
  let parent = Repro_tree.Spanning.bfs g ~root in
  let tree = Repro_tree.Rooted.build ~rot:(Embedded.rot emb) ~root parent in
  let nn = Graph.n g in
  let lv =
    Composed.
      {
        lparent = Array.init nn (Repro_tree.Rooted.parent tree);
        ldepth = Array.init nn (Repro_tree.Rooted.depth tree);
        lsize = Array.init nn (Repro_tree.Rooted.size tree);
        lrot = Array.init nn (Rotation.order (Embedded.rot emb));
        lchildren = Array.init nn (Repro_tree.Rooted.children tree);
        lpi_l = Array.init nn (Repro_tree.Rooted.pi_left tree);
        lpi_r = Array.init nn (Repro_tree.Rooted.pi_right tree);
      }
  in
  let (_, _), rstats = Composed.reroot g lv ~new_root:(nn / 2) in
  pf "executed re-root (Lemma 19): %d rounds, %d messages\n" rstats.Composed.rounds
    rstats.Composed.messages;
  let cfg256 = Config.of_parts ~graph:g ~rot:(Embedded.rot emb) ~tree in
  let printed = ref false in
  List.iter
    (fun (u, v) ->
      if not !printed then begin
        let fmem, dstats = Composed.detect_face g lv ~u ~v in
        let leaf =
          let t = ref (-1) in
          Array.iteri
            (fun z m ->
              if m && !t < 0 && Repro_tree.Rooted.is_leaf tree z then t := z)
            fmem.Composed.inside;
          !t
        in
        if leaf >= 0 then begin
          printed := true;
          pf "executed detect-face (L15):  %d rounds, %d messages\n"
            dstats.Composed.rounds dstats.Composed.messages;
          let _, hstats = Composed.hidden g lv ~u ~v ~t:leaf in
          pf "executed hidden (L16):       %d rounds, %d messages\n"
            hstats.Composed.rounds hstats.Composed.messages
        end
      end)
    (Config.fundamental_edges cfg256)

(* ------------------------------------------------------------------ *)
(* F2: separator size vs sqrt(n).                                      *)
(* ------------------------------------------------------------------ *)

let f2 () =
  section "F2  (figure) separator size vs sqrt(n)";
  pf "expected: |S| ~ c*sqrt(n) on grid-like inputs; Theta(n) on cycles\n";
  let t =
    Table.create ~title:"F2"
      [ "family"; "n"; "sqrt n"; "mean |S|"; "|S|/sqrt n"; "after shrink" ]
  in
  Table.set_align t 0 Table.Left;
  List.iter
    (fun (name, gen) ->
      List.iter
        (fun n ->
          let sizes = ref [] and shrunk = ref [] in
          List.iter
            (fun seed ->
              let emb = gen n seed in
              let cfg = Config.of_embedded emb in
              let r = Separator.find cfg in
              let s = Separator.shrink cfg r.Separator.separator in
              assert (Check.balanced cfg s);
              sizes := float_of_int (List.length r.Separator.separator) :: !sizes;
              shrunk := float_of_int (List.length s) :: !shrunk)
            [ 1; 2; 3 ];
          let mean = Stats.mean (Array.of_list !sizes) in
          let sq = sqrt (float_of_int n) in
          Table.add_row t
            [
              name;
              Table.fmt_int n;
              Table.fmt_float ~digits:1 sq;
              Table.fmt_float ~digits:1 mean;
              Table.fmt_float ~digits:2 (mean /. sq);
              Table.fmt_float ~digits:1 (Stats.mean (Array.of_list !shrunk));
            ])
        [ 100; 400; 1600; 6400 ])
    [ List.nth diameter_suite 1; List.nth diameter_suite 2; List.nth diameter_suite 3 ];
  output t;
  pf "('after shrink' is the balanced-trim post-pass: a balanced tree-path\n";
  pf " separator that may forgo the closing edge; on cycles it recovers n/3)\n"

(* ------------------------------------------------------------------ *)
(* E11: domain-pool speedup, with bit-identical output checks.          *)
(* ------------------------------------------------------------------ *)

let e11 ~jobs ~short () =
  section "E11  Part-batch parallel speedup (domain pool)";
  pf "expected: jobs=%d output bit-identical to jobs=1; speedup bounded by cores\n"
    jobs;
  pf "(this host: %d recommended domains)\n" (Domain.recommended_domain_count ());
  let size = if short then 512 else 4096 in
  let t =
    Table.create ~title:(Printf.sprintf "E11 (jobs=1 vs jobs=%d)" jobs)
      [
        "workload"; "n"; "jobs=1 (s)"; Printf.sprintf "jobs=%d (s)" jobs;
        "speedup"; "mode"; "identical";
      ]
  in
  Table.set_align t 0 Table.Left;
  Table.set_align t 5 Table.Left;
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let case name n run equal =
    (* Warm once so allocator/GC state is comparable, then time each mode. *)
    ignore (Pool.with_pool ~jobs:1 run);
    let r1, s1 = time (fun () -> Pool.with_pool ~jobs:1 run) in
    let mode = ref "pool" in
    let rn, sn =
      time (fun () ->
          Pool.with_pool ~jobs (fun p ->
              (* Every batch these workloads submit is a set of node-disjoint
                 parts, so each batch's cost estimate is at most n.  If even
                 cost = n stays below the pool's grain, provably every
                 Pool.map of the run took the sequential path. *)
              if not (Pool.runs_parallel ~cost:n p 2) then mode := "seq-fallback";
              run p))
    in
    let same = equal r1 rn in
    Table.add_row t
      [
        name;
        Table.fmt_int n;
        Table.fmt_float ~digits:3 s1;
        Table.fmt_float ~digits:3 sn;
        Table.fmt_float ~digits:2 (s1 /. sn);
        !mode;
        string_of_bool same;
      ];
    assert same
  in
  List.iter
    (fun (fname, gen) ->
      let emb = gen size 1 in
      let g = Embedded.graph emb in
      let n = Graph.n g in
      let root = Embedded.outer emb in
      case
        (Printf.sprintf "dfs/%s" fname)
        n
        (fun pool ->
          let rounds = Rounds.create ~n ~d:(Algo.diameter g) () in
          let r = Dfs.run ~rounds ~pool emb ~root in
          (r, Rounds.total rounds))
        (fun (r1, t1) (rn, tn) ->
          r1.Dfs.parent = rn.Dfs.parent
          && r1.Dfs.depth = rn.Dfs.depth
          && r1.Dfs.phases = rn.Dfs.phases
          && r1.Dfs.phase_log = rn.Dfs.phase_log
          && r1.Dfs.separator_phases = rn.Dfs.separator_phases
          && t1 = tn);
      case
        (Printf.sprintf "decomp/%s" fname)
        n
        (fun pool ->
          let rounds = Rounds.create ~n ~d:(Algo.diameter g) () in
          let d = Decomposition.build ~rounds ~pool ~piece_target:64 emb in
          (d, Rounds.total rounds))
        (fun (d1, t1) (dn, tn) ->
          d1.Decomposition.pieces = dn.Decomposition.pieces
          && d1.Decomposition.separator = dn.Decomposition.separator
          && d1.Decomposition.levels = dn.Decomposition.levels
          && t1 = tn);
      (* Theorem 1 proper: separators for all parts of one partition.  The
         pieces of a shallow decomposition are connected and node-disjoint,
         so they make a valid partition of the non-separator residue. *)
      let parts =
        let d = Decomposition.build ~piece_target:256 emb in
        List.filter (fun p -> List.length p > 3) d.Decomposition.pieces
      in
      case
        (Printf.sprintf "seppart/%s (%d parts)" fname (List.length parts))
        n
        (fun pool ->
          let rounds = Rounds.create ~n ~d:(Algo.diameter g) () in
          let rs = Separator.find_partition ~rounds ~pool emb ~parts in
          (List.map (fun (_, r) -> r.Separator.separator) rs, Rounds.total rounds))
        ( = ))
    [ List.nth diameter_suite 0; List.nth diameter_suite 1 ];
  output t;
  pf "(identical = parents/depths/pieces/phase logs and charged round totals\n";
  pf " all equal between the two runs; mode = seq-fallback proves every batch\n";
  pf " stayed below the pool's seq_grain — the pool then never even spawns its\n";
  pf " worker domains, so the jobs=%d run stays on single-domain execution)\n" jobs

(* ------------------------------------------------------------------ *)
(* E12: engine scheduling — event-driven vs dense reference.            *)
(* ------------------------------------------------------------------ *)

let e12 ~short () =
  section "E12  Engine scheduling: event-driven vs dense reference";
  pf "expected: >=5x on frontier-sparse workloads (deep-cycle BFS); no\n";
  pf "          regression on dense frontiers; outputs and stats bit-identical\n";
  let t =
    Table.create
      ~title:(if short then "E12 (short)" else "E12")
      [
        "workload"; "n"; "rounds"; "reference (ms)"; "event-driven (ms)";
        "speedup"; "identical";
      ]
  in
  Table.set_align t 0 Table.Left;
  (* Sub-millisecond single runs are all timer noise: calibrate repetitions
     so every measurement spans at least [min_time], and report the mean. *)
  let min_time = if short then 0.05 else 0.25 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = ref (f ()) in
    let once = Unix.gettimeofday () -. t0 in
    let reps = int_of_float (ceil (min_time /. Float.max 1e-6 once)) in
    if reps <= 1 then (!r, once)
    else begin
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        r := f ()
      done;
      (!r, (Unix.gettimeofday () -. t0) /. float_of_int reps)
    end
  in
  let module Bfs_ref = Repro_testkit.Reference.Engine.Make (Prim.Bfs_program) in
  let module Bfs_fast = Engine.Make (Prim.Bfs_program) in
  let module Pw_ref = Repro_testkit.Reference.Engine.Make (Prim.Partwise_program) in
  let module Pw_fast = Engine.Make (Prim.Partwise_program) in
  let row name n run_ref run_fast =
    (* Warm both paths once, then time each. *)
    ignore (run_ref ());
    ignore (run_fast ());
    let (out_ref, st_ref), tr = time run_ref in
    let (out_fast, st_fast), tf = time run_fast in
    let same = out_ref = out_fast && st_ref = st_fast in
    Table.add_row t
      [
        name;
        Table.fmt_int n;
        Table.fmt_int st_ref.Engine.rounds;
        Table.fmt_float ~digits:3 (1000.0 *. tr);
        Table.fmt_float ~digits:3 (1000.0 *. tf);
        Table.fmt_float ~digits:2 (tr /. tf);
        string_of_bool same;
      ];
    assert same
  in
  (* Deep cycle: Theta(n) rounds with a 1..2-node frontier — the dense
     scheduler's worst case (it scans all n nodes every round), the
     event-driven scheduler's best. *)
  let n_cycle = if short then 2048 else 16384 in
  let gc = Embedded.graph (Gen.cycle n_cycle) in
  let cycle_input = Array.init n_cycle (fun v -> v = 0) in
  row "bfs/deep-cycle (sparse frontier)" n_cycle
    (fun () -> Bfs_ref.run ~max_rounds:(2 * n_cycle) gc ~input:cycle_input)
    (fun () -> Bfs_fast.run ~max_rounds:(2 * n_cycle) gc ~input:cycle_input);
  (* Dense frontier: low diameter, most nodes active most rounds — the
     event-driven bookkeeping must not cost anything here. *)
  let n_dense = if short then 512 else 4096 in
  let gd = Embedded.graph (Gen.stacked_triangulation ~seed:4 ~n:n_dense ()) in
  let dense_input = Array.init n_dense (fun v -> v = 0) in
  row "bfs/stacked (dense frontier)" n_dense
    (fun () -> Bfs_ref.run gd ~input:dense_input)
    (fun () -> Bfs_fast.run gd ~input:dense_input);
  (* Part-wise pipeline: O(depth + k) rounds over a grid's BFS bands; the
     active set tracks the pipeline wave instead of all n nodes. *)
  let side = if short then 32 else 64 in
  let emb = Gen.grid ~rows:side ~cols:side in
  let g = Embedded.graph emb in
  let n = Graph.n g in
  let (parent, dist), _ = Prim.bfs_tree g ~root:0 in
  let depth = Array.fold_left max 0 dist in
  let ops = [| Prim.Sum |] in
  List.iter
    (fun k ->
      let input =
        Array.init n (fun v ->
            {
              Prim.Partwise_program.parent = parent.(v);
              part = dist.(v) * k / (depth + 1);
              values = [| v |];
              ops;
            })
      in
      row
        (Printf.sprintf "partwise/grid%dx%d k=%d" side side k)
        n
        (fun () -> Pw_ref.run g ~input)
        (fun () -> Pw_fast.run g ~input))
    (if short then [ 16; 64 ] else [ 16; 64; 256 ]);
  output t;
  pf "(identical = outputs AND all four statistics fields equal — the same\n";
  pf " bit-identity contract the differential suite test/engine_equiv.ml\n";
  pf " checks on the full program zoo)\n"

(* ------------------------------------------------------------------ *)
(* E13: collective batching — the serial one-run-per-scalar oracle vs   *)
(* the batched pipelined collectives behind the composed subroutines.   *)
(* ------------------------------------------------------------------ *)

let e13 ~short () =
  section "E13  Collective batching: engine runs & rounds";
  pf "expected: bit-identical outputs, >=3x fewer engine invocations and\n";
  pf " fewer executed rounds for the batched separator pipeline\n";
  let t =
    Table.create ~title:"E13a separator_phase3: serial oracle vs batched"
      [
        "family"; "n"; "mode"; "engine runs"; "collectives"; "rounds";
        "messages"; "identical";
      ]
  in
  Table.set_align t 0 Table.Left;
  Table.set_align t 2 Table.Left;
  List.iter
    (fun (seed, n) ->
      let emb = Gen.stacked_triangulation ~seed ~n () in
      let g = Embedded.graph emb in
      let root = Embedded.outer emb in
      let parent = Spanning.make Spanning.Bfs g ~root in
      let tree = Rooted.build ~rot:(Embedded.rot emb) ~root parent in
      let nn = Graph.n g in
      let rot_orders = Array.init nn (Rotation.order (Embedded.rot emb)) in
      let depth = Array.init nn (Rooted.depth tree) in
      let sep, st = Composed.separator_phase3 g ~rot_orders ~parent ~depth ~root in
      let sep', st' =
        Composed.Reference.separator_phase3 g ~rot_orders ~parent ~depth ~root
      in
      let identical = sep = sep' in
      let row mode (s : Composed.stats) =
        Table.add_row t
          [
            Printf.sprintf "tri/seed%d" seed;
            Table.fmt_int n;
            mode;
            Table.fmt_int s.Composed.engine_runs;
            Table.fmt_int s.Composed.collectives;
            Table.fmt_int s.Composed.rounds;
            Table.fmt_int s.Composed.messages;
            (if identical then "yes" else "NO");
          ]
      in
      row "serial" st';
      row "batched" st)
    (if short then [ (3, 120) ] else [ (3, 120); (5, 240); (7, 480) ]);
  output t;
  let t2 =
    Table.create ~title:"E13b k-slot learn: one pipelined run vs k serial learns"
      [
        "tree"; "n"; "k"; "batched rounds"; "serial rounds"; "speedup";
        "batched runs"; "serial runs";
      ]
  in
  Table.set_align t2 0 Table.Left;
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let (parent, _), _ = Prim.bfs_tree g ~root:0 in
      let ctx = Collective.create g ~parent ~root:0 in
      List.iter
        (fun k ->
          let slots = Array.init k (fun i -> (1 + (i mod (n - 1)), i)) in
          Collective.reset ctx;
          let _ = Collective.learn_batch ctx slots in
          let b = Collective.tally ctx in
          Collective.reset ctx;
          Array.iter
            (fun (source, value) ->
              ignore (Collective.learn ctx ~source ~value))
            slots;
          let s = Collective.tally ctx in
          Table.add_row t2
            [
              name;
              Table.fmt_int n;
              Table.fmt_int k;
              Table.fmt_int b.Collective.rounds;
              Table.fmt_int s.Collective.rounds;
              Printf.sprintf "%.1fx"
                (float_of_int s.Collective.rounds
                /. float_of_int (max 1 b.Collective.rounds));
              Table.fmt_int b.Collective.engine_runs;
              Table.fmt_int s.Collective.engine_runs;
            ])
        (if short then [ 16; 64 ] else [ 16; 64; 256 ]))
    [
      ("star300", Embedded.graph (Gen.star 300));
      ("grid32x32", Embedded.graph (Gen.grid ~rows:32 ~cols:32));
    ];
  output t2;
  pf "(the batched run pays O(depth + k) rounds; k serial learns pay\n";
  pf " k * O(depth) across 2k engine runs — the pipelining of Lemma 13's\n";
  pf " \"constant number of broadcasts\", made executable)\n"

(* ------------------------------------------------------------------ *)
(* F3: testkit oracle throughput.                                      *)
(* ------------------------------------------------------------------ *)

let f3 ~short () =
  section "F3  Testkit oracle throughput";
  pf "expected: every oracle clears its fuzz stream with no failures and\n";
  pf " enough checks/s that the CI fuzz-smoke budget (200 cases) stays cheap\n";
  let t =
    Table.create ~title:"F3 per-oracle cost over a fixed instance stream"
      [ "oracle"; "guards"; "cases"; "checks"; "wall s"; "checks/s" ]
  in
  Table.set_align t 0 Table.Left;
  Table.set_align t 1 Table.Left;
  let count = if short then 12 else 40 in
  let max_size = if short then 32 else 56 in
  List.iter
    (fun o ->
      let t0 = Unix.gettimeofday () in
      let outcome =
        Repro_testkit.Runner.fuzz ~oracles:[ o ] ~max_size ~seed:0 ~count ()
      in
      let dt = Unix.gettimeofday () -. t0 in
      Table.add_row t
        [
          o.Repro_testkit.Oracle.name;
          o.Repro_testkit.Oracle.guards;
          Table.fmt_int outcome.Repro_testkit.Runner.cases;
          Table.fmt_int outcome.Repro_testkit.Runner.checks;
          Printf.sprintf "%.2f" dt;
          Table.fmt_int
            (int_of_float
               (float_of_int outcome.Repro_testkit.Runner.checks
               /. Float.max dt 1e-9));
        ];
      List.iter
        (fun f ->
          pf "  !! %s FAILED: %s\n" o.Repro_testkit.Oracle.name
            (Repro_testkit.Runner.repro_line f))
        outcome.Repro_testkit.Runner.failures)
    Repro_testkit.Oracle.all;
  output t

(* ------------------------------------------------------------------ *)
(* E14: per-phase round attribution via the trace layer.               *)
(* ------------------------------------------------------------------ *)

(* Deliberately the same sizes in --short and full mode: the CI bench-diff
   job runs --short and compares these metrics exactly against the
   committed full-run baseline, so both modes must produce identical
   numbers.  The metrics are also independent of --jobs (per-part traces
   merge deterministically), which the trace test suite pins down. *)
let e14 ~jobs () =
  let module Trace = Repro_trace.Trace in
  let module Json = Repro_trace.Json in
  section "E14  Per-phase round attribution (trace layer)";
  pf "expected: span self-times partition the charged total; identical for every --jobs\n";
  List.iter
    (fun (family, n, seed) ->
      let emb = Gen.by_family ~seed family ~n in
      let g = Embedded.graph emb in
      let d = Algo.diameter g in
      let tracer = Trace.create () in
      let rounds = Rounds.create ~trace:tracer ~n:(Graph.n g) ~d () in
      let root = Embedded.outer emb in
      let _ =
        Pool.with_pool ~jobs (fun pool -> Dfs.run ~rounds ~pool emb ~root)
      in
      let metrics = Trace.to_metrics tracer in
      let iname = Printf.sprintf "%s-%d-%d" family n seed in
      record_metrics iname metrics;
      (* Exclusive (self) attribution per span name, in first-visit order
         over the aggregated tree. *)
      let order = ref [] in
      let acc = Hashtbl.create 16 in
      let touch name =
        match Hashtbl.find_opt acc name with
        | Some cell -> cell
        | None ->
          let cell = (ref 0, ref 0.0, ref 0) in
          Hashtbl.replace acc name cell;
          order := name :: !order;
          cell
      in
      let int_of = function Json.Int i -> i | _ -> 0 in
      let float_of = function
        | Json.Float f -> f
        | Json.Int i -> float_of_int i
        | _ -> 0.0
      in
      let rec walk j =
        let name =
          match Json.member "name" j with Some (Json.String s) -> s | _ -> "?"
        in
        let count, charged, pa = touch name in
        (count :=
           !count + match Json.member "count" j with Some v -> int_of v | None -> 0);
        (match Json.member "self" j with
        | Some self ->
          (charged :=
             !charged
             +.
             match Json.member "charged_rounds" self with
             | Some v -> float_of v
             | None -> 0.0);
          pa :=
            !pa
            + (match Json.member "pa_units" self with
              | Some v -> int_of v
              | None -> 0)
        | None -> ());
        match Json.member "children" j with
        | Some (Json.List kids) -> List.iter walk kids
        | _ -> ()
      in
      walk metrics;
      let grand_total =
        match Json.member "charged_rounds" metrics with
        | Some (Json.Float f) -> f
        | Some (Json.Int i) -> float_of_int i
        | _ -> 0.0
      in
      let t =
        Table.create
          ~title:(Printf.sprintf "E14 %s (total %.0f charged rounds)" iname grand_total)
          [ "span"; "spans"; "self charged"; "self pa"; "share" ]
      in
      Table.set_align t 0 Table.Left;
      List.iter
        (fun name ->
          let count, charged, pa = Hashtbl.find acc name in
          Table.add_row t
            [
              name;
              Table.fmt_int !count;
              Printf.sprintf "%.0f" !charged;
              Table.fmt_int !pa;
              (if grand_total > 0.0 then
                 Printf.sprintf "%.1f%%" (100.0 *. !charged /. grand_total)
               else "-");
            ])
        (List.rev !order);
      output t)
    [ ("tgrid", 400, 1); ("grid", 400, 1); ("stacked", 400, 2) ]

(* ------------------------------------------------------------------ *)
(* E15: the two retired hotspots — JOIN batching and amortized          *)
(* separator verification.                                              *)
(* ------------------------------------------------------------------ *)

let e15 ~short () =
  section "E15  Batched JOIN & amortized verification";
  pf "expected: bit-identical trees, >=2x fewer charged rounds and engine\n";
  pf " runs for the batched JOIN; per-find verification cost independent\n";
  pf " of the number of candidates tried\n";
  let t =
    Table.create ~title:"E15a JOIN: serial choreography vs slot-batched"
      [
        "family"; "n"; "mode"; "iters"; "charged rounds"; "engine runs";
        "rounds"; "identical";
      ]
  in
  Table.set_align t 0 Table.Left;
  Table.set_align t 2 Table.Left;
  List.iter
    (fun (name, emb) ->
      let cfg = Config.of_embedded emb in
      let g = Config.graph cfg in
      let n = Graph.n g in
      let d = max 1 (Algo.diameter g) in
      let root = Rooted.root (Config.tree cfg) in
      let members = Array.init n Fun.id in
      let separator = (Separator.find cfg).Separator.separator in
      let executed serial =
        let st = Join.create g ~root in
        let iters, stats =
          Repro_testkit.Reference.Join.executed ~serial st ~root ~members
            ~separator
        in
        (st, iters, stats)
      in
      (* The charged column compares the two schedules end to end: the
         batched one of [Join.join], the serial one of [Reference.Join]. *)
      let lb = Rounds.create ~n ~d () in
      let stb = Join.create g ~root in
      let ib = Join.join ~rounds:lb stb ~members ~separator in
      let stx, ix, sb = executed false in
      let str_, ir, ss = executed true in
      let lr = Rounds.create ~n ~d () in
      let st_ref = Join.create g ~root in
      let ir' = Repro_testkit.Reference.Join.join ~rounds:lr st_ref ~members ~separator in
      let identical =
        stb.Join.parent = stx.Join.parent
        && stb.Join.parent = str_.Join.parent
        && stb.Join.parent = st_ref.Join.parent
        && ib = ix && ib = ir && ib = ir'
      in
      let row mode iters charged (s : Composed.stats) =
        Table.add_row t
          [
            name;
            Table.fmt_int n;
            mode;
            Table.fmt_int iters;
            Printf.sprintf "%.0f" charged;
            Table.fmt_int s.Composed.engine_runs;
            Table.fmt_int s.Composed.rounds;
            (if identical then "yes" else "NO");
          ]
      in
      row "serial" ir' (Rounds.total lr) ss;
      row "batched" ib (Rounds.total lb) sb)
    (if short then [ ("tgrid12", Gen.grid_diag ~seed:3 ~rows:12 ~cols:12 ()) ]
     else
       [
         ("tgrid12", Gen.grid_diag ~seed:3 ~rows:12 ~cols:12 ());
         ("grid16", Gen.grid ~rows:16 ~cols:16);
         ("tri240", Gen.stacked_triangulation ~seed:5 ~n:240 ());
       ]);
  output t;
  pf "(serial = per-component anchor aggregation + re-root + mark-path,\n";
  pf " executed per slot; batched = the three slot-batched elections)\n";
  let t2 =
    Table.create ~title:"E15b verification: candidates tried vs balance batches"
      [
        "family"; "n"; "phase"; "tried"; "verify batches"; "old model pa";
        "new pa";
      ]
  in
  Table.set_align t2 0 Table.Left;
  Table.set_align t2 2 Table.Left;
  List.iter
    (fun (name, emb) ->
      let cfg = Config.of_embedded emb in
      let g = Config.graph cfg in
      let n = Graph.n g in
      let d = max 1 (Algo.diameter g) in
      let ledger = Rounds.create ~n ~d () in
      let r = Separator.find ~rounds:ledger cfg in
      let batches = Rounds.label_invocations ledger Verify_balance in
      let lg =
        int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.0))
      in
      (* The retired schedule walked a mark-path (lg^2 pa) and one
         aggregation per candidate tried. *)
      let old_pa = r.Separator.candidates_tried * ((lg * lg) + 1) in
      Table.add_row t2
        [
          name;
          Table.fmt_int n;
          r.Separator.phase;
          Table.fmt_int r.Separator.candidates_tried;
          Table.fmt_int batches;
          Table.fmt_int old_pa;
          Table.fmt_int batches;
        ])
    (if short then
       [
         ("tgrid12", Gen.grid_diag ~seed:3 ~rows:12 ~cols:12 ());
         ("star64", Gen.star 64);
       ]
     else
       [
         ("tgrid12", Gen.grid_diag ~seed:3 ~rows:12 ~cols:12 ());
         ("tgrid20", Gen.grid_diag ~seed:4 ~rows:20 ~cols:20 ());
         ("grid20", Gen.grid ~rows:20 ~cols:20);
         ("tri240", Gen.stacked_triangulation ~seed:5 ~n:240 ());
         ("star64", Gen.star 64);
       ]);
  output t2;
  pf "(each phase group maintains one running balance aggregate, so the\n";
  pf " verification charge is the number of groups entered — not the\n";
  pf " number of candidates tried, as in the per-candidate re-walk model)\n"

(* ------------------------------------------------------------------ *)
(* E16: the flat CSR store at scale — rounds/sec and peak RSS vs n.    *)
(* ------------------------------------------------------------------ *)

let e16 ~short () =
  section "E16  Flat CSR store at scale (Thm 1 partition over 32 parts)";
  pf "expected: the 10^6-node find_partition completes in flat memory;\n";
  pf " output and charged rounds bit-identical for every --jobs; wall-clock\n";
  pf " speedup bounded by the physical core count\n";
  pf "(this host: %d recommended domains)\n" (Domain.recommended_domain_count ());
  let t =
    Table.create ~title:"E16 (grid, 32 row-band parts)"
      [
        "n"; "m"; "D"; "jobs"; "wall (s)"; "charged rounds"; "rounds/s";
        "speedup"; "identical"; "peak RSS (MB)";
      ]
  in
  (* Square grids: known diameter 2*(side-1), connected row bands make a
     valid partition, and per-part separator work is uniform across the
     batch — the best case for part-parallelism, so the speedup column is
     an upper bound for what --jobs buys on this host. *)
  let sides = if short then [ 316 ] else [ 316; 1000 ] in
  let bands = 32 in
  List.iter
    (fun side ->
      let emb = Gen.grid ~rows:side ~cols:side in
      let g = Embedded.graph emb in
      let n = Graph.n g in
      let d = 2 * (side - 1) in
      let parts =
        List.init bands (fun b ->
            let lo = b * side / bands and hi = (b + 1) * side / bands in
            List.init ((hi - lo) * side) (fun i -> (lo * side) + i))
        |> List.filter (fun p -> p <> [])
      in
      let run jobs =
        let tracer = Repro_trace.Trace.create () in
        let rounds = Rounds.create ~trace:tracer ~n ~d () in
        let t0 = Unix.gettimeofday () in
        let rs =
          Pool.with_pool ~jobs (fun pool ->
              Separator.find_partition ~rounds ~pool emb ~parts)
        in
        let wall = Unix.gettimeofday () -. t0 in
        let seps = List.map (fun (_, r) -> r.Separator.separator) rs in
        (seps, Rounds.total rounds, wall, tracer)
      in
      let base = ref None in
      List.iter
        (fun jobs ->
          let seps, charged, wall, tracer = run jobs in
          let s1, w1 =
            match !base with
            | None ->
              base := Some (seps, charged, wall);
              (* The per-size metrics document for the bench-diff exact
                 gate: the charged ledger is jobs-independent, and both
                 --short and full mode run this size, so the committed
                 full-run baseline gates the CI short run too. *)
              if side = 316 then
                record_metrics
                  (Printf.sprintf "grid-%d" n)
                  (Repro_trace.Trace.to_metrics tracer);
              (seps, wall)
            | Some (s1, c1, w1) ->
              assert (c1 = charged);
              (s1, w1)
          in
          let identical = seps = s1 in
          assert identical;
          Table.add_row t
            [
              Table.fmt_int n;
              Table.fmt_int (Graph.m g);
              Table.fmt_int d;
              Table.fmt_int jobs;
              Table.fmt_float ~digits:2 wall;
              Printf.sprintf "%.0f" charged;
              Table.fmt_int (int_of_float (charged /. Float.max wall 1e-9));
              Table.fmt_float ~digits:2 (w1 /. wall);
              string_of_bool identical;
              Table.fmt_float ~digits:1 (float_of_int (peak_rss_kb ()) /. 1024.0);
            ])
        [ 1; 4; 8 ])
    sides;
  output t;
  pf "(identical = per-part separators equal to the jobs=1 run; peak RSS is\n";
  pf " the process high-water mark (/proc VmHWM), monotone within the\n";
  pf " experiment, so same-n rows share the largest run's mark)\n"

(* ------------------------------------------------------------------ *)
(* E17: backend crossover — separator quality vs charged rounds vs      *)
(* centralized wall, and the small-part fast path end to end.           *)
(* ------------------------------------------------------------------ *)

let e17 ~jobs ~short () =
  section "E17  Backend crossover (quality / rounds / wall, fast-path speedup)";
  pf "expected: congest pays Õ(D) charged rounds for near-cycle separators;\n";
  pf " the centralized lt-level pays O(part) collect but wins wall-clock on small\n";
  pf " parts — the cutoff dispatch converts that into an end-to-end win\n";
  (* Part 1: per-backend separator quality.  All columns except wall are
     deterministic; the side-100 instances are recorded as an exact metrics
     document for the bench-diff gate (present in --short and full runs). *)
  let t1 =
    Table.create ~title:"E17a  separator quality per backend"
      [
        "family"; "n"; "backend"; "|S|"; "trimmed"; "trim/sqrt(n)";
        "charged rounds"; "wall (ms)"; "phase";
      ]
  in
  Table.set_align t1 0 Table.Left;
  Table.set_align t1 2 Table.Left;
  Table.set_align t1 8 Table.Left;
  let sides = if short then [ 100 ] else [ 100; 316 ] in
  let quality_metrics = ref [] in
  List.iter
    (fun side ->
      List.iter
        (fun (family, emb) ->
          let g = Embedded.graph emb in
          let n = Graph.n g in
          let d = Algo.diameter g in
          let cfg = Config.of_embedded emb in
          let rows =
            List.map
              (fun b ->
                let bname = b.Backend.name in
                let ledger = Rounds.create ~n ~d:(max 1 d) () in
                let t0 = Unix.gettimeofday () in
                let r = b.Backend.find ~rounds:ledger cfg in
                let wall = Unix.gettimeofday () -. t0 in
                let trimmed = b.Backend.trim cfg r.Separator.separator in
                let size = List.length r.Separator.separator in
                let tsize = List.length trimmed in
                Table.add_row t1
                  [
                    family;
                    Table.fmt_int n;
                    bname;
                    Table.fmt_int size;
                    Table.fmt_int tsize;
                    Table.fmt_float ~digits:2
                      (float_of_int tsize /. sqrt (float_of_int n));
                    Printf.sprintf "%.0f" (Rounds.total ledger);
                    Table.fmt_float ~digits:1 (wall *. 1000.0);
                    r.Separator.phase;
                  ];
                ( bname,
                  Repro_trace.Json.Obj
                    [
                      ("size", Repro_trace.Json.Int size);
                      ("trimmed", Repro_trace.Json.Int tsize);
                      ( "charged_rounds",
                        Repro_trace.Json.Int
                          (int_of_float (Rounds.total ledger)) );
                      ("phase", Repro_trace.Json.String r.Separator.phase);
                    ] ))
              Backend.all
          in
          if side = 100 then
            quality_metrics :=
              (Printf.sprintf "%s-%d" family n, Repro_trace.Json.Obj rows)
              :: !quality_metrics)
        [
          ("grid", Gen.grid ~rows:side ~cols:side);
          ("tgrid", Gen.grid_diag ~seed:3 ~rows:side ~cols:side ());
          ("stacked", Gen.stacked_triangulation ~seed:3 ~n:(side * side) ());
        ])
    sides;
  output t1;
  record_metrics "quality"
    (Repro_trace.Json.Obj (List.rev !quality_metrics));
  (* Part 2: the small-part fast path end to end.  The four builds of a
     family run round-robin for [repeats] rounds, each after a full major
     GC so that no build pays for the garbage of the one before it.  Each
     round's speedup divides that round's congest-only wall by its cutoff
     wall, so a ratio compares builds made moments apart.  The
     decomposition and the charged ledger are deterministic, only wall
     varies.  At side 100 one more build, traced at cutoff 64, records the
     gated trace document; its wall is not a sample. *)
  let t2 =
    Table.create ~title:"E17b  Decomposition.build with centralized fast path"
      [
        "family"; "n"; "cutoff"; "pieces"; "levels"; "sep nodes";
        "charged rounds"; "wall (s)"; "speedup (q1-q3)";
      ]
  in
  Table.set_align t2 0 Table.Left;
  let cutoffs = [| None; Some 64; Some 1024; Some 4096 |] in
  let repeats = 5 in
  List.iter
    (fun side ->
      List.iter
        (fun (family, emb) ->
          let g = Embedded.graph emb in
          let n = Graph.n g in
          let d = Algo.diameter g in
          let build ?tracer cutoff =
            let rounds = Rounds.create ?trace:tracer ~n ~d:(max 1 d) () in
            let backend =
              Option.map
                (fun cutoff -> Backend.fast_path ~cutoff (Backend.default ()))
                cutoff
            in
            Gc.full_major ();
            let t0 = Unix.gettimeofday () in
            let t =
              Pool.with_pool ~jobs (fun pool ->
                  Decomposition.build ~rounds ~pool ?backend emb)
            in
            let wall = Unix.gettimeofday () -. t0 in
            let row =
              [
                Table.fmt_int (List.length t.Decomposition.pieces);
                Table.fmt_int t.Decomposition.levels;
                Table.fmt_int t.Decomposition.separator_count;
                Printf.sprintf "%.0f" (Rounds.total rounds);
              ]
            in
            (row, wall)
          in
          if side = 100 then begin
            let tracer = Repro_trace.Trace.create () in
            ignore (build ~tracer (Some 64));
            record_metrics
              (Printf.sprintf "fastpath-%s-%d" family n)
              (Repro_trace.Trace.to_metrics tracer)
          end;
          (* runs.(r).(c): round r's build at cutoffs.(c). *)
          let runs = Array.init repeats (fun _ -> Array.map build cutoffs) in
          Array.iteri
            (fun c cutoff ->
              let wall r = snd runs.(r).(c) in
              let speedup r = snd runs.(r).(0) /. Float.max (wall r) 1e-9 in
              let q p = Stats.percentile (Array.init repeats speedup) p in
              Table.add_row t2
                ([
                   family;
                   Table.fmt_int n;
                   (match cutoff with None -> "-" | Some c -> Table.fmt_int c);
                 ]
                @ fst runs.(0).(c)
                @ [
                    Table.fmt_float ~digits:2
                      (Stats.median (Array.init repeats wall));
                    (match cutoff with
                    | None -> "1.00"
                    | Some _ ->
                      Printf.sprintf "%.2f (%.2f-%.2f)" (q 50.0) (q 25.0)
                        (q 75.0));
                  ]))
            cutoffs)
        [
          ("grid", Gen.grid ~rows:side ~cols:side);
          ("tgrid", Gen.grid_diag ~seed:3 ~rows:side ~cols:side ());
          ("stacked", Gen.stacked_triangulation ~seed:3 ~n:(side * side) ());
        ])
    sides;
  output t2;
  pf "(wall = median over %d round-robin rounds of the four builds; speedup =\n"
    repeats;
  pf " congest-only wall / cutoff wall within a round, median (quartiles)\n";
  pf " over the rounds; the charged-rounds column shows the price of the fast\n";
  pf " path in the model: each dispatched part pays its O(part) backend-collect)\n"

(* ------------------------------------------------------------------ *)
(* E18: the hostile-input screen — clean overhead and detection.       *)
(* ------------------------------------------------------------------ *)

let e18 ~short () =
  section "E18  Hostile-input screen: clean overhead & detection";
  pf "expected: screening a clean n ~ 10^5 decomposition costs <= 4 PA\n";
  pf " units (charged overhead < 1%%; EXPERIMENTS.md E18a measured a 3-11%%\n";
  pf " wall share), and every hostile family is rejected/flagged inside\n";
  pf " the pinned O~(D) ceiling (<= 4 PA units) before any phase runs\n";
  (* Part 1: overhead on clean input.  The screen runs inside every entry
     point; its median wall and charged cost relative to the build it
     guards is the overhead a well-formed caller pays. *)
  let t1 =
    Table.create ~title:"E18a  screen overhead on clean decompositions"
      [
        "family"; "n"; "D"; "screen (ms)"; "build (s)"; "wall overhead";
        "screen charged"; "total charged"; "charged overhead";
      ]
  in
  Table.set_align t1 0 Table.Left;
  let sides = if short then [ 100 ] else [ 100; 316 ] in
  let clean_metrics = ref [] in
  List.iter
    (fun side ->
      List.iter
        (fun (family, emb) ->
          let g = Embedded.graph emb in
          let n = Graph.n g in
          let d = max 1 (Algo.diameter g) in
          (* Median of 3 screen walls; the verdict and the charges are
             deterministic, only wall varies. *)
          let screen_once () =
            let ledger = Rounds.create ~n ~d () in
            let t0 = Unix.gettimeofday () in
            let v = Screen.check ~rounds:ledger emb in
            (v, Unix.gettimeofday () -. t0, ledger)
          in
          let v, w0, ledger = screen_once () in
          let _, w1, _ = screen_once () in
          let _, w2, _ = screen_once () in
          let swall = List.nth (List.sort compare [ w0; w1; w2 ]) 1 in
          assert (Screen.accepted v);
          assert (Rounds.invocations ledger <= 4);
          let full = Rounds.create ~n ~d () in
          let t0 = Unix.gettimeofday () in
          let _ = Decomposition.build ~rounds:full emb in
          let bwall = Unix.gettimeofday () -. t0 in
          let scharged = Rounds.total ledger in
          let tcharged = Rounds.total full in
          Table.add_row t1
            [
              family;
              Table.fmt_int n;
              Table.fmt_int d;
              Table.fmt_float ~digits:1 (swall *. 1000.0);
              Table.fmt_float ~digits:2 bwall;
              Printf.sprintf "%.2f%%" (100.0 *. swall /. Float.max bwall 1e-9);
              Printf.sprintf "%.0f" scharged;
              Printf.sprintf "%.0f" tcharged;
              Printf.sprintf "%.2f%%" (100.0 *. scharged /. Float.max tcharged 1e-9);
            ];
          if side = 100 then
            clean_metrics :=
              ( Printf.sprintf "%s-%d" family n,
                Repro_trace.Json.Obj
                  [
                    ("screen_pa", Repro_trace.Json.Int (Rounds.invocations ledger));
                    ("screen_charged", Repro_trace.Json.Int (int_of_float scharged));
                    ("total_charged", Repro_trace.Json.Int (int_of_float tcharged));
                  ] )
              :: !clean_metrics)
        [
          ("grid", Gen.grid ~rows:side ~cols:side);
          ("tgrid", Gen.grid_diag ~seed:3 ~rows:side ~cols:side ());
          ("stacked", Gen.stacked_triangulation ~seed:3 ~n:(side * side) ());
        ])
    sides;
  output t1;
  (* Part 2: detection.  Every hostile family at one fixed size (the same
     in --short and full mode, so the committed baseline gates the CI
     smoke run), each screened inside the pinned ceiling. *)
  let t2 =
    Table.create ~title:"E18b  hostile detection (n = 4096, seed 2)"
      [ "family"; "n"; "verdict"; "wall (ms)"; "charged"; "pa units" ]
  in
  Table.set_align t2 0 Table.Left;
  Table.set_align t2 2 Table.Left;
  let hostile_metrics = ref [] in
  List.iter
    (fun family ->
      let emb =
        Repro_testkit.Instance.hostile_embedded
          { Repro_testkit.Instance.family; n = 4096; seed = 2;
            spanning = Spanning.Bfs }
      in
      let g = Embedded.graph emb in
      let n = Graph.n g in
      let d = max 1 (Algo.diameter g) in
      let ledger = Rounds.create ~n ~d () in
      let t0 = Unix.gettimeofday () in
      let v = Screen.check ~rounds:ledger emb in
      let wall = Unix.gettimeofday () -. t0 in
      assert (not (Screen.accepted v));
      (* The pinned O~(D) ceiling: at most 4 PA-unit aggregations. *)
      assert (Rounds.invocations ledger <= 4);
      assert (Rounds.total ledger <= 4.0 *. Rounds.pa_cost ledger);
      (match v with
      | Screen.Flagged w -> assert (Screen.witness_certifies emb w)
      | _ -> ());
      let verdict = Screen.verdict_to_string v in
      Table.add_row t2
        [
          family;
          Table.fmt_int n;
          verdict;
          Table.fmt_float ~digits:1 (wall *. 1000.0);
          Printf.sprintf "%.0f" (Rounds.total ledger);
          Table.fmt_int (Rounds.invocations ledger);
        ];
      hostile_metrics :=
        ( family,
          Repro_trace.Json.Obj
            [
              ("verdict", Repro_trace.Json.String verdict);
              ("charged", Repro_trace.Json.Int (int_of_float (Rounds.total ledger)));
              ("pa_units", Repro_trace.Json.Int (Rounds.invocations ledger));
            ] )
        :: !hostile_metrics)
    Repro_testkit.Instance.hostile_families;
  output t2;
  record_metrics "screen"
    (Repro_trace.Json.Obj
       [
         ("clean", Repro_trace.Json.Obj (List.rev !clean_metrics));
         ("hostile", Repro_trace.Json.Obj (List.rev !hostile_metrics));
       ]);
  pf "(verdicts carry the one-line replay spec at the CLI; overhead is the\n";
  pf " screen's median-of-3 wall and its charged rounds against the full\n";
  pf " screened Decomposition.build on the same instance)\n"

(* ------------------------------------------------------------------ *)
(* E19: separator-as-a-service — the serving engine under the         *)
(* canonical load mix.                                                 *)
(* ------------------------------------------------------------------ *)

(* The same Workload.canonical mix drives three consumers — this
   experiment (in-process), tools/loadgen.exe (over the socket) and the
   serve-smoke CI job — and all three must produce the identical stats
   document recorded here, because serve-smoke gates the daemon's
   over-socket answer against this experiment's committed baseline.
   Latency/qps columns are wall-clock (reported, not gated); the metrics
   document holds only deterministic counters.  Deliberately identical in
   --short and full mode. *)
let e19 ~jobs ~short () =
  ignore short;
  section "E19  Separator-as-a-service: keyed cache + load latency";
  pf "expected: misses = distinct cache keys of the mix (no eviction at\n";
  pf " the canonical capacity), hits > 0 on the repeated-root mix, and a\n";
  pf " serial replay reproduces the stats document bit-for-bit\n";
  let module W = Repro_serve.Workload in
  let module Engine = Repro_serve.Engine in
  let module Json = Repro_trace.Json in
  let emb =
    Gen.by_family ~seed:W.canonical_seed W.canonical_family
      ~n:W.canonical_n
  in
  let stats_request = Json.Obj [ ("op", Json.String "stats") ] in
  let class_of = function
    | W.Dfs _ -> "dfs"
    | W.Separator _ -> "separator"
    | W.Decompose _ -> "decompose"
  in
  let replay pool =
    let engine = Engine.create ~pool emb in
    let latencies = Hashtbl.create 4 in
    let record cls dt =
      match Hashtbl.find_opt latencies cls with
      | Some l -> l := dt :: !l
      | None -> Hashtbl.add latencies cls (ref [ dt ])
    in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun r ->
        let w0 = Unix.gettimeofday () in
        let resp = Engine.handle engine (W.to_json r) in
        record (class_of r) (Unix.gettimeofday () -. w0);
        match Json.member "ok" resp with
        | Some (Json.Bool true) -> ()
        | _ -> failwith ("e19: request failed: " ^ Json.to_string resp))
      (W.canonical ());
    let wall = Unix.gettimeofday () -. t0 in
    let stats = Engine.handle engine stats_request in
    (stats, latencies, wall)
  in
  let stats, latencies, wall = Pool.with_pool ~jobs replay in
  (* Serial replay on a fresh engine: the serving counters must be a pure
     function of the request multiset — pool size and engine instance
     must be invisible. *)
  let stats2, _, _ = Pool.with_pool ~jobs:1 replay in
  assert (Json.equal stats stats2);
  record_metrics "load" stats;
  let int_at path =
    let rec go j = function
      | [] -> ( match j with Some (Json.Int i) -> i | _ -> 0)
      | k :: rest -> go (Option.bind j (Json.member k)) rest
    in
    go (Some stats) path
  in
  let t1 =
    Table.create ~title:"E19a  service latency, canonical 120-request mix"
      [ "class"; "count"; "mean (ms)"; "p50 (ms)"; "p99 (ms)" ]
  in
  Table.set_align t1 0 Table.Left;
  let total = ref 0 in
  List.iter
    (fun cls ->
      let samples =
        match Hashtbl.find_opt latencies cls with
        | Some l -> Array.of_list !l
        | None -> [||]
      in
      let k = Array.length samples in
      assert (k > 0);
      total := !total + k;
      let mean =
        if k = 0 then 0.0
        else Array.fold_left ( +. ) 0.0 samples /. float_of_int k
      in
      Table.add_row t1
        [
          cls;
          Table.fmt_int k;
          Table.fmt_float (1000.0 *. mean);
          Table.fmt_float (1000.0 *. W.percentile samples 0.5);
          Table.fmt_float (1000.0 *. W.percentile samples 0.99);
        ])
    [ "dfs"; "separator"; "decompose" ];
  output t1;
  pf "(%d requests in %.3fs — %.0f queries/sec in-process; the socket\n"
    !total wall
    (if wall > 0.0 then float_of_int !total /. wall else 0.0);
  pf " numbers come from tools/loadgen.exe against bin/serve.exe)\n";
  let hits = int_at [ "cache"; "hits" ]
  and misses = int_at [ "cache"; "misses" ] in
  assert (hits > 0);
  let t2 =
    Table.create ~title:"E19b  cache + deterministic serving counters"
      [
        "hits"; "misses"; "evictions"; "hit rate"; "errors";
        "charged rounds (misses)";
      ]
  in
  Table.add_row t2
    [
      Table.fmt_int hits;
      Table.fmt_int misses;
      Table.fmt_int (int_at [ "cache"; "evictions" ]);
      Table.fmt_float (float_of_int hits /. float_of_int (hits + misses));
      Table.fmt_int (int_at [ "requests"; "errors" ]);
      (match Json.member "charged_rounds" stats with
      | Some (Json.Float f) -> Table.fmt_float ~digits:0 f
      | _ -> "-");
    ];
  output t2;
  pf "(hits charge nothing: the cached tree is already at the server;\n";
  pf " charged rounds sum the per-request ledgers of the misses only)\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks.                                          *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Micro-benchmarks (bechamel, monotonic clock)";
  let open Bechamel in
  let emb = Gen.grid_diag ~seed:3 ~rows:24 ~cols:24 () in
  let emb_small = Gen.grid_diag ~seed:3 ~rows:12 ~cols:12 () in
  let tests =
    [
      Test.make ~name:"separator/tgrid-24x24"
        (Staged.stage (fun () -> ignore (Separator.find (Config.of_embedded emb))));
      Test.make ~name:"weights/tgrid-24x24"
        (Staged.stage (fun () -> ignore (Weights.all_weights (Config.of_embedded emb))));
      Test.make ~name:"dfs/tgrid-12x12"
        (Staged.stage (fun () -> ignore (Dfs.run emb_small ~root:0)));
      Test.make ~name:"config+orders/tgrid-24x24"
        (Staged.stage (fun () -> ignore (Config.of_embedded emb)));
      Test.make ~name:"awerbuch/tgrid-12x12"
        (Staged.stage (fun () ->
             ignore (Awerbuch.run (Embedded.graph emb_small) ~root:0)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> pf "  %-28s %12.0f ns/run\n" name est
          | _ -> pf "  %-28s (no estimate)\n" name)
        analyzed)
    tests

(* ------------------------------------------------------------------ *)

let () =
  (* usage: main [--jobs N] [--short] [--out PATH] [experiment]
     (experiment: e1..e19, f1..f3, micro; default all).  --short shrinks
     instance sizes for the CI smoke run; --out writes the run's BENCH
     document to PATH (nothing is written without it).  A bad argument
     exits 2 with one stderr line before any experiment runs. *)
  let usage_error msg =
    prerr_endline ("bench: " ^ msg);
    exit 2
  in
  let jobs = ref (Pool.default_jobs ()) in
  let short = ref false in
  let out = ref None in
  let only = ref None in
  let rec parse = function
    | "--jobs" :: v :: rest ->
      (match int_of_string_opt v with
      | Some j -> jobs := max 1 j
      | None -> usage_error ("--jobs needs an integer, got " ^ v));
      parse rest
    | [ "--jobs" ] -> usage_error "--jobs needs an argument"
    | "--short" :: rest ->
      short := true;
      parse rest
    | "--out" :: path :: rest ->
      out := Some path;
      parse rest
    | [ "--out" ] -> usage_error "--out needs an argument"
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
      usage_error ("unknown option " ^ arg)
    | name :: rest ->
      if !only <> None then usage_error ("more than one experiment: " ^ name);
      only := Some name;
      parse rest
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let jobs = !jobs and short = !short in
  let experiments =
    [
      ("e1", e1); ("e2", e2); ("f1", f1); ("e3", e3); ("e4", e4); ("e5", e5);
      ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("f2", f2);
      ("e11", e11 ~jobs ~short); ("e12", e12 ~short); ("e13", e13 ~short);
      ("e14", e14 ~jobs); ("e15", e15 ~short); ("e16", e16 ~short);
      ("e17", e17 ~jobs ~short); ("e18", e18 ~short); ("e19", e19 ~jobs ~short);
      ("f3", f3 ~short); ("micro", micro);
    ]
  in
  let selected =
    match !only with
    | None -> experiments
    | Some name -> (
      match List.assoc_opt name experiments with
      | Some f -> [ (name, f) ]
      | None ->
        usage_error
          (Printf.sprintf "unknown experiment %s (known: %s)" name
             (String.concat ", " (List.map fst experiments))))
  in
  pf "Deterministic Distributed DFS via Cycle Separators — experiment harness\n";
  pf "(jobs = %d)\n" jobs;
  let timings =
    List.map
      (fun (name, f) ->
        current_exp := name;
        reset_peak_rss ();
        let t0 = Sys.time () in
        let w0 = Unix.gettimeofday () in
        f ();
        let timing = (name, Unix.gettimeofday () -. w0, peak_rss_kb ()) in
        pf "[%s done in %.1fs cpu]\n" name (Sys.time () -. t0);
        timing)
      selected
  in
  Option.iter (fun path -> write_json ~path ~jobs ~timings) !out;
  pf "\nAll experiments complete.\n"
