(* Bit-identity digest: one line per (workload, instance, mode) carrying the
   MD5 of each printed output, the printed ledger and the printed trace.

     dune exec tools/digest.exe | diff DIGEST.txt -

   A change that claims to alter no output shows an empty diff against the
   committed DIGEST.txt; a change that alters outputs on purpose
   regenerates the file, and the diff's changed lines count the runs it
   changed.  Nothing timed and no [Hashtbl.hash] enters a line, so two runs
   print the same file.

   Each line holds three hashes:
   - [out]: the solver's output (DFS parent, depth, phases, phase log,
     separator-phase histogram and max join iterations; decomposition
     pieces, separator marks, levels and separator count; every
     [find_partition] result);
   - [ledger]: [Rounds.total] printed with [%h], then the breakdown
     sorted by label name;
   - [trace]: [Trace.to_metrics_string].
   Without a pool and on a pool the [out] and [ledger] hashes agree; the
   [trace] hashes differ by the pool's own [pool.*] spans.  The serving
   lines print the in-process canonical replay's [response_hash] and
   [charged_rounds] as they are.

   The [exec:*] lines pin the executed CONGEST layer, which no ledger
   sees: each is one run of a [Prim] runner, a [Collective] batch or a
   [Composed] subroutine (batched and [Reference]; JOIN's elections through
   the testkit's [Reference.Join.executed]), with the MD5 of its output and
   every execution statistic printed as it is. *)

open Repro_util
open Repro_graph
open Repro_embedding
open Repro_tree
open Repro_congest
open Repro_core
module Trace = Repro_trace.Trace
module Json = Repro_trace.Json

let md5 s = Stdlib.Digest.to_hex (Stdlib.Digest.string s)

let ints l = String.concat "," (List.map string_of_int l)
let int_array a = ints (Array.to_list a)

let dfs_out (r : Dfs.result) =
  String.concat "\n"
    [
      int_array r.parent;
      int_array r.depth;
      string_of_int r.phases;
      String.concat ";"
        (List.map (fun (c, l, j) -> ints [ c; l; j ]) r.phase_log);
      String.concat ";"
        (List.map (fun (p, k) -> Printf.sprintf "%s=%d" p k) r.separator_phases);
      string_of_int r.max_join_iterations;
    ]

let decomposition_out (t : Decomposition.t) =
  String.concat "\n"
    [
      String.concat ";" (List.map ints t.pieces);
      String.init (Array.length t.separator) (fun v ->
          if t.separator.(v) then '1' else '0');
      string_of_int t.levels;
      string_of_int t.separator_count;
    ]

let separator_out (r : Separator.result) =
  Printf.sprintf "%s|%s|%s|%d" (ints r.separator)
    (match r.endpoints with
    | Some (u, v) -> ints [ u; v ]
    | None -> "-")
    r.phase r.candidates_tried

let ledger_out rounds =
  Rounds.breakdown rounds
  |> List.map (fun (label, r, c) -> (Rounds.label_name label, r, c))
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  |> List.map (fun (label, r, c) -> Printf.sprintf "%s %h %d" label r c)
  |> String.concat "\n"
  |> Printf.sprintf "%h\n%s" (Rounds.total rounds)

(* One traced, charged run of [solve] on [emb] of diameter [d]. *)
let line ~workload ~instance ~mode (emb, d) solve =
  let trace = Trace.create () in
  let rounds = Rounds.create ~trace ~n:(Embedded.n emb) ~d () in
  let out = solve rounds in
  Printf.printf "%s %s %s out=%s ledger=%s trace=%s\n%!" workload instance mode
    (md5 out) (md5 (ledger_out rounds))
    (md5 (Trace.to_metrics_string trace))

let instance family ~n ~seed = Printf.sprintf "%s:n=%d:seed=%d" family n seed

let graph family ~n ~seed =
  let emb = Gen.by_family ~seed family ~n in
  (emb, Algo.diameter (Embedded.graph emb))

let piece_target = 20

(* The benchmark's dfs-stacked and decomp-tgrid graphs, solved as the
   benchmark solves them: no pool, the default backend, root 0. *)
let benchmark_graphs () =
  List.iter
    (fun seed ->
      let ((emb, _) as g) = graph "stacked" ~n:15_000 ~seed in
      line ~workload:"dfs-stacked" ~instance:(instance "stacked" ~n:15_000 ~seed)
        ~mode:"jobs=1" g (fun rounds -> dfs_out (Dfs.run ~rounds emb ~root:0)))
    [ 12; 13; 14; 15 ];
  List.iter
    (fun seed ->
      let ((emb, _) as g) = graph "tgrid" ~n:20_000 ~seed in
      line ~workload:"decomp-tgrid" ~instance:(instance "tgrid" ~n:20_000 ~seed)
        ~mode:"jobs=1" g (fun rounds ->
          decomposition_out (Decomposition.build ~rounds ~piece_target emb)))
    [ 12; 13; 14 ]

let small =
  [ ("stacked", 1); ("stacked", 2); ("tgrid", 1); ("tgrid", 2); ("grid", 1);
    ("grid", 2) ]
  |> List.map (fun (family, seed) ->
         (instance family ~n:3_000 ~seed, graph family ~n:3_000 ~seed))

(* Every entry point on the small instances: no pool, a 2-domain pool that
   goes parallel on every batch, and the small-part fast path. *)
let small_instances pool =
  let modes =
    [ ("jobs=1", None, None); ("jobs=2", Some pool, None);
      ("jobs=1:cutoff=256", None,
       Some (Backend.fast_path ~cutoff:256 (Backend.default ()))) ]
  in
  List.iter
    (fun (instance, ((emb, _) as g)) ->
      let parts =
        List.filter
          (fun p -> List.length p > 3)
          (Decomposition.build ~piece_target:300 emb).pieces
      in
      List.iter
        (fun (mode, pool, backend) ->
          let run workload solve = line ~workload ~instance ~mode g solve in
          run "dfs" (fun rounds ->
              dfs_out
                (Dfs.run ~rounds ?pool ?backend emb
                   ~root:(Embedded.outer emb)));
          run "decomposition" (fun rounds ->
              decomposition_out
                (Decomposition.build ~rounds ?pool ~piece_target ?backend emb));
          run "bounded-diameter" (fun rounds ->
              decomposition_out
                (Decomposition.bounded_diameter ~rounds ?pool ?backend
                   ~diameter_target:8 emb));
          if Option.is_none backend then
            run "find-partition" (fun rounds ->
                Separator.find_partition ~rounds ?pool emb ~parts
                |> List.map (fun (_, r) -> separator_out r)
                |> String.concat "\n"))
        modes)
    small

(* Ten DFS runs from a seeded random root over a [Random] spanning tree:
   components with no outward root direction. *)
let random_roots () =
  for seed = 0 to 9 do
    let instance, ((emb, _) as g) = List.nth small (seed mod List.length small) in
    let root = Rng.int (Rng.create seed) (Embedded.n emb) in
    line ~workload:"dfs-random-root"
      ~instance:(Printf.sprintf "%s:root=%d:tree=random%d" instance root seed)
      ~mode:"jobs=1" g (fun rounds ->
        dfs_out
          (Dfs.run ~rounds ~spanning:(Spanning.Random seed) emb ~root))
  done

(* An output's bytes, shared substructure expanded: the same value
   marshals to the same string whatever its allocation history. *)
let hash v = md5 (Marshal.to_string v [ Marshal.No_sharing ])

let exec_line ~workload ~instance ~mode (out, (s : Collective.stats)) =
  Printf.printf
    "exec:%s %s %s out=%s rounds=%d messages=%d max_edge_bits=%d \
     total_bits=%d engine_runs=%d collectives=%d\n%!"
    workload instance mode (hash out) s.rounds s.messages s.max_edge_bits
    s.total_bits s.engine_runs s.collectives

(* Every [Prim] runner, the three [Collective] batches at k = 3 and every
   [Composed] subroutine through both bindings, under a BFS tree from the
   outer vertex.  The arguments are fixed: the first fundamental edge,
   the first leaf in vertex order, the first fundamental edge whose face
   holds a leaf (with its smallest interior leaf; the grid's faces hold
   none, so it has no hidden lines), and partitions into one part, five
   parts ([v mod 5]), one part per vertex and the root's child
   subtrees. *)
let executed family =
  let emb = Gen.by_family ~seed:1 family ~n:200 in
  let instance = instance family ~n:200 ~seed:1 in
  let g = Embedded.graph emb and rot = Embedded.rot emb in
  let n = Graph.n g and root = Embedded.outer emb in
  let parent = Spanning.make Spanning.Bfs g ~root in
  let tree = Rooted.build ~rot ~root parent in
  let depth = Array.init n (Rooted.depth tree) in
  let children = Array.init n (Rooted.children tree) in
  let rot_orders = Array.init n (Rotation.order rot) in
  let size = Array.init n (Rooted.size tree) in
  let pi_left = Array.init n (Rooted.pi_left tree) in
  let tk = Composed.{ parent; depth; pi_left; size; root }
  and lv =
    Composed.
      {
        lparent = parent;
        ldepth = depth;
        lsize = size;
        lrot = rot_orders;
        lchildren = children;
        lpi_l = pi_left;
        lpi_r = Array.init n (Rooted.pi_right tree);
      }
  in
  let cfg = Config.of_parts ~graph:g ~rot ~tree in
  let u, v = List.hd (Config.fundamental_edges cfg) in
  let leaf =
    List.find (fun x -> x <> root && Rooted.is_leaf tree x) (List.init n Fun.id)
  in
  let hidden_instance =
    List.find_map
      (fun (a, b) ->
        match
          List.sort compare (Faces.interior_reference cfg ~u:a ~v:b)
          |> List.filter (Rooted.is_leaf tree)
        with
        | [] -> None
        | t :: _ -> Some (a, b, t))
      (Config.fundamental_edges cfg)
  in
  let values = Array.init n (fun x -> (x * 37) mod 101) in
  let slots =
    Array.init 3 (fun j -> Array.init n (fun x -> ((x + j) * 53) mod 97))
  in
  let rec top x =
    if parent.(x) < 0 || parent.(x) = root then x else top parent.(x)
  in
  let subtrees = Array.init n top in
  let prim workload (out, s) =
    exec_line ~workload ~instance ~mode:"prim" (out, Collective.of_engine s)
  in
  prim "bfs-tree" (Prim.bfs_tree g ~root);
  prim "bfs-forest"
    (Prim.bfs_forest g
       ~roots:(Array.init n (fun x -> x = root || x mod 17 = 0)));
  prim "subtree" (Prim.subtree_agg g ~parent ~op:Prim.Sum ~values);
  prim "ancestor" (Prim.ancestor_agg g ~parent ~op:Prim.Max ~values);
  prim "broadcast" (Prim.broadcast g ~parent ~root ~value:4242);
  prim "exchange"
    (Prim.exchange g
       ~sends:
         (Array.init n (fun x ->
              List.map (fun y -> (y, x)) (Array.to_list (Graph.neighbors g x)))));
  List.iter
    (fun (name, op, parts) ->
      prim ("partwise-" ^ name) (Prim.partwise g ~parent ~op ~parts ~values))
    [
      ("1-part", Prim.Sum, Array.make n 0);
      ("5-parts", Prim.Min, Array.init n (fun x -> x mod 5));
      ("n-parts", Prim.Max, Array.init n Fun.id);
    ];
  let batch workload run =
    let ctx = Collective.create g ~parent ~root in
    let out = run ctx in
    exec_line ~workload ~instance ~mode:"collective" (out, Collective.tally ctx)
  in
  batch "agg-batch" (fun ctx -> Collective.agg_batch ctx ~op:Prim.Sum slots);
  batch "learn-batch" (fun ctx ->
      Collective.learn_batch ctx [| (0, 7); (n / 2, 11); (n - 1, 13) |]);
  batch "partwise-batch" (fun ctx ->
      Collective.partwise_batch ctx ~bcast_parent:parent ~op:Prim.Min
        ~parts:(Array.init n (fun x -> x mod 5))
        slots);
  let separator = (Separator.find cfg).Separator.separator in
  let both workload batched reference =
    exec_line ~workload ~instance ~mode:"composed" (batched ());
    exec_line ~workload ~instance ~mode:"reference" (reference ())
  in
  let triple (a, b, s) = ((a, b), s) in
  both "dfs-orders"
    (fun () -> triple (Composed.dfs_orders g ~children ~parent ~depth ~root))
    (fun () ->
      triple (Composed.Reference.dfs_orders g ~children ~parent ~depth ~root));
  both "phase1"
    (fun () -> Composed.phase1 g ~rot_orders ~parent ~depth ~root)
    (fun () -> Composed.Reference.phase1 g ~rot_orders ~parent ~depth ~root);
  both "separator-phase3"
    (fun () -> Composed.separator_phase3 g ~rot_orders ~parent ~depth ~root)
    (fun () ->
      Composed.Reference.separator_phase3 g ~rot_orders ~parent ~depth ~root);
  (* JOIN's elections run in the engine only through the testkit, which
     drives them over its own forests ([Reference.Join.executed]). *)
  let join serial () =
    let st = Join.create g ~root in
    let iterations, stats =
      Repro_testkit.Reference.Join.executed ~serial st ~root
        ~members:(Array.init n Fun.id) ~separator
    in
    ((st.Join.parent, st.Join.depth, iterations), stats)
  in
  both "join-elections" (join false) (join true);
  both "weights"
    (fun () -> Composed.weights g lv)
    (fun () -> Composed.Reference.weights g lv);
  both "lca"
    (fun () -> Composed.lca g tk ~u ~v)
    (fun () -> Composed.Reference.lca g tk ~u ~v);
  both "mark-path"
    (fun () -> Composed.mark_path g tk ~u ~v)
    (fun () -> Composed.Reference.mark_path g tk ~u ~v);
  both "detect-face"
    (fun () -> Composed.detect_face g lv ~u ~v)
    (fun () -> Composed.Reference.detect_face g lv ~u ~v);
  both "spanning-forest"
    (fun () -> triple (Composed.spanning_forest g ()))
    (fun () -> triple (Composed.Reference.spanning_forest g ()));
  both "spanning-forest-parts"
    (fun () -> triple (Composed.spanning_forest g ~parts:subtrees ()))
    (fun () ->
      triple (Composed.Reference.spanning_forest g ~parts:subtrees ()));
  let sums, mins = Screen.local_tallies emb in
  let quad (a, b, c, s) = ((a, b, c), s) in
  both "screen-tally"
    (fun () -> quad (Composed.screen_tally g ~root ~sums ~mins))
    (fun () -> quad (Composed.Reference.screen_tally g ~root ~sums ~mins));
  both "reroot"
    (fun () -> Composed.reroot g lv ~new_root:leaf)
    (fun () -> Composed.Reference.reroot g lv ~new_root:leaf);
  Option.iter
    (fun (u, v, t) ->
      both "hidden"
        (fun () -> Composed.hidden g lv ~u ~v ~t)
        (fun () -> Composed.Reference.hidden g lv ~u ~v ~t))
    hidden_instance

(* The in-process canonical serving replay (E19's). *)
let serve_replay jobs =
  let module W = Repro_serve.Workload in
  let module Engine = Repro_serve.Engine in
  let emb =
    Gen.by_family ~seed:W.canonical_seed W.canonical_family ~n:W.canonical_n
  in
  let stats =
    Pool.with_pool ~jobs (fun pool ->
        let engine = Engine.create ~pool emb in
        List.iter
          (fun r -> ignore (Engine.handle engine (W.to_json r)))
          (W.canonical ());
        Engine.stats_json engine)
  in
  let response_hash =
    match Json.member "response_hash" stats with
    | Some (Json.String h) -> h
    | _ -> failwith "digest: stats without response_hash"
  and charged =
    match Json.member "charged_rounds" stats with
    | Some (Json.Float f) -> f
    | _ -> failwith "digest: stats without charged_rounds"
  in
  Printf.printf "serve %s:n=%d:seed=%d jobs=%d response_hash=%s charged_rounds=%h\n%!"
    W.canonical_family W.canonical_n W.canonical_seed jobs response_hash charged

let () =
  benchmark_graphs ();
  Pool.with_pool ~seq_grain:0 ~jobs:2 small_instances;
  random_roots ();
  List.iter serve_replay [ 1; 2 ];
  List.iter executed [ "stacked"; "tgrid"; "grid" ]
