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
   [charged_rounds] as they are. *)

open Repro_util
open Repro_graph
open Repro_embedding
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
      ("jobs=1:cutoff=256", None, Some 256) ]
  in
  List.iter
    (fun (instance, ((emb, _) as g)) ->
      let parts =
        List.filter
          (fun p -> List.length p > 3)
          (Decomposition.build ~piece_target:300 emb).pieces
      in
      List.iter
        (fun (mode, pool, small_part_cutoff) ->
          let run workload solve = line ~workload ~instance ~mode g solve in
          run "dfs" (fun rounds ->
              dfs_out
                (Dfs.run ~rounds ?pool ?small_part_cutoff emb
                   ~root:(Embedded.outer emb)));
          run "decomposition" (fun rounds ->
              decomposition_out
                (Decomposition.build ~rounds ?pool ~piece_target
                   ?small_part_cutoff emb));
          run "bounded-diameter" (fun rounds ->
              decomposition_out
                (Decomposition.bounded_diameter ~rounds ?pool
                   ?small_part_cutoff ~diameter_target:8 emb));
          if small_part_cutoff = None then
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
          (Dfs.run ~rounds ~spanning:(Repro_tree.Spanning.Random seed) emb ~root))
  done

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
  List.iter serve_replay [ 1; 2 ]
