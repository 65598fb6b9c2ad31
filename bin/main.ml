(* Command-line driver.

     repro gen  --family tgrid -n 400 --seed 1
     repro sep  --family stacked -n 1000 --tree dfs --shrink
     repro dfs  --family tgrid -n 900 --root 17 --compare-awerbuch

   Families: grid tgrid stacked thinned cycle fan rtree path star wheel.
   Exit codes and the arguments shared with serve and fuzz: see [Cli]. *)

open Cmdliner
open Repro_graph
open Repro_embedding
open Repro_tree
open Repro_congest
open Repro_core
open Repro_baseline

(* ------------------------------------------------------------------ *)
(* Shared arguments (the common terms are in [Cli])                     *)
(* ------------------------------------------------------------------ *)

let family_arg = Cli.family ~default:"tgrid"
let n_arg = Cli.n ~default:400
let seed_arg = Cli.seed ~default:1

let tree_arg =
  let doc = "Spanning tree kind: bfs, dfs or random." in
  Arg.(value & opt string "bfs" & info [ "tree"; "t" ] ~docv:"KIND" ~doc)

let spanning_of_string seed = function
  | "bfs" -> Spanning.Bfs
  | "dfs" -> Spanning.Dfs
  | "random" -> Spanning.Random seed
  | other ->
    Cli.usage_error ("unknown tree kind " ^ other ^ " (known: bfs, dfs, random)")

let cutoff_arg =
  let doc =
    "Centralized fast path: recursion parts with at most $(docv) vertices are \
     dispatched to $(b,lt-level) instead of $(b,--backend).  0 disables the \
     fast path."
  in
  Arg.(value & opt int 0 & info [ "cutoff" ] ~docv:"N" ~doc)

let backend_of name cutoff =
  let b = Cli.backend_of_name name in
  if cutoff > 0 then Backend.fast_path ~cutoff b else b

let edges_arg =
  let doc =
    "Load the graph from an edge-list file (one 'u v' pair per line; vertex \
     ids 0-based) instead of generating one; the embedding is computed with \
     the DMP planarity algorithm."
  in
  Arg.(value & opt (some string) None & info [ "edges" ] ~docv:"FILE" ~doc)

(* ------------------------------------------------------------------ *)
(* Tracing (the [--trace*] family, shared by sep/dfs/bdd)               *)
(* ------------------------------------------------------------------ *)

let trace_arg =
  let doc = "Print the span-tree summary of the run (structured tracing)." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let trace_chrome_arg =
  let doc =
    "Write the run's trace as Chrome-trace (Perfetto) JSON to $(docv).  The \
     time axis is virtual (charged + executed rounds), so traces are \
     deterministic and diffable."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-chrome" ] ~docv:"FILE" ~doc)

(* A tracer is allocated only when some trace output was requested, so the
   default path stays the zero-cost [None] pipeline end to end. *)
let tracer_of_flags ~trace ~chrome ~metrics =
  if trace || chrome <> None || metrics <> None then
    Some (Repro_trace.Trace.create ())
  else None

let emit_trace ~trace ~chrome ~metrics tracer =
  match tracer with
  | None -> ()
  | Some tr ->
    if trace then Format.printf "@.%a@." Repro_trace.Trace.pp tr;
    Option.iter
      (fun path ->
        Cli.write_text_file path (Repro_trace.Trace.to_chrome_string tr);
        Printf.printf "chrome trace       : %s\n" path)
      chrome;
    Option.iter
      (fun path ->
        Cli.write_text_file path (Repro_trace.Trace.to_metrics_string tr);
        Printf.printf "metrics json       : %s\n" path)
      metrics

(* The edge list is outside input: a line that is not two distinct
   non-negative ids is a bad argument. *)
let load_edge_list path =
  let ic = try open_in path with Sys_error msg -> Cli.usage_error msg in
  let edges = ref [] and max_v = ref (-1) in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then begin
         match
           String.split_on_char ' ' line
           |> List.filter (( <> ) "")
           |> List.map int_of_string_opt
         with
         | [ Some u; Some v ] when u >= 0 && v >= 0 && u <> v ->
           edges := (u, v) :: !edges;
           max_v := max !max_v (max u v)
         | _ -> Cli.usage_error (Printf.sprintf "%s: bad edge line: %s" path line)
       end
     done
   with End_of_file -> close_in ic);
  if !edges = [] then Cli.usage_error (path ^ ": no edges");
  try Graph.of_edges ~n:(!max_v + 1) !edges
  with Invalid_argument msg -> Cli.usage_error (path ^ ": " ^ msg)

(* The instance and its hop diameter, the D of the charged-round ledger. *)
let instance_of ~family ~n ~seed ~edges =
  let emb =
    match edges with
    | None -> Cli.generated ~family ~n ~seed
    | Some path -> (
      let g = load_edge_list path in
      match Planarity.embed g with
      | None -> Cli.usage_error (path ^ ": input graph is not planar")
      | Some rot -> Embedded.make ~name:(Filename.basename path) g rot)
  in
  let g = Embedded.graph emb in
  (emb, g, Algo.diameter g)

let print_instance emb g d =
  Printf.printf "instance : %s\n" (Embedded.name emb);
  Printf.printf "n        : %d\nm        : %d\nD        : %d\n" (Graph.n g)
    (Graph.m g) d

(* ------------------------------------------------------------------ *)
(* gen                                                                  *)
(* ------------------------------------------------------------------ *)

let gen_cmd =
  let run family n seed edges =
    let emb, g, d = instance_of ~family ~n ~seed ~edges in
    print_instance emb g d;
    Printf.printf "planar embedding valid : %b\n" (Embedded.is_valid emb);
    Printf.printf "screen verdict         : %s\n"
      (Screen.verdict_to_string (Screen.check emb));
    Printf.printf "connected              : %b\n" (Algo.is_connected g);
    (match Embedded.coords emb with
    | Some coords ->
      Printf.printf "straight-line drawing  : %b\n"
        (Geometry.straight_line_planar g coords)
    | None -> Printf.printf "straight-line drawing  : (no coordinates)\n");
    Printf.printf "outer-face vertex      : %d\n" (Embedded.outer emb)
  in
  let term = Term.(const run $ family_arg $ n_arg $ seed_arg $ edges_arg) in
  Cmd.v
    (Cmd.info "gen" ~exits:Cli.exits
       ~doc:"Generate or load a planar instance and validate it")
    term

(* ------------------------------------------------------------------ *)
(* sep                                                                  *)
(* ------------------------------------------------------------------ *)

let shrink_arg =
  let doc = "Also apply the balanced-trim post-pass." in
  Arg.(value & flag & info [ "shrink" ] ~doc)

let verbose_arg =
  let doc = "Print the separator's vertices." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let svg_arg =
  let doc = "Write an SVG drawing with the separator highlighted." in
  Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc)

let sep_cmd =
  let run family n seed edges tree backend shrink verbose svg trace chrome
      metrics =
    let b = Cli.backend_of_name backend in
    let spanning = spanning_of_string seed tree in
    let emb, g, d = instance_of ~family ~n ~seed ~edges in
    print_instance emb g d;
    let tracer = tracer_of_flags ~trace ~chrome ~metrics in
    let rounds = Rounds.create ?trace:tracer ~n:(Graph.n g) ~d () in
    Cli.or_screen_reject @@ fun () ->
    (* Screen before Config.of_embedded: a corrupted rotation must die
       with a verdict, not crash the spanning-tree build. *)
    Screen.require ~rounds ~entry:"sep" emb;
    let cfg = Config.of_embedded ~spanning emb in
    let r = b.Backend.find ~rounds cfg in
    let verdict = Check.check_separator cfg r.Separator.separator in
    (* The tree-path shape is part of the contract only for the distributed
       algorithm; centralized backends are judged on balance alone. *)
    let ok =
      match b.Backend.kind with
      | Backend.Distributed -> verdict.Check.valid
      | Backend.Centralized ->
        verdict.Check.size > 0
        && verdict.Check.max_component <= verdict.Check.limit
    in
    Printf.printf "\nbackend            : %s\n" b.Backend.name;
    Printf.printf "separator phase    : %s (%d candidate(s))\n" r.Separator.phase
      r.Separator.candidates_tried;
    Printf.printf "separator size     : %d\n" verdict.Check.size;
    Printf.printf "max component      : %d (limit %d)\n" verdict.Check.max_component
      verdict.Check.limit;
    Printf.printf "valid              : %b\n" ok;
    Printf.printf "charged rounds     : %.0f (%.0f x D)\n" (Rounds.total rounds)
      (Rounds.total rounds /. float_of_int d);
    if shrink then begin
      let s = b.Backend.trim cfg r.Separator.separator in
      Printf.printf "after shrink       : %d nodes (balanced %b)\n" (List.length s)
        (Check.balanced cfg s)
    end;
    if verbose then
      Printf.printf "nodes: %s\n"
        (String.concat " " (List.map string_of_int r.Separator.separator));
    (match svg with
    | Some path ->
      Svg.write_file ~highlight:r.Separator.separator
        ?closing:r.Separator.endpoints emb ~path;
      Printf.printf "svg written       : %s\n" path
    | None -> ());
    emit_trace ~trace ~chrome ~metrics tracer;
    exit (if ok then 0 else 1)
  in
  let term =
    Term.(
      const run $ family_arg $ n_arg $ seed_arg $ edges_arg $ tree_arg
      $ Cli.backend $ shrink_arg $ verbose_arg $ svg_arg $ trace_arg
      $ trace_chrome_arg $ Cli.trace_metrics)
  in
  Cmd.v
    (Cmd.info "sep" ~exits:Cli.exits
       ~doc:"Compute and verify a deterministic cycle separator")
    term

(* ------------------------------------------------------------------ *)
(* dfs                                                                  *)
(* ------------------------------------------------------------------ *)

let root_arg =
  let doc = "DFS root (default: the embedding's outer vertex)." in
  Arg.(value & opt (some int) None & info [ "root"; "r" ] ~docv:"V" ~doc)

let compare_arg =
  let doc = "Also run Awerbuch's O(n) DFS in the message-level engine." in
  Arg.(value & flag & info [ "compare-awerbuch" ] ~doc)

let dfs_cmd =
  let run family n seed edges root jobs backend cutoff compare_awerbuch trace
      chrome metrics =
    let b = backend_of backend cutoff in
    let emb, g, d = instance_of ~family ~n ~seed ~edges in
    let root = match root with Some r -> r | None -> Embedded.outer emb in
    if root < 0 || root >= Graph.n g then
      Cli.usage_error
        (Printf.sprintf "root %d is not a vertex (n = %d)" root (Graph.n g));
    print_instance emb g d;
    let tracer = tracer_of_flags ~trace ~chrome ~metrics in
    let rounds = Rounds.create ?trace:tracer ~n:(Graph.n g) ~d () in
    Cli.or_screen_reject @@ fun () ->
    let r =
      Repro_util.Pool.with_pool ~jobs (fun pool ->
          Dfs.run ~rounds ~pool ~backend:b emb ~root)
    in
    let ok = Dfs.verify emb ~root r in
    Printf.printf "\nDFS root           : %d\n" root;
    Printf.printf "phases             : %d\n" r.Dfs.phases;
    Printf.printf "max join iters     : %d\n" r.Dfs.max_join_iterations;
    Printf.printf "tree depth         : %d\n" (Array.fold_left max 0 r.Dfs.depth);
    Printf.printf "valid DFS tree     : %b\n" ok;
    Printf.printf "charged rounds     : %.0f\n" (Rounds.total rounds);
    if compare_awerbuch then begin
      let aw = Awerbuch.run g ~root in
      Printf.printf "awerbuch rounds    : %d (measured; ~4n)\n" aw.Awerbuch.rounds;
      Printf.printf "awerbuch valid     : %b\n"
        (Algo.is_dfs_tree g ~root ~parent:aw.Awerbuch.parent)
    end;
    emit_trace ~trace ~chrome ~metrics tracer;
    exit (if ok then 0 else 1)
  in
  let term =
    Term.(
      const run $ family_arg $ n_arg $ seed_arg $ edges_arg $ root_arg
      $ Cli.jobs $ Cli.backend $ cutoff_arg $ compare_arg $ trace_arg
      $ trace_chrome_arg $ Cli.trace_metrics)
  in
  Cmd.v
    (Cmd.info "dfs" ~exits:Cli.exits
       ~doc:"Compute a DFS tree with the deterministic Õ(D) algorithm")
    term

(* ------------------------------------------------------------------ *)
(* bdd                                                                  *)
(* ------------------------------------------------------------------ *)

let target_arg =
  let doc = "Hop-diameter target for the pieces." in
  Arg.(value & opt int 8 & info [ "target" ] ~docv:"T" ~doc)

let piece_arg =
  let doc = "Piece-size target (used when --by-size is set)." in
  Arg.(value & opt int 20 & info [ "piece" ] ~docv:"K" ~doc)

let by_size_arg =
  let doc = "Decompose by piece size (Lipton-Tarjan) instead of diameter." in
  Arg.(value & flag & info [ "by-size" ] ~doc)

let bdd_cmd =
  let run family n seed edges target piece by_size jobs backend cutoff trace
      chrome metrics =
    let b = backend_of backend cutoff in
    if by_size && piece < 1 then Cli.usage_error "--piece must be at least 1";
    if (not by_size) && target < 1 then Cli.usage_error "--target must be at least 1";
    let emb, g, d = instance_of ~family ~n ~seed ~edges in
    print_instance emb g d;
    let tracer = tracer_of_flags ~trace ~chrome ~metrics in
    let rounds =
      Option.map
        (fun tr -> Rounds.create ~trace:tr ~n:(Graph.n g) ~d ())
        tracer
    in
    Cli.or_screen_reject @@ fun () ->
    let t, ok =
      Repro_util.Pool.with_pool ~jobs (fun pool ->
          if by_size then begin
            let t =
              Decomposition.build ?rounds ~pool ~piece_target:piece ~backend:b
                emb
            in
            (t, Decomposition.check emb ~piece_target:piece t)
          end
          else begin
            let t =
              Decomposition.bounded_diameter ?rounds ~pool
                ~diameter_target:target ~backend:b emb
            in
            (t, Decomposition.check_bounded_diameter emb ~diameter_target:target t)
          end)
    in
    Printf.printf "\npieces            : %d\n" (List.length t.Decomposition.pieces);
    Printf.printf "recursion levels  : %d\n" t.Decomposition.levels;
    Printf.printf "separator nodes   : %d (%.1f%% of n)\n"
      t.Decomposition.separator_count
      (100.0 *. float_of_int t.Decomposition.separator_count
      /. float_of_int (Graph.n g));
    Printf.printf "valid             : %b\n" ok;
    (match rounds with
    | Some r -> Printf.printf "charged rounds    : %.0f\n" (Rounds.total r)
    | None -> ());
    emit_trace ~trace ~chrome ~metrics tracer;
    exit (if ok then 0 else 1)
  in
  let term =
    Term.(
      const run $ family_arg $ n_arg $ seed_arg $ edges_arg $ target_arg
      $ piece_arg $ by_size_arg $ Cli.jobs $ Cli.backend $ cutoff_arg
      $ trace_arg $ trace_chrome_arg $ Cli.trace_metrics)
  in
  Cmd.v
    (Cmd.info "bdd" ~exits:Cli.exits
       ~doc:
         "Recursive separator decomposition: bounded-diameter pieces (default) \
          or bounded-size pieces (--by-size)")
    term

(* ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "repro" ~version:"1.0.0" ~exits:Cli.exits
      ~doc:
        "Deterministic distributed DFS via cycle separators in planar graphs \
         (PODC 2025 reproduction)"
  in
  Cli.eval (Cmd.group info [ gen_cmd; sep_cmd; dfs_cmd; bdd_cmd ])
