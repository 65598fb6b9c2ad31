(* Separator-as-a-service daemon.

     repro-serve --socket /tmp/repro.sock --family grid -n 1600 --seed 1

   Loads (or generates) one graph, screens it once, and serves the
   line-delimited JSON protocol over a Unix-domain socket: dfs /
   separator / decompose / stats / shutdown.  See README "Serving". *)

open Cmdliner
open Repro_graph
open Repro_embedding
open Repro_core
open Repro_serve
module Trace = Repro_trace.Trace

let socket_arg =
  let doc = "Unix-domain socket path to serve on." in
  Arg.(
    value
    & opt string "/tmp/repro-serve.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc)

let family_arg =
  let doc =
    "Graph family (grid, tgrid, stacked, thinned, cycle, fan, rtree, path, \
     star, wheel; hostile testkit families are rejected by the screen at \
     startup with exit 3)."
  in
  Arg.(
    value
    & opt string Workload.canonical_family
    & info [ "family"; "f" ] ~docv:"FAMILY" ~doc)

let n_arg =
  let doc = "Approximate number of vertices." in
  Arg.(value & opt int Workload.canonical_n & info [ "n" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Generator seed." in
  Arg.(
    value & opt int Workload.canonical_seed
    & info [ "seed"; "s" ] ~docv:"SEED" ~doc)

let backend_arg =
  let doc =
    "Separator backend serving the separator/decompose/dfs queries \
     ($(b,congest) or $(b,lt-level))."
  in
  Arg.(value & opt string "congest" & info [ "backend" ] ~docv:"NAME" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for part-parallel batches; responses are bit-identical \
     for every value."
  in
  Arg.(
    value
    & opt int (Repro_util.Pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let cache_arg =
  let doc = "Result-cache capacity (entries; LRU eviction)." in
  Arg.(
    value
    & opt int Workload.canonical_cache_capacity
    & info [ "cache" ] ~docv:"N" ~doc)

let max_requests_arg =
  let doc =
    "Stop after answering $(docv) requests (safety stop for CI smoke runs)."
  in
  Arg.(
    value & opt (some int) None & info [ "max-requests" ] ~docv:"K" ~doc)

let metrics_arg =
  let doc =
    "Write the daemon's aggregated per-span trace metrics JSON to $(docv) \
     on exit (enables tracing; per-request serve.* spans included)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-metrics" ] ~docv:"FILE" ~doc)

(* A bad argument is reported before any work: one stderr line, exit 2. *)
let usage_error msg =
  prerr_endline msg;
  exit 2

let resolve_backend name =
  match Backend.lookup name with
  | Some b -> b
  | None ->
    usage_error
      (Printf.sprintf "unknown backend %s (known: %s)" name
         (String.concat ", " (List.map (fun b -> b.Backend.name) Backend.all)))

let instance_of ~family ~n ~seed =
  let emb =
    if Repro_testkit.Instance.is_hostile family then
      Repro_testkit.Instance.hostile_embedded
        { family; n; seed; spanning = Repro_tree.Spanning.Bfs }
    else if List.mem family Gen.families then Gen.by_family ~seed family ~n
    else usage_error ("unknown family " ^ family)
  in
  (emb, Embedded.graph emb)

let or_screen_reject f =
  try f ()
  with Screen.Rejected_input { entry; verdict; spec } ->
    Printf.eprintf "screen rejected at %s: %s\n  replay: %s\n" entry
      (Screen.verdict_to_string verdict)
      spec;
    exit 3

let write_text_file path contents =
  let oc = open_out path in
  output_string oc contents;
  output_char oc '\n';
  close_out oc

let main socket family n seed backend_name jobs cache metrics max_requests =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let backend = resolve_backend backend_name in
  let emb, g = instance_of ~family ~n ~seed in
  let tracer =
    if metrics <> None then Some (Trace.create ~root:"serve" ()) else None
  in
  or_screen_reject @@ fun () ->
  Repro_util.Pool.with_pool ~jobs @@ fun pool ->
  let engine = Engine.create ?tracer ~backend ~cache_capacity:cache ~pool emb in
  Printf.printf "instance : %s\nn        : %d\nm        : %d\nbackend  : %s\n"
    (Embedded.name emb) (Graph.n g) (Graph.m g) backend.Backend.name;
  let served =
    Server.run ~socket ?max_requests
      ~on_ready:(fun () -> Printf.printf "serving on %s\n%!" socket)
      engine
  in
  Printf.printf "served   : %d requests\nstats    : %s\n" served
    (Repro_trace.Json.to_string (Engine.stats_json engine));
  Option.iter
    (fun path ->
      Option.iter
        (fun tr -> write_text_file path (Trace.to_metrics_string tr))
        tracer;
      Printf.printf "metrics json : %s\n" path)
    metrics

let cmd =
  let doc = "serve DFS/separator/decomposition queries over a socket" in
  let info = Cmd.info "repro-serve" ~doc in
  Cmd.v info
    Term.(
      const main $ socket_arg $ family_arg $ n_arg $ seed_arg $ backend_arg
      $ jobs_arg $ cache_arg $ metrics_arg $ max_requests_arg)

let () = exit (Cmd.eval cmd)
