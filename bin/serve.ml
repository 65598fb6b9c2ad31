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

let main socket family n seed backend_name jobs cache metrics max_requests =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let backend = Cli.backend_of_name backend_name in
  let emb = Cli.generated ~family ~n ~seed in
  let g = Embedded.graph emb in
  let tracer =
    if metrics <> None then Some (Trace.create ~root:"serve" ()) else None
  in
  Cli.or_screen_reject @@ fun () ->
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
        (fun tr -> Cli.write_text_file path (Trace.to_metrics_string tr))
        tracer;
      Printf.printf "metrics json : %s\n" path)
    metrics

let cmd =
  let doc = "serve DFS/separator/decomposition queries over a socket" in
  let info = Cmd.info "repro-serve" ~exits:Cli.exits ~doc in
  Cmd.v info
    Term.(
      const main $ socket_arg
      $ Cli.family ~default:Workload.canonical_family
      $ Cli.n ~default:Workload.canonical_n
      $ Cli.seed ~default:Workload.canonical_seed
      $ Cli.backend $ Cli.jobs $ cache_arg $ Cli.trace_metrics
      $ max_requests_arg)

let () = Cli.eval cmd
