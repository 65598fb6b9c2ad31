(* The argument rules shared by repro (main), serve and fuzz: the common
   cmdliner terms, the instance loader and the exit codes ([exits]).  A
   bad argument exits 2 with one stderr line, before any work. *)

open Cmdliner
open Repro_embedding
open Repro_core

let usage_error msg =
  prerr_endline msg;
  exit 2

(* ------------------------------------------------------------------ *)
(* Common terms                                                         *)
(* ------------------------------------------------------------------ *)

let family ~default =
  let doc =
    "Graph family (grid, tgrid, stacked, thinned, cycle, fan, rtree, path, \
     star, wheel; hostile testkit families xchords1/xchords4/xchords16, \
     xrot, xunion build corrupted embeddings the screen layer rejects with \
     exit 3)."
  in
  Arg.(value & opt string default & info [ "family"; "f" ] ~docv:"FAMILY" ~doc)

let n ~default =
  let doc = "Approximate number of vertices." in
  Arg.(value & opt int default & info [ "n" ] ~docv:"N" ~doc)

let seed ~default =
  let doc = "Generator seed." in
  Arg.(value & opt int default & info [ "seed"; "s" ] ~docv:"SEED" ~doc)

let backend =
  let doc =
    "Separator backend: $(b,congest) (the distributed six-phase algorithm) \
     or $(b,lt-level) (centralized BFS level)."
  in
  Arg.(value & opt string "congest" & info [ "backend" ] ~docv:"NAME" ~doc)

let jobs =
  let doc =
    "Worker domains for part-parallel batches.  Defaults to \
     Domain.recommended_domain_count (), i.e. one per hardware thread; the \
     flat graph store is shared read-only across domains.  Output is \
     bit-identical for every value; 1 runs fully sequentially."
  in
  Arg.(
    value
    & opt int (Repro_util.Pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let trace_metrics =
  let doc =
    "Write the run's aggregated per-span trace metrics JSON to $(docv) (the \
     daemon writes it on exit, per-request serve.* spans included)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-metrics" ] ~docv:"FILE" ~doc)

(* ------------------------------------------------------------------ *)
(* Shared rules                                                         *)
(* ------------------------------------------------------------------ *)

let backend_of_name name =
  match Backend.lookup name with
  | Some b -> b
  | None ->
    usage_error
      (Printf.sprintf "unknown backend %s (known: %s)" name
         (String.concat ", " (List.map (fun b -> b.Backend.name) Backend.all)))

(* A clean generator family, or a hostile testkit family whose corrupted
   embedding the screen is there to reject.  No diameter: the daemon's
   engine computes its own. *)
let generated ~family ~n ~seed =
  if Repro_testkit.Instance.is_hostile family then
    Repro_testkit.Instance.hostile_embedded
      { family; n; seed; spanning = Repro_tree.Spanning.Bfs }
  else if List.mem family Gen.families then Gen.by_family ~seed family ~n
  else usage_error ("unknown family " ^ family)

(* Screen rejections exit 3 with the verdict and a replay spec on stderr —
   the hostile-input contract: a typed front-door error, never a deep-phase
   crash. *)
let or_screen_reject f =
  try f ()
  with Screen.Rejected_input { entry; verdict; spec } ->
    Printf.eprintf "screen rejected at %s: %s\n  replay: %s\n" entry
      (Screen.verdict_to_string verdict)
      spec;
    exit 3

(* Every command's exit codes, as its manual lists them. *)
let exits =
  Cmd.Exit.
    [
      info 0 ~doc:"on success.";
      info 1 ~doc:"when a result or an oracle fails its check.";
      info 2 ~doc:"on a bad argument, reported on one stderr line.";
      info 3 ~doc:"when the screen rejects the input embedding.";
      info internal_error ~doc:"on unexpected internal errors (bugs).";
    ]

let write_text_file path contents =
  let oc = open_out path in
  output_string oc contents;
  output_char oc '\n';
  close_out oc

(* Cmdliner reports its own parse errors (a malformed value, an unknown
   option or command) on three lines with exit 124; here they keep only
   the first line and exit 2, like every other bad argument. *)
let eval cmd =
  let buf = Buffer.create 256 in
  let err = Format.formatter_of_buffer buf in
  let result = Cmd.eval_value ~err cmd in
  Format.pp_print_flush err ();
  match result with
  | Ok (`Ok () | `Version | `Help) -> exit 0
  | Error (`Parse | `Term) ->
    usage_error (List.hd (String.split_on_char '\n' (Buffer.contents buf)))
  | Error `Exn ->
    prerr_string (Buffer.contents buf);
    exit Cmd.Exit.internal_error
