(* Deterministic fuzz runner over the testkit's oracle registry.

   Usage:
     fuzz [--seed N] [--count N] [--max-size N] [--oracle NAME[,NAME..]]
          [--families F[,F..]] [--backend NAME[,NAME..]] [--max-failures N]
          [--artifact-dir DIR] [--replay SPEC] [--list] [--self-check] [-v]

   Exit codes: 0 all oracles passed, 1 some oracle failed (crash artifacts
   written), 2 usage error.  Every failure prints one replay line; the
   same line is embedded in the JSON artifact CI uploads. *)

open Repro_testkit

let usage () =
  prerr_endline
    "usage: fuzz [--seed N] [--count N] [--max-size N] [--oracle NAMES]\n\
    \            [--families NAMES] [--backend NAMES] [--max-failures N]\n\
    \            [--artifact-dir DIR] [--replay SPEC] [--list] [--self-check]\n\
    \            [-v]\n\n\
     --list       print the registered oracles and generator families\n\
     --backend    separator backends the `backend' oracle checks\n\
    \             (default: congest,lt-level)\n\
     --replay     re-run the oracles on one spec (family:n:seed:spanning)\n\
     --self-check injected-bug drill: prove a planted failure is caught,\n\
    \             shrunk to the minimal size and replayable";
  exit 2

let split_commas s = String.split_on_char ',' s |> List.filter (( <> ) "")

type opts = {
  mutable seed : int;
  mutable count : int;
  mutable max_size : int;
  mutable oracles : string list;
  mutable families : string list;
  mutable backends : string list;
  mutable max_failures : int;
  mutable artifact_dir : string;
  mutable replay : string option;
  mutable self_check : bool;
  mutable verbose : bool;
}

let parse_args () =
  let o =
    {
      seed = 0;
      count = 200;
      max_size = 64;
      oracles = [];
      families = [];
      backends = [];
      max_failures = 1;
      artifact_dir = "_fuzz";
      replay = None;
      self_check = false;
      verbose = false;
    }
  in
  let args = Array.to_list Sys.argv |> List.tl in
  let int_arg name v =
    match int_of_string_opt v with
    | Some i -> i
    | None ->
      Printf.eprintf "fuzz: %s expects an integer, got %s\n" name v;
      exit 2
  in
  let rec go = function
    | [] -> ()
    | "--seed" :: v :: rest ->
      o.seed <- int_arg "--seed" v;
      go rest
    | "--count" :: v :: rest ->
      o.count <- int_arg "--count" v;
      go rest
    | "--max-size" :: v :: rest ->
      o.max_size <- int_arg "--max-size" v;
      go rest
    | "--max-failures" :: v :: rest ->
      o.max_failures <- int_arg "--max-failures" v;
      go rest
    | "--oracle" :: v :: rest ->
      o.oracles <- o.oracles @ split_commas v;
      go rest
    | "--families" :: v :: rest ->
      o.families <- o.families @ split_commas v;
      go rest
    | "--backend" :: v :: rest ->
      o.backends <- o.backends @ split_commas v;
      go rest
    | "--artifact-dir" :: v :: rest ->
      o.artifact_dir <- v;
      go rest
    | "--replay" :: v :: rest ->
      o.replay <- Some v;
      go rest
    | "--list" :: _ ->
      Printf.printf "oracles:\n";
      List.iter
        (fun (oc : Oracle.t) ->
          Printf.printf "  %-12s %s\n" oc.Oracle.name oc.Oracle.guards)
        (Oracle.all ());
      Printf.printf "families: %s\n" (String.concat ", " Instance.families);
      Printf.printf "hostile families (screen oracle only): %s\n"
        (String.concat ", " Instance.hostile_families);
      exit 0
    | "--self-check" :: rest ->
      o.self_check <- true;
      go rest
    | "-v" :: rest | "--verbose" :: rest ->
      o.verbose <- true;
      go rest
    | ("--help" | "-h") :: _ -> usage ()
    | a :: _ ->
      Printf.eprintf "fuzz: unknown argument %s\n" a;
      usage ()
  in
  go args;
  o

let resolve_oracles names =
  match names with [] -> None | ns -> Some (List.map Oracle.find ns)

(* Narrow the `backend' oracle to the requested separator backends (after
   validating their names). *)
let apply_backends = function
  | [] -> ()
  | bs ->
    let known =
      List.map (fun b -> b.Repro_core.Backend.name) Repro_core.Backend.all
    in
    List.iter
      (fun b ->
        if not (List.mem b known) then begin
          Printf.eprintf "fuzz: unknown backend %s (known: %s)\n" b
            (String.concat ", " known);
          exit 2
        end)
      bs;
    Oracle.restrict_backends bs

let resolve_families = function
  | [] -> None
  | fs ->
    let known = Instance.families @ Instance.hostile_families in
    List.iter
      (fun f ->
        if not (List.mem f known) then begin
          Printf.eprintf "fuzz: unknown family %s (known: %s)\n" f
            (String.concat ", " known);
          exit 2
        end)
      fs;
    Some fs

(* Hostile families are only defined for the screen oracle (spanning trees
   and configurations don't exist on corrupted input), so a hostile run is
   auto-restricted to it — and an explicit non-screen oracle request over
   hostile families is a usage error, not a silent skip. *)
let restrict_for_hostile ~requested_oracles ~families oracles =
  match families with
  | Some fs when List.exists Instance.is_hostile fs ->
    let non_screen = List.filter (( <> ) "screen") requested_oracles in
    if non_screen <> [] then begin
      Printf.eprintf
        "fuzz: oracle %s is not defined on hostile families (only `screen' \
         is)\n"
        (String.concat "," non_screen);
      exit 2
    end;
    (match List.filter (fun f -> not (Instance.is_hostile f)) fs with
    | [] -> ()
    | clean ->
      Printf.eprintf
        "fuzz: cannot mix hostile and clean families in one run (%s)\n"
        (String.concat "," clean);
      exit 2);
    List.filter (fun (o : Oracle.t) -> o.Oracle.name = "screen") oracles
  | _ -> oracles

let write_artifacts dir ~seed failures =
  (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
   with Sys_error _ -> ());
  List.iteri
    (fun i f ->
      let path = Filename.concat dir (Printf.sprintf "crash-%d.json" i) in
      let oc = open_out path in
      output_string oc (Runner.artifact_json ~seed f);
      output_char oc '\n';
      close_out oc;
      Printf.printf "artifact: %s\n" path)
    failures

let print_failure (f : Runner.failure) =
  Printf.printf "FAILED %s (case %d, shrunk from %s in %d steps)\n"
    (Instance.to_string f.Runner.spec)
    f.Runner.case
    (Instance.to_string f.Runner.original)
    f.Runner.shrink_steps;
  List.iter
    (fun r -> Format.printf "  %a@." Runner.pp_report r)
    f.Runner.reports;
  Printf.printf "  replay: %s\n" (Runner.repro_line f)

let replay opts spec_string =
  let spec =
    try Instance.of_string spec_string
    with Failure msg ->
      prerr_endline ("fuzz: " ^ msg);
      exit 2
  in
  let oracles =
    match resolve_oracles opts.oracles with
    | Some os -> os
    | None -> Oracle.all ()
  in
  let oracles =
    restrict_for_hostile ~requested_oracles:opts.oracles
      ~families:(Some [ spec.Instance.family ])
      oracles
  in
  let reports = Runner.run_spec ~oracles spec in
  List.iter (fun r -> Format.printf "%a@." Runner.pp_report r) reports;
  if List.for_all (fun r -> r.Oracle.ok) reports then begin
    Printf.printf "replay %s: ok\n" spec_string;
    exit 0
  end
  else begin
    Printf.printf "replay %s: FAILED\n" spec_string;
    exit 1
  end

(* The injected-bug drill (the acceptance criterion made executable): a
   deliberately broken oracle must be caught by the fuzz loop, shrunk to
   the smallest instance the generator can express above the planted
   threshold, and its repro line must replay to the same failure. *)
let self_check opts =
  let threshold = 24 in
  let oracles = [ Oracle.sabotage ~threshold ] in
  let outcome =
    Runner.fuzz ~oracles ~max_size:(max opts.max_size 48) ~max_failures:1
      ~seed:opts.seed ~count:opts.count ()
  in
  match outcome.Runner.failures with
  | [] ->
    Printf.printf "self-check: planted bug NOT caught in %d cases\n"
      outcome.Runner.cases;
    exit 1
  | f :: _ ->
    print_failure f;
    let shrunk_n = f.Runner.spec.Instance.n in
    let minimal = shrunk_n < threshold + 16 in
    let replayed =
      Runner.failing ~oracles f.Runner.spec
      |> List.exists (fun r -> r.Oracle.oracle = "sabotage")
    in
    Printf.printf "self-check: caught=yes shrunk-to-n=%d minimal=%s replays=%s\n"
      shrunk_n
      (if minimal then "yes" else "NO")
      (if replayed then "yes" else "NO");
    if minimal && replayed then begin
      Printf.printf "self-check: ok\n";
      exit 0
    end
    else exit 1

let () =
  let opts = parse_args () in
  apply_backends opts.backends;
  if opts.self_check then self_check opts;
  match opts.replay with
  | Some spec -> replay opts spec
  | None ->
    let oracles =
      match resolve_oracles opts.oracles with
      | Some os -> os
      | None -> Oracle.all ()
    in
    let families = resolve_families opts.families in
    let oracles =
      restrict_for_hostile ~requested_oracles:opts.oracles ~families oracles
    in
    let log line = if opts.verbose then print_endline line in
    let outcome =
      Runner.fuzz ~oracles ?families ~max_size:opts.max_size
        ~max_failures:opts.max_failures ~log ~seed:opts.seed
        ~count:opts.count ()
    in
    Printf.printf "fuzz: %d cases, %d checks, %d failures (seed %d, oracles: %s)\n"
      outcome.Runner.cases outcome.Runner.checks
      (List.length outcome.Runner.failures)
      opts.seed
      (String.concat "," (List.map (fun (o : Oracle.t) -> o.Oracle.name) oracles));
    if outcome.Runner.failures = [] then exit 0
    else begin
      List.iter print_failure outcome.Runner.failures;
      write_artifacts opts.artifact_dir ~seed:opts.seed outcome.Runner.failures;
      exit 1
    end
