(* Deterministic fuzz runner over the testkit's oracles.

     fuzz --count 200 --seed 0
     fuzz --oracle faces,separator --families wheel,fan,star --max-size 1000
     fuzz --replay stacked:40:7:rand2 --oracle engine

   Exit codes: 0 all oracles passed, 1 some oracle failed (crash artifacts
   written), 2 bad argument (see [Cli]).  Every failure prints one replay
   line; the same line is embedded in the JSON artifact CI uploads. *)

open Cmdliner
open Repro_testkit

(* A bad argument to this runner: "fuzz: " and the message, exit 2. *)
let bad_argument fmt =
  Printf.ksprintf (fun msg -> Cli.usage_error ("fuzz: " ^ msg)) fmt

let print_list () =
  Printf.printf "oracles:\n";
  List.iter
    (fun (oc : Oracle.t) ->
      Printf.printf "  %-12s %s\n" oc.Oracle.name oc.Oracle.guards)
    Oracle.all;
  Printf.printf "families: %s\n" (String.concat ", " Instance.families);
  Printf.printf "hostile families (screen oracle only): %s\n"
    (String.concat ", " Instance.hostile_families)

let resolve_oracles = function
  | [] -> Oracle.all
  | names ->
    List.map
      (fun name ->
        try Oracle.find name with Failure msg -> bad_argument "%s" msg)
      names

let resolve_families = function
  | [] -> None
  | fs ->
    let known = Instance.families @ Instance.hostile_families in
    List.iter
      (fun f ->
        if not (List.mem f known) then
          bad_argument "unknown family %s (known: %s)" f
            (String.concat ", " known))
      fs;
    Some fs

(* Narrow the `backend' oracle to the requested separator backends. *)
let apply_backends = function
  | [] -> ()
  | bs ->
    List.iter (fun b -> ignore (Cli.backend_of_name b)) bs;
    Oracle.restrict_backends bs

(* Hostile families are only defined for the screen oracle (spanning trees
   and configurations don't exist on corrupted input), so a hostile run is
   auto-restricted to it — and an explicit non-screen oracle request over
   hostile families is a usage error, not a silent skip. *)
let restrict_for_hostile ~requested_oracles ~families oracles =
  match families with
  | Some fs when List.exists Instance.is_hostile fs ->
    let non_screen = List.filter (( <> ) "screen") requested_oracles in
    if non_screen <> [] then
      bad_argument
        "oracle %s is not defined on hostile families (only `screen' is)"
        (String.concat "," non_screen);
    (match List.filter (fun f -> not (Instance.is_hostile f)) fs with
    | [] -> ()
    | clean ->
      bad_argument "cannot mix hostile and clean families in one run (%s)"
        (String.concat "," clean));
    List.filter (fun (o : Oracle.t) -> o.Oracle.name = "screen") oracles
  | _ -> oracles

let write_artifacts dir ~seed failures =
  (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
   with Sys_error _ -> ());
  List.iteri
    (fun i f ->
      let path = Filename.concat dir (Printf.sprintf "crash-%d.json" i) in
      Cli.write_text_file path (Runner.artifact_json ~seed f);
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

let run_replay ~oracles spec_string spec =
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
let self_check ~seed ~count ~max_size =
  let threshold = 24 in
  let oracles = [ Oracle.sabotage ~threshold ] in
  let outcome =
    Runner.fuzz ~oracles ~max_size:(max max_size 48) ~max_failures:1 ~seed
      ~count ()
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

(* Every argument is checked before any case runs. *)
let main seed count max_size oracle_names families backends max_failures
    artifact_dir replay list self_check_drill verbose =
  if list then begin
    print_list ();
    exit 0
  end;
  apply_backends backends;
  let requested = resolve_oracles oracle_names in
  let families = resolve_families families in
  let replay =
    Option.map
      (fun text ->
        ( text,
          try Instance.of_string text with Failure msg -> bad_argument "%s" msg ))
      replay
  in
  let oracles =
    restrict_for_hostile ~requested_oracles:oracle_names
      ~families:
        (match replay with
        | Some (_, spec) -> Some [ spec.Instance.family ]
        | None -> families)
      requested
  in
  if self_check_drill then self_check ~seed ~count ~max_size;
  match replay with
  | Some (text, spec) -> run_replay ~oracles text spec
  | None ->
    let log line = if verbose then print_endline line in
    let outcome =
      Runner.fuzz ~oracles ?families ~max_size ~max_failures ~log ~seed ~count
        ()
    in
    Printf.printf "fuzz: %d cases, %d checks, %d failures (seed %d, oracles: %s)\n"
      outcome.Runner.cases outcome.Runner.checks
      (List.length outcome.Runner.failures)
      seed
      (String.concat "," (List.map (fun (o : Oracle.t) -> o.Oracle.name) oracles));
    if outcome.Runner.failures = [] then exit 0
    else begin
      List.iter print_failure outcome.Runner.failures;
      write_artifacts artifact_dir ~seed outcome.Runner.failures;
      exit 1
    end

(* ------------------------------------------------------------------ *)
(* Arguments                                                            *)
(* ------------------------------------------------------------------ *)

let int_opt name default ~doc =
  Arg.(value & opt int default & info [ name ] ~docv:"N" ~doc)

(* Comma lists; a repeated flag adds to the list. *)
let names_opt name ~doc =
  let split s = String.split_on_char ',' s |> List.filter (( <> ) "") in
  let names = Arg.(value & opt_all string [] & info [ name ] ~docv:"NAMES" ~doc) in
  Term.(const (List.concat_map split) $ names)

let flag names ~doc = Arg.(value & flag & info names ~doc)

let cmd =
  let term =
    Term.(
      const main
      $ int_opt "seed" 0 ~doc:"Seed of the case stream."
      $ int_opt "count" 200 ~doc:"Number of cases."
      $ int_opt "max-size" 64
          ~doc:"Size of the last case; sizes ramp up from 4."
      $ names_opt "oracle" ~doc:"Oracles to run (default: all)."
      $ names_opt "families" ~doc:"Generator families to draw from."
      $ names_opt "backend"
          ~doc:
            "Separator backends the `backend' oracle checks (default: \
             congest,lt-level)."
      $ int_opt "max-failures" 1 ~doc:"Stop after this many failures."
      $ Arg.(
          value & opt string "_fuzz"
          & info [ "artifact-dir" ] ~docv:"DIR"
              ~doc:"Directory for the JSON crash artifacts.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "replay" ] ~docv:"SPEC"
              ~doc:"Re-run the oracles on one spec (family:n:seed:spanning).")
      $ flag [ "list" ] ~doc:"Print the oracles and generator families."
      $ flag [ "self-check" ]
          ~doc:
            "Injected-bug drill: prove a planted failure is caught, shrunk \
             to the minimal size and replayable."
      $ flag [ "v"; "verbose" ] ~doc:"Log progress and failures as they come.")
  in
  Cmd.v
    (Cmd.info "fuzz" ~exits:Cli.exits
       ~doc:"deterministic fuzz runner over the testkit's oracles")
    term

let () = Cli.eval cmd
