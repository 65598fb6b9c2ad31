(* The deterministic fuzz loop.  No wall clocks, no global RNG: the case
   stream is a pure function of the seed, and every failure is reported as
   a spec string that rebuilds the exact instance (see Instance). *)

open Repro_util
open Repro_tree

type failure = {
  original : Instance.spec;
  spec : Instance.spec;
  case : int;
  shrink_steps : int;
  reports : Oracle.report list;
}

type outcome = { cases : int; checks : int; failures : failure list }

let build_failure_report exn =
  {
    Oracle.oracle = "build";
    ok = false;
    detail = "instance construction raised: " ^ Printexc.to_string exn;
    rounds = 0;
    budget = max_int;
    checks = 0;
  }

let run_spec ~oracles spec =
  match Instance.build spec with
  | exception e -> [ build_failure_report e ]
  | inst -> List.map (fun o -> Oracle.run_protected o inst) oracles

let failing ~oracles spec =
  List.filter (fun r -> not r.Oracle.ok) (run_spec ~oracles spec)

(* ------------------------------------------------------------------ *)
(* Shrinking: greedy descent through the spec space.                   *)
(* ------------------------------------------------------------------ *)

(* Candidate specs, most aggressive first.  A candidate that fails to
   build is simply not a counterexample (the generator families reject
   some sizes); [failing] never confuses that with an oracle failure
   because shrinking only accepts candidates whose failing oracles are a
   subset of the ones we started from. *)
let shrink_candidates (spec : Instance.spec) =
  let lo = Instance.min_size spec.family in
  let smaller =
    [ lo; spec.n / 2; spec.n * 2 / 3; spec.n - 8; spec.n - 1 ]
    |> List.filter (fun n -> n >= lo && n < spec.n)
    |> List.sort_uniq compare
  in
  let sizes = List.map (fun n -> { spec with n }) smaller in
  let spannings =
    match spec.spanning with
    | Spanning.Random _ ->
      [ { spec with spanning = Spanning.Dfs }; { spec with spanning = Spanning.Bfs } ]
    | Spanning.Dfs -> [ { spec with spanning = Spanning.Bfs } ]
    | Spanning.Bfs -> []
  in
  sizes @ spannings

let shrink ~oracles spec =
  let target_oracles reports =
    List.map (fun r -> r.Oracle.oracle) reports |> List.sort_uniq compare
  in
  let targets = target_oracles (failing ~oracles spec) in
  let still_fails candidate =
    let now = target_oracles (failing ~oracles candidate) in
    now <> [] && List.for_all (fun o -> List.mem o targets) now
  in
  let steps = ref 0 and fuel = ref 60 in
  let rec descend spec =
    if !fuel <= 0 then spec
    else
      match
        List.find_opt
          (fun c ->
            decr fuel;
            !fuel >= 0 && still_fails c)
          (shrink_candidates spec)
      with
      | Some smaller ->
        incr steps;
        descend smaller
      | None -> spec
  in
  let minimal = descend spec in
  (minimal, !steps)

(* ------------------------------------------------------------------ *)
(* The fuzz loop.                                                      *)
(* ------------------------------------------------------------------ *)

let pp_report fmt (r : Oracle.report) =
  Format.fprintf fmt "[%s] %s (%d checks" r.Oracle.oracle r.Oracle.detail
    r.Oracle.checks;
  if r.Oracle.budget <> max_int then
    Format.fprintf fmt ", %d/%d rounds" r.Oracle.rounds r.Oracle.budget;
  Format.fprintf fmt ")"

let repro_line f =
  let oracle =
    match f.reports with
    | [ r ] -> Printf.sprintf " --oracle %s" r.Oracle.oracle
    | _ -> ""
  in
  Printf.sprintf "bin/fuzz --replay %s%s" (Instance.to_string f.spec) oracle

let artifact_json ~seed f =
  let open Repro_trace.Json in
  let report_json (r : Oracle.report) =
    Obj
      [
        ("oracle", String r.Oracle.oracle);
        ("ok", Bool r.Oracle.ok);
        ("detail", String r.Oracle.detail);
        ("rounds", Int r.Oracle.rounds);
        ("budget", if r.Oracle.budget = max_int then Null else Int r.Oracle.budget);
        ("checks", Int r.Oracle.checks);
      ]
  in
  to_string
    (Obj
       [
         ("fuzz_seed", Int seed);
         ("case", Int f.case);
         ("original", String (Instance.to_string f.original));
         ("shrunk", String (Instance.to_string f.spec));
         ("shrink_steps", Int f.shrink_steps);
         ("replay", String (repro_line f));
         ("reports", List (List.map report_json f.reports));
       ])

let fuzz ?oracles ?families ?(max_size = 64) ?(max_failures = 1)
    ?(log = fun _ -> ()) ~seed ~count () =
  let oracles = match oracles with Some os -> os | None -> Oracle.all in
  let rng = Rng.create seed in
  let cases = ref 0 and checks = ref 0 in
  let failures = ref [] in
  (let exception Stop in
   try
     for i = 0 to count - 1 do
       (* Size ramp: start tiny (boundary cases), end at max_size. *)
       let size =
         if count <= 1 then max_size
         else 4 + ((max_size - 4) * i / (count - 1))
       in
       let spec = Generator.spec ?families ~size rng in
       let reports = run_spec ~oracles spec in
       incr cases;
       List.iter (fun r -> checks := !checks + r.Oracle.checks) reports;
       let bad = List.filter (fun r -> not r.Oracle.ok) reports in
       if bad <> [] then begin
         log
           (Printf.sprintf "case %d FAILED: %s — shrinking..." i
              (Instance.to_string spec));
         let shrunk, steps = shrink ~oracles spec in
         let f =
           {
             original = spec;
             spec = shrunk;
             case = i;
             shrink_steps = steps;
             reports = failing ~oracles shrunk;
           }
         in
         failures := f :: !failures;
         if List.length !failures >= max_failures then raise Stop
       end
       else if i > 0 && i mod 50 = 0 then
         log (Printf.sprintf "case %d/%d ok (%d checks so far)" i count !checks)
     done
   with Stop -> ());
  { cases = !cases; checks = !checks; failures = List.rev !failures }
