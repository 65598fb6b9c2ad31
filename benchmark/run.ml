(* The repository's benchmark: four workloads, each checked, each timed
   end to end with tracing off, and again with layer timers on.

     run.exe --seed S [--trace 1] [--out FILE]        all four, one child each
     run.exe --workload W --seed S --seconds T --trace 0|1
     run.exe --smoke --schema BENCHMARK.json          tier-1 guard
     run.exe --self-check                             injected-fault drill

   A single-workload run prints one line per metric
   ([<workload> <metric> <value> <unit>]) and, as its last line, the
   result object {correct, attempted, failed, metrics}; it exits 1 when
   an output was wrong.  See benchmark/README.md. *)

module Json = Repro_trace.Json

let workloads = [ "dfs-stacked"; "decomp-tgrid"; "serve-hit"; "serve-miss" ]

(* Input sizes, and how many graphs a batch run solves and how many
   daemon starts a served run times; smoke sizes keep the tier-1 guard
   short. *)
type sizes = {
  stacked_n : int;
  tgrid_n : int;
  graphs : int;
  miss_pool : int;
  starts : int;
}

let full =
  {
    stacked_n = 15_000;
    tgrid_n = 20_000;
    graphs = 12;
    miss_pool = 1024;
    starts = 9;
  }

let smoke =
  { stacked_n = 1_000; tgrid_n = 1_000; graphs = 2; miss_pool = 100; starts = 1 }
let smoke_seconds = 0.1

(* Where a full set files its JSON unless --out says otherwise. *)
let results_dir = "benchmark-results"

let run_workload ~workload ~seed ~seconds ~trace ~sizes ~corrupt =
  let r = Common.report ~corrupt workload in
  (match workload with
  | "dfs-stacked" ->
    Batch.dfs r ~trace ~seconds ~seed ~n:sizes.stacked_n ~graphs:sizes.graphs
  | "decomp-tgrid" ->
    Batch.decomp r ~trace ~seconds ~seed ~n:sizes.tgrid_n ~graphs:sizes.graphs
  | "serve-hit" -> Served.hit r ~trace ~seconds ~seed ~starts:sizes.starts
  | "serve-miss" ->
    Served.miss r ~trace ~seconds ~seed ~pool:sizes.miss_pool ~starts:sizes.starts
  | w ->
    Printf.eprintf "unknown workload %s (known: %s)\n" w
      (String.concat ", " workloads);
    exit 2);
  Common.emit r;
  exit (if r.Common.failed = 0 then 0 else 1)

(* ------------------------------------------------------------------ *)
(* A set: every workload in its own child process                       *)
(* ------------------------------------------------------------------ *)

type child = {
  status : int;  (** exit code; 255 when killed *)
  result : Json.t option;  (** the last output line, when it parses *)
  lines : (string * float * string) list;  (** every metric line *)
}

let run_child ~echo args =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> acc
  in
  let out = read [] in
  close_in ic;
  let status =
    match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> 255
  in
  let result =
    match out with
    | last :: _ -> (try Some (Json.of_string last) with Failure _ -> None)
    | [] -> None
  in
  let lines =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ _; name; v; unit ] ->
          Option.map (fun v -> (name, v, unit)) (float_of_string_opt v)
        | _ -> None)
      (List.rev out)
  in
  (match out with
  | _ :: before when echo -> List.iter print_endline (List.rev before)
  | _ -> ());
  { status; result; lines }

let child_args ~workload ~seed ~seconds ~trace ~smoke:s ~corrupt =
  [
    "--workload"; workload;
    "--seed"; string_of_int seed;
    "--seconds"; Printf.sprintf "%g" seconds;
    "--trace"; (if trace then "1" else "0");
  ]
  @ (if s then [ "--smoke" ] else [])
  @ if corrupt then [ "--corrupt" ] else []

let result_field k c = Option.bind c.result (Json.member k)

(* (name, unit) of every metric in a result or a BENCHMARK.json list,
   sorted. *)
let named_units l =
  List.sort compare
    (List.map
       (fun (name, m) ->
         ( name,
           match Json.member "unit" m with Some (Json.String u) -> u | _ -> "?" ))
       l)

let printed c =
  match result_field "metrics" c with
  | Some (Json.Obj l) -> named_units l
  | _ -> []

(* What BENCHMARK.json promises for the traced or untraced run. *)
let promised path ~trace =
  let ic = open_in_bin path in
  let doc = Json.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  match Json.member (if trace then "per_layer" else "end_to_end") doc with
  | Some (Json.List l) ->
    named_units
      (List.map
         (fun m ->
           match Json.member "name" m with
           | Some (Json.String s) -> (s, m)
           | _ -> failwith (path ^ ": a metric without a name"))
         l)
  | _ -> failwith (path ^ ": no metric list")

let show l = String.concat " " (List.map (fun (n, u) -> n ^ ":" ^ u) l)

let run_set ~seed ~seconds ~traces ~smoke:s ~schema ~out =
  let ok = ref true in
  let entries =
    List.concat_map
      (fun trace ->
        List.map
          (fun workload ->
            let c =
              run_child ~echo:(not s)
                (child_args ~workload ~seed ~seconds ~trace ~smoke:s
                   ~corrupt:false)
            in
            if s then
              Printf.printf "smoke %s%s: exit %d\n%!" workload
                (if trace then " --trace 1" else "") c.status;
            if c.status <> 0 || result_field "correct" c <> Some (Json.Bool true)
            then begin
              Printf.eprintf "%s%s: failed (exit %d)\n" workload
                (if trace then " --trace 1" else "") c.status;
              ok := false
            end;
            Option.iter
              (fun path ->
                let want = promised path ~trace in
                if printed c <> want then begin
                  Printf.eprintf
                    "%s%s: metrics differ from %s\n  printed: %s\n  listed:  %s\n"
                    workload (if trace then " --trace 1" else "") path
                    (show (printed c)) (show want);
                  ok := false
                end)
              schema;
            let field k = Option.value (result_field k c) ~default:Json.Null in
            ( (workload ^ if trace then "+trace" else ""),
              Json.Obj
                [
                  ("workload", Json.String workload);
                  ("trace", Json.Bool trace);
                  ("correct", field "correct");
                  ("attempted", field "attempted");
                  ("failed", field "failed");
                  ( "metrics",
                    Json.Obj
                      (List.map
                         (fun (name, v, unit) ->
                           ( name,
                             Json.Obj
                               [
                                 ("value", Json.Float v);
                                 ("unit", Json.String unit);
                               ] ))
                         c.lines) );
                ] ))
          workloads)
      traces
  in
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("seed", Json.Int seed);
                ("seconds", Json.Float seconds);
                ("runs", Json.Obj entries);
              ]));
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" path)
    out;
  exit (if !ok then 0 else 1)

(* Break one output of each workload and demand that the run reports it
   and exits non-zero. *)
let self_check () =
  let ok = ref true in
  List.iter
    (fun workload ->
      let c =
        run_child ~echo:false
          (child_args ~workload ~seed:1 ~seconds:smoke_seconds ~trace:false
             ~smoke:true ~corrupt:true)
      in
      let failed =
        match result_field "failed" c with Some (Json.Int k) -> k | _ -> 0
      in
      let caught = failed > 0 && c.status <> 0 in
      Printf.printf "self-check %s: %s (failed %d, exit %d)\n" workload
        (if caught then "caught" else "MISSED") failed c.status;
      if not caught then ok := false)
    workloads;
  exit (if !ok then 0 else 1)

let usage () =
  prerr_endline
    "usage: run.exe [--workload W] [--seed S] [--seconds T] [--trace 0|1] \
     [--smoke] [--schema FILE] [--out FILE] | --self-check";
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref None in
  let trace = ref None and smoke_mode = ref false and corrupt = ref false in
  let schema = ref None and out = ref None and drill = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      workload := Some w;
      parse rest
    | "--seed" :: s :: rest ->
      seed := (match int_of_string_opt s with Some v -> v | None -> usage ());
      parse rest
    | "--seconds" :: s :: rest ->
      (seconds :=
         match float_of_string_opt s with
         | Some v when v > 0.0 -> Some v
         | _ -> usage ());
      parse rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
      trace := Some (t = "1");
      parse rest
    | "--smoke" :: rest ->
      smoke_mode := true;
      parse rest
    | "--corrupt" :: rest ->
      corrupt := true;
      parse rest
    | "--schema" :: f :: rest ->
      schema := Some f;
      parse rest
    | "--out" :: f :: rest ->
      out := Some f;
      parse rest
    | "--self-check" :: rest ->
      drill := true;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let sizes = if !smoke_mode then smoke else full in
  if !smoke_mode then Common.probe_scale := 0.01;
  let seconds =
    match !seconds with
    | Some s -> s
    | None -> if !smoke_mode then smoke_seconds else 20.0
  in
  if !drill then self_check ()
  else
    match !workload with
    | Some workload ->
      run_workload ~workload ~seed:!seed ~seconds
        ~trace:(Option.value !trace ~default:false) ~sizes ~corrupt:!corrupt
    | None ->
      (* A smoke set checks both metric lists; a full set runs one. *)
      let traces =
        match !trace with
        | Some t -> [ t ]
        | None -> if !smoke_mode then [ false; true ] else [ false ]
      in
      let out =
        match !out with
        | Some f -> Some f
        | None when !smoke_mode -> None
        | None ->
          (try Unix.mkdir results_dir 0o755
           with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
          Some
            (Printf.sprintf "%s/seed%d%s.json" results_dir !seed
               (if traces = [ true ] then "-trace" else ""))
      in
      run_set ~seed:!seed ~seconds ~traces ~smoke:!smoke_mode ~schema:!schema
        ~out
