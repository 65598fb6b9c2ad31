(* The tracing subsystem: span-tree well-formedness, disabled-mode no-op,
   jobs=N determinism and the Chrome-trace/metrics JSON exporters. *)

open Repro_embedding
open Repro_congest
open Repro_core
module Trace = Repro_trace.Trace
module Json = Repro_trace.Json

let traced_dfs ?(jobs = 1) ?seed ~n () =
  let seed = Option.value ~default:1 seed in
  let emb = Gen.by_family ~seed "tgrid" ~n in
  let g = Embedded.graph emb in
  let tracer = Trace.create () in
  let rounds =
    Rounds.create ~trace:tracer ~n:(Repro_graph.Graph.n g)
      ~d:(Repro_graph.Algo.diameter g) ()
  in
  let r =
    Repro_util.Pool.with_pool ~seq_grain:0 ~jobs (fun pool ->
        Dfs.run ~rounds ~pool emb ~root:(Embedded.outer emb))
  in
  (tracer, rounds, r)

(* --- well-formedness ------------------------------------------------- *)

let rec check_span (s : Trace.span) =
  Alcotest.(check bool)
    (Printf.sprintf "span %s: self counters non-negative" s.Trace.name)
    true
    (s.Trace.self.Trace.charged >= 0.0
    && s.Trace.self.Trace.charges >= 0
    && s.Trace.self.Trace.pa_units >= 0
    && s.Trace.self.Trace.tasks >= 0);
  (* totals = self + sum(children totals): children never exceed the
     parent on any counter. *)
  let tot = Trace.totals s in
  let kids_charged =
    List.fold_left
      (fun acc c -> acc +. (Trace.totals c).Trace.charged)
      0.0 s.Trace.children
  in
  Alcotest.(check bool)
    (Printf.sprintf "span %s: children charged <= total" s.Trace.name)
    true
    (kids_charged <= tot.Trace.charged +. 1e-6);
  List.iter check_span s.Trace.children

let test_well_formed () =
  let tracer, rounds, r = traced_dfs ~n:200 () in
  Alcotest.(check bool) "dfs valid" true (r.Dfs.phases > 0);
  (* Balanced: every enter was left. *)
  Alcotest.(check int) "stack depth back to root" 1 (Trace.depth tracer);
  check_span (Trace.root tracer);
  (* Attribution completeness: every charged round landed in some span. *)
  let tot = Trace.totals (Trace.root tracer) in
  let total = Rounds.total rounds in
  Alcotest.(check bool)
    (Printf.sprintf "charged attribution complete (%.1f vs %.1f)"
       tot.Trace.charged total)
    true
    (Float.abs (tot.Trace.charged -. total) <= 1e-6 *. Float.max 1.0 total)

let test_unbalanced_leave_rejected () =
  let t = Trace.create () in
  Alcotest.check_raises "cannot close the root"
    (Invalid_argument "Trace.leave: root span cannot be closed") (fun () ->
      Trace.leave t);
  Trace.enter t "child";
  Trace.leave t;
  Alcotest.(check int) "balanced again" 1 (Trace.depth t)

(* --- disabled mode is a no-op ---------------------------------------- *)

let test_disabled_mode_identical () =
  let emb = Gen.by_family ~seed:3 "stacked" ~n:120 in
  let g = Embedded.graph emb in
  let n = Repro_graph.Graph.n g and d = Repro_graph.Algo.diameter g in
  let run trace =
    let rounds = Rounds.create ?trace ~n ~d () in
    let r = Dfs.run ~rounds emb ~root:(Embedded.outer emb) in
    (r, rounds)
  in
  let r_off, rounds_off = run None in
  let r_on, rounds_on = run (Some (Trace.create ())) in
  Alcotest.(check (array int)) "parent identical" r_off.Dfs.parent r_on.Dfs.parent;
  Alcotest.(check (array int)) "depth identical" r_off.Dfs.depth r_on.Dfs.depth;
  Alcotest.(check int) "phases identical" r_off.Dfs.phases r_on.Dfs.phases;
  Alcotest.(check (float 0.0))
    "charged total identical" (Rounds.total rounds_off) (Rounds.total rounds_on);
  Alcotest.(check int) "invocations identical" (Rounds.invocations rounds_off)
    (Rounds.invocations rounds_on)

(* --- merge: sibling spans with equal names, at every depth ------------ *)

(* run > A > (B > (C, D), E) and run > A > (B > C, F), then G: the two B
   spans merge under the merged A, and so do their C children. *)
let nested_trace () =
  let t = Trace.create () in
  let span name body = Trace.with_span t name body in
  let leaf name = span name (fun () -> Trace.note_charge t ~pa_units:0 1.0) in
  span "A" (fun () ->
      span "B" (fun () ->
          leaf "C";
          leaf "D");
      leaf "E");
  span "A" (fun () ->
      span "B" (fun () -> leaf "C");
      leaf "F");
  leaf "G";
  t

(* (depth, name, count) per node, in the order printed. *)
let expected_merge =
  [
    (0, "run", 1);
    (1, "A", 2);
    (2, "B", 2);
    (3, "C", 2);
    (3, "D", 1);
    (2, "E", 1);
    (2, "F", 1);
    (1, "G", 1);
  ]

let test_merge_every_depth () =
  let t = nested_trace () in
  let rec nodes depth j =
    let str key = match Json.member key j with Some (Json.String s) -> s | _ -> "" in
    let count = match Json.member "count" j with Some (Json.Int c) -> c | _ -> 0 in
    let kids = match Json.member "children" j with Some (Json.List l) -> l | _ -> [] in
    (depth, str "name", count, j) :: List.concat_map (nodes (depth + 1)) kids
  in
  let metrics = nodes 0 (Trace.to_metrics t) in
  Alcotest.(check (list (triple int string int)))
    "metrics: one node per name and depth, first-occurrence order" expected_merge
    (List.map (fun (d, name, count, _) -> (d, name, count)) metrics);
  let charged_c =
    List.filter_map
      (fun (_, name, _, j) ->
        if name = "C" then Json.member "charged_rounds" j else None)
      metrics
  in
  Alcotest.(check bool) "merged C carries both charges" true
    (charged_c = [ Json.Float 2.0 ]);
  (* The summary prints the same tree: indentation is two spaces a level,
     and a merged span shows its count as "xN". *)
  let lines =
    Format.asprintf "%a" Trace.pp t
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
    |> List.map (fun line ->
           let indent = ref 0 in
           while line.[!indent] = ' ' do
             incr indent
           done;
           let depth = !indent / 2 in
           match String.split_on_char ' ' line |> List.filter (( <> ) "") with
           | name :: count :: _ when count.[0] = 'x' ->
             (depth, name, int_of_string (String.sub count 1 (String.length count - 1)))
           | name :: _ -> (depth, name, 1)
           | [] -> (depth, "", 0))
  in
  Alcotest.(check (list (triple int string int)))
    "pp: one line per name and depth, first-occurrence order" expected_merge lines

(* --- jobs determinism ------------------------------------------------ *)

let test_jobs_deterministic () =
  let t1, _, r1 = traced_dfs ~jobs:1 ~n:250 () in
  let t4, _, r4 = traced_dfs ~jobs:4 ~n:250 () in
  Alcotest.(check (array int)) "outputs identical" r1.Dfs.parent r4.Dfs.parent;
  Alcotest.(check string) "metrics bit-identical" (Trace.to_metrics_string t1)
    (Trace.to_metrics_string t4);
  Alcotest.(check string) "chrome trace bit-identical"
    (Trace.to_chrome_string t1) (Trace.to_chrome_string t4)

(* --- exporters ------------------------------------------------------- *)

let span_names chrome =
  match Json.member "traceEvents" chrome with
  | Some (Json.List events) ->
    List.filter_map
      (fun e ->
        match Json.member "name" e with
        | Some (Json.String s) -> Some s
        | _ -> None)
      events
  | _ -> []

let test_chrome_schema_and_roundtrip () =
  let tracer, _, _ = traced_dfs ~n:200 () in
  let chrome = Trace.to_chrome tracer in
  (* Round trip through our own printer/parser is lossless. *)
  Alcotest.(check bool) "chrome JSON round-trips" true
    (Json.equal (Json.of_string (Json.to_string chrome)) chrome);
  let metrics = Trace.to_metrics tracer in
  Alcotest.(check bool) "metrics JSON round-trips" true
    (Json.equal (Json.of_string (Json.to_string metrics)) metrics);
  (* Schema: complete events with the virtual time axis declared. *)
  (match Json.member "traceEvents" chrome with
  | Some (Json.List events) ->
    Alcotest.(check bool) "has events" true (events <> []);
    List.iter
      (fun e ->
        Alcotest.(check bool) "ph is X" true
          (Json.member "ph" e = Some (Json.String "X"));
        Alcotest.(check bool) "has ts/dur" true
          (match (Json.member "ts" e, Json.member "dur" e) with
          | Some (Json.Float _), Some (Json.Float _) -> true
          | _ -> false))
      events
  | _ -> Alcotest.fail "no traceEvents list");
  (* The spans cover the run, the DFS recursion levels and the separator
     phases the instance exercised. *)
  let names = span_names chrome in
  let mem n = List.mem n names in
  Alcotest.(check bool) "root span present" true (mem "run");
  Alcotest.(check bool) "recursion level spans present" true (mem "dfs.phase1");
  Alcotest.(check bool) "separator precompute span present" true
    (mem "sep.phase1-precompute");
  Alcotest.(check bool) "verification span present" true (mem "sep.verify")

let test_json_codec_int_float_distinct () =
  let doc =
    Json.Obj
      [
        ("i", Json.Int 3);
        ("f", Json.Float 3.0);
        ("pi", Json.Float 3.141592653589793);
        ("s", Json.String "a\"b\\c\n");
        ("l", Json.List [ Json.Null; Json.Bool true; Json.Int (-7) ]);
      ]
  in
  let doc' = Json.of_string (Json.to_string doc) in
  Alcotest.(check bool) "round trip preserves Int/Float distinction" true
    (Json.equal doc doc');
  Alcotest.(check bool) "Int 3 <> Float 3.0" false
    (Json.equal (Json.Int 3) (Json.Float 3.0));
  (* Floats print in their shortest round-trip form and read back to the
     same bits. *)
  Alcotest.(check string) "0.687 prints as 0.687" "0.687"
    (Json.to_string (Json.Float 0.687));
  let round_trips f =
    match Json.of_string (Json.to_string (Json.Float f)) with
    | Json.Float f' -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float f')
    | _ -> false
  in
  List.iter
    (fun f ->
      Alcotest.(check bool) (Printf.sprintf "%h round-trips" f) true (round_trips f))
    [ 0.687; 0.1 +. 0.2; 1e-300; -2.5e300; 5e-324 ];
  let rng = Repro_util.Rng.create 7 in
  for _ = 1 to 1000 do
    let sign = if Repro_util.Rng.bool rng then -1.0 else 1.0 in
    let exponent = Repro_util.Rng.int_in_range rng ~lo:(-300) ~hi:300 in
    let f = sign *. Repro_util.Rng.float rng 1.0 *. (10.0 ** float_of_int exponent) in
    if not (round_trips f) then Alcotest.failf "%h does not round-trip" f
  done

let suites =
  Repro_testkit.Suite.make __MODULE__
    [
      Alcotest.test_case "span tree well-formed, attribution complete" `Quick
        test_well_formed;
      Alcotest.test_case "root span cannot be closed" `Quick
        test_unbalanced_leave_rejected;
      Alcotest.test_case "tracing off is bit-identical" `Quick
        test_disabled_mode_identical;
      Alcotest.test_case "same-name spans merge at every depth" `Quick
        test_merge_every_depth;
      Alcotest.test_case "jobs=1 and jobs=4 traces bit-identical" `Quick
        test_jobs_deterministic;
      Alcotest.test_case "chrome/metrics schema and JSON round-trip" `Quick
        test_chrome_schema_and_roundtrip;
      Alcotest.test_case "json codec keeps Int and Float distinct" `Quick
        test_json_codec_int_float_distinct;
    ]
