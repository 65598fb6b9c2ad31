(* Batch workloads: one library call is one operation, on graphs generated
   from the seed, timed from outside.  DFS and the decomposition run
   without a pool on [graphs] seeded graphs in rotation, so that a run
   averages over graphs and not only over repetitions.  Each solve builds
   its graph afresh, untimed, and only one graph is alive at a time: with
   ten 20,000-node graphs held at once, OCaml 5.1's major heap ran up to
   0.9 GB during a solve, and the peak moved by a third from run to run. *)

open Repro_graph
open Repro_embedding
open Repro_congest
open Repro_core
open Common

let setup_builds = 3
let min_reps = 3

(* Set-up builds every instance's graph, [setup_builds] times over, each
   time after a host probe.  A full major GC before each build stays out
   of the timing.  Returns the median scaled time to build them all and
   the median wall time of one build. *)
let set_up ~family ~seeds ~n =
  let setups = ref [] and builds = ref [] in
  for _ = 1 to setup_builds do
    let probe = host_probe () in
    let built =
      List.map
        (fun seed ->
          Gc.full_major ();
          snd (timed (fun () -> Gen.by_family ~seed family ~n)))
        seeds
    in
    builds := built @ !builds;
    setups := scaled ~probe (List.fold_left ( +. ) 0.0 built) :: !setups
  done;
  (median !setups, median !builds)

type ('r, 'f) op = {
  diameter : int;  (** the D the ledger charges with *)
  ledger : ?trace:Trace.t -> unit -> Rounds.t;
  solve : rounds:Rounds.t -> backend:Backend.t option -> 'r;
  valid : 'r -> bool;
  fingerprint : 'r -> 'f;  (** what must repeat exactly across solves *)
  break : 'r -> 'r;  (** a wrong copy of an output, for the fault drill *)
  describe : report -> 'r -> unit;  (** detail lines about one output *)
}

(* One timed solve: its wall and scaled time, the host probe taken just
   before it, the process's peak resident set while it ran, and the GC
   work it did. *)
type solve = { wall : float; scaled : float; probe : float; rss : float; gc : gc }

type traced = { twall : float; sep : sep; tracer : Trace.t }

(* One untimed warm-up solve of the first instance, then timed solves of
   the [k] instances in rotation until [seconds] have passed and each
   instance ran, [min_reps] at least; [make i] builds instance [i].  Each
   timed solve follows a host probe and a full major GC.  Traced runs
   follow each untraced solve with a traced one of the same instance
   (layer timers on the backend, a span tracer on the ledger), so both
   see the same machine state.  Every output is checked, and an
   instance's fingerprint and charged rounds must repeat exactly.
   Returns the sum over instances of charged rounds per unit of
   diameter, and the timings. *)
let measure r ~trace ~seconds k make =
  let reference = Array.make k None in
  let accept i op out c =
    if reference.(i) = None then reference.(i) <- Some (op.fingerprint out, c);
    let f0, c0 = Option.get reference.(i) in
    let out = if corrupt_now r then op.break out else out in
    check r
      (op.valid out && op.fingerprint out = f0 && c = c0)
      "output invalid, or not the first solve's"
  in
  let solve i ?trace ~backend () =
    let op = make i in
    let rounds = op.ledger ?trace () in
    let probe = host_probe () in
    Gc.full_major ();
    reset_peak_rss ();
    let (out, wall), gc =
      gc_delta (fun () -> timed (fun () -> op.solve ~rounds ~backend))
    in
    let rss = peak_rss_mb 0 in
    accept i op out (Rounds.total rounds /. float_of_int op.diameter);
    { wall; scaled = scaled ~probe wall; probe; rss; gc }
  in
  (let op = make 0 in
   let rounds = op.ledger () in
   let out = op.solve ~rounds ~backend:None in
   op.describe r out;
   accept 0 op out (Rounds.total rounds /. float_of_int op.diameter));
  let untraced = ref [] and traced = ref [] in
  let t0 = now () in
  let rep = ref 0 in
  while !rep < max min_reps k || now () -. t0 < seconds do
    let i = !rep mod k in
    untraced := solve i ~backend:None () :: !untraced;
    if trace then begin
      let tracer = Trace.create () in
      let sep = sep_zero () in
      let backend = timed_backend sep (Backend.default ()) in
      let s = solve i ~trace:tracer ~backend:(Some backend) () in
      traced := { twall = s.wall; sep; tracer } :: !traced
    end;
    incr rep
  done;
  let charged =
    Array.fold_left
      (fun a -> function Some (_, c) -> a +. c | None -> a)
      0.0 reference
  in
  (charged, List.rev !untraced, List.rev !traced)

(* Peak RSS is taken from the first round of solves, one per graph: the
   heap a run keeps between solves grows with the number of solves, which
   varies with host speed, and the first round is the same allocations in
   every run of a seed. *)
let emit_end_to_end r ~k ~setup_s ~charged solves =
  let first_round = List.filteri (fun i _ -> i < k) solves in
  let p50_ms f = 1000.0 *. median (List.map f solves) in
  detail r "reps" (float_of_int (List.length solves)) "count";
  detail r "wall_p50_ms" (p50_ms (fun s -> s.wall)) "ms";
  detail r "host.probe_ms" (p50_ms (fun s -> s.probe)) "ms";
  metric r "setup_s" setup_s "s";
  metric r "p50_ms" (p50_ms (fun s -> s.scaled)) "ms";
  metric r "charged_rounds_per_d" charged "rounds/D";
  metric r "peak_rss_mb" (median (List.map (fun s -> s.rss) first_round)) "MB"

(* The traced solve with the median wall stands for the run. *)
let median_traced traced =
  let a = Array.of_list traced in
  Array.sort (fun x y -> compare x.twall y.twall) a;
  a.(Array.length a / 2)

let diameter emb = Algo.diameter (Embedded.graph emb)

let ledger emb ~d =
  let n = Embedded.n emb in
  fun ?trace () -> Rounds.create ?trace ~n ~d ()

(* DFS and the decomposition: the backend the solver calls is the one the
   layer timers wrap, so self time is the solve minus separator calls and
   the entry screen. *)
let run_solver r ~trace ~seconds ~family ~seed ~n ~graphs op_of =
  let seeds = List.init graphs (fun i -> (seed * graphs) + i) in
  let setup_s, gen_s = set_up ~family ~seeds ~n in
  (* A traced run solves the first graph only, so its layer counts repeat
     exactly from run to run. *)
  let k = if trace then 1 else graphs in
  let graph i = Gen.by_family ~seed:(List.nth seeds i) family ~n in
  let charged, untraced, traced =
    measure r ~trace ~seconds k (fun i -> op_of (graph i))
  in
  if not trace then
    emit_end_to_end r ~k ~setup_s ~charged untraced
  else begin
    let emb = graph 0 in
    let g = Embedded.graph emb in
    let t = median_traced traced in
    let screen_s = probe (fun () -> Screen.check emb) in
    let walls = List.map (fun s -> s.wall) untraced in
    emit_layers r
      {
        probe_ms = 1000.0 *. median (List.map (fun s -> s.probe) untraced);
        gen_s;
        screen_s;
        config_s = probe (fun () -> Config.of_embedded emb);
        diameter_s = probe (fun () -> Algo.diameter g);
        (* fewer than 100 samples: the nearest-rank p99 is the slowest *)
        p99_ms = 1000.0 *. List.fold_left Float.max 0.0 walls;
        ops_per_s =
          float_of_int (List.length walls) /. List.fold_left ( +. ) 0.0 walls;
        sep = t.sep;
        solve_s = t.twall;
        self_s = t.twall -. t.sep.find_s -. t.sep.trim_s -. screen_s;
        tracer = t.tracer;
        gc = (List.hd untraced).gc;
        cache = (0, 0, 0);
        json_share = 0.0;
        transport_share = 0.0;
        lag_ratio = 0.0;
        max_outstanding = 0;
        overhead =
          (median (List.map (fun t -> t.twall) traced) /. median walls) -. 1.0;
      }
  end

let dfs r ~trace ~seconds ~seed ~n ~graphs =
  let root = 0 in
  run_solver r ~trace ~seconds ~family:"stacked" ~seed ~n ~graphs (fun emb ->
      let d = diameter emb in
      {
        diameter = d;
        ledger = ledger emb ~d;
        solve = (fun ~rounds ~backend -> Dfs.run ~rounds ?backend emb ~root);
        valid = (fun res -> Dfs.verify emb ~root res);
        fingerprint = (fun res -> res.Dfs.parent);
        break =
          (fun res ->
            let parent = Array.copy res.Dfs.parent in
            parent.(1) <- 1;
            { res with Dfs.parent });
        describe =
          (fun r res -> detail r "phases" (float_of_int res.Dfs.phases) "count");
      })

let piece_target = 20

let decomp r ~trace ~seconds ~seed ~n ~graphs =
  run_solver r ~trace ~seconds ~family:"tgrid" ~seed ~n ~graphs (fun emb ->
      let d = diameter emb in
      {
        diameter = d;
        ledger = ledger emb ~d;
        solve =
          (fun ~rounds ~backend ->
            Decomposition.build ~rounds ~piece_target ?backend emb);
        valid = Decomposition.check emb ~piece_target;
        fingerprint =
          (fun dec -> (dec.Decomposition.pieces, dec.Decomposition.separator));
        break =
          (fun dec ->
            { dec with Decomposition.pieces = List.tl dec.Decomposition.pieces });
        describe =
          (fun r dec ->
            detail r "separator_nodes"
              (float_of_int dec.Decomposition.separator_count)
              "nodes");
      })
