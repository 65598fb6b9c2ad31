(* Shared pieces of the benchmark: clocks and order statistics, the
   per-run report and its output, and the outside-in layer timers (a
   timing wrapper around a separator backend, charged-round groups read
   off a trace, GC deltas). *)

module Json = Repro_trace.Json
module Trace = Repro_trace.Trace
open Repro_core

(* Monotonic nanoseconds, as seconds: cache hits take about a
   microsecond, below the resolution of the wall clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Order statistics follow Python's [statistics] module, which the
   acceptance rule for the benchmark's spread is written in: [median]
   averages the two middle values, [quartiles] is
   [statistics.quantiles(xs, n=4)] with its default "exclusive" method. *)
let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted_array xs in
  let k = Array.length a in
  if k = 0 then nan
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

let quartiles xs =
  let a = sorted_array xs in
  let ld = Array.length a in
  if ld < 2 then (median xs, median xs)
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)
  end

(* A standalone call into one layer: median of three. *)
let probe f = median (List.init 3 (fun _ -> snd (timed (fun () -> ignore (f ())))))

(* Nearest-rank percentile, [p] in [0, 1]: the value with [(1 - p) * k]
   samples above it, as the serving layer's own loadgen reports it. *)
let percentile xs p = Repro_serve.Workload.percentile (Array.of_list xs) p

(* ------------------------------------------------------------------ *)
(* Host speed                                                           *)
(* ------------------------------------------------------------------ *)

(* The hosts this runs on are shared, and their speed drifts by up to 2x
   over minutes: other tenants slow every core, not just the wall clock.
   [host_probe] times a fixed piece of this file's own code (an integer
   loop and an allocating map build, about half and half), which no
   change to the program under test can speed up or slow down.  Timed
   work runs right after a probe and is reported [scaled]: as wall time
   at the host speed where the probe takes [reference_probe_s], which is
   what a quiet 2-vCPU Xeon at 2.1 GHz gives. *)
let reference_probe_s = 0.08

(* Smoke runs, whose times nobody compares, shrink the probe to keep
   [dune runtest] short. *)
let probe_scale = ref 1.0

module Int_map = Map.Make (Int)

let probe_loop () =
  let x = ref 0x1234567 in
  for i = 1 to int_of_float (!probe_scale *. 20_000_000.) do
    x := ((!x * 0x9E3779B1) + i) land 0x3FFFFFFF
  done;
  !x

let probe_map () =
  let m = ref Int_map.empty in
  for i = 1 to int_of_float (!probe_scale *. 80_000.) do
    m := Int_map.add ((i * 7919) land 0xFFFFF) i !m
  done;
  Int_map.cardinal !m

let host_probe () =
  snd (timed (fun () -> Sys.opaque_identity (probe_loop ())))
  +. snd (timed (fun () -> Sys.opaque_identity (probe_map ())))

let scaled ~probe wall = wall *. reference_probe_s /. probe

(* Lower this process's high-water resident set to its current one, so
   that [peak_rss_mb 0] then tells the peak of what runs next.  Where
   /proc/self/clear_refs cannot be written, the peak stays the run's. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc "5")
  with Sys_error _ -> ()

(* High-water resident set of a live process (pid 0: this one), in MB,
   from VmHWM in /proc/<pid>/status. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status"
    else Printf.sprintf "/proc/%d/status" pid
  in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec scan () =
    match Scanf.sscanf_opt (input_line ic) "VmHWM: %d kB" Fun.id with
    | Some kb -> float_of_int kb /. 1024.0
    | None -> scan ()
  in
  scan ()

(* ------------------------------------------------------------------ *)
(* The report of one run                                               *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit : string }

type report = {
  workload : string;
  mutable corrupt : bool;  (** the fault drill: break the next output checked *)
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : metric list;  (** the contract set, newest first *)
  mutable detail : metric list;  (** printed and filed, newest first *)
}

let report ~corrupt workload =
  { workload; corrupt; attempted = 0; failed = 0; metrics = []; detail = [] }

(* Count one checked output. *)
let check r ok what =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    Printf.eprintf "%s: check failed: %s\n%!" r.workload what
  end

(* The fault drill breaks exactly one output per run. *)
let corrupt_now r =
  let c = r.corrupt in
  r.corrupt <- false;
  c

let metric r name value unit =
  r.metrics <- { name; value; unit } :: r.metrics

let detail r name value unit = r.detail <- { name; value; unit } :: r.detail

let print_metric workload m =
  Printf.printf "%s %s %.17g %s\n" workload m.name m.value m.unit

let metrics_json ms =
  Json.Obj
    (List.map
       (fun m ->
         ( m.name,
           Json.Obj
             [ ("value", Json.Float m.value); ("unit", Json.String m.unit) ] ))
       ms)

(* Every detail and contract metric as a line, then the contract result
   as the last line of standard output. *)
let emit r =
  List.iter (print_metric r.workload) (List.rev r.detail);
  List.iter (print_metric r.workload) (List.rev r.metrics);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (r.failed = 0));
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ("metrics", metrics_json (List.rev r.metrics));
          ]))

(* ------------------------------------------------------------------ *)
(* Layer timers                                                         *)
(* ------------------------------------------------------------------ *)

(* What the separator layer did under one solve, seen from its public
   entry points. *)
type sep = {
  mutable calls : int;
  mutable find_s : float;
  mutable trims : int;
  mutable trim_s : float;
  mutable candidates : int;
  mutable fallbacks : int;
  mutable nodes : int;
}

let sep_zero () =
  {
    calls = 0;
    find_s = 0.0;
    trims = 0;
    trim_s = 0.0;
    candidates = 0;
    fallbacks = 0;
    nodes = 0;
  }

(* The registry backend with a timer around [find] and [trim]; both
   delegate unchanged and the name is kept, so outputs, charged rounds
   and span names equal the unwrapped run's.  Single-domain use only. *)
let timed_backend st (b : Backend.t) =
  {
    b with
    Backend.find =
      (fun ?rounds cfg ->
        let r, dt = timed (fun () -> b.Backend.find ?rounds cfg) in
        st.calls <- st.calls + 1;
        st.find_s <- st.find_s +. dt;
        st.candidates <- st.candidates + r.Separator.candidates_tried;
        if String.starts_with ~prefix:"fallback-" r.Separator.phase then
          st.fallbacks <- st.fallbacks + 1;
        st.nodes <- st.nodes + List.length r.Separator.separator;
        r);
    trim =
      (fun ?rounds cfg s ->
        let s', dt = timed (fun () -> b.Backend.trim ?rounds cfg s) in
        st.trims <- st.trims + 1;
        st.trim_s <- st.trim_s +. dt;
        s');
  }

(* Charged rounds by layer: every span's own charges go to the nearest
   enclosing span that names a layer (screen, separator, JOIN); the rest
   (phase and level bookkeeping, the embedding charge) is "other". *)
let charged_groups tr =
  let screen = ref 0.0 and sep = ref 0.0 and join = ref 0.0 and other = ref 0.0 in
  let group_of name =
    if name = "screen" || String.starts_with ~prefix:"screen." name then
      Some screen
    else if
      String.starts_with ~prefix:"sep." name
      || String.starts_with ~prefix:"backend." name
    then Some sep
    else if name = "join" then Some join
    else None
  in
  let rec walk group (sp : Trace.span) =
    let group = Option.value (group_of sp.Trace.name) ~default:group in
    group := !group +. sp.Trace.self.Trace.charged;
    List.iter (walk group) sp.Trace.children
  in
  walk other (Trace.root tr);
  (!screen, !sep, !join, !other)

type gc = { minor_mw : float; major_mw : float; major_collections : int }

let gc_delta f =
  let a = Gc.quick_stat () in
  let v = f () in
  let b = Gc.quick_stat () in
  ( v,
    {
      minor_mw = (b.Gc.minor_words -. a.Gc.minor_words) /. 1e6;
      major_mw = (b.Gc.major_words -. a.Gc.major_words) /. 1e6;
      major_collections = b.Gc.major_collections - a.Gc.major_collections;
    } )

(* The layer metrics every traced run reports, whatever its workload:
   layers a workload does not reach read 0 in a count or a share, never
   in a time. *)
type layers = {
  probe_ms : float;  (** median host probe of the run, in ms *)
  gen_s : float;
  screen_s : float;
  config_s : float;
  diameter_s : float;
  p99_ms : float;  (** end-to-end tail, too noisy on a shared host to gate *)
  ops_per_s : float;  (** end-to-end throughput, likewise *)
  sep : sep;
  solve_s : float;  (** the traced wall the separator calls ran inside *)
  self_s : float;
  tracer : Trace.t;
  gc : gc;
  cache : int * int * int;  (** hits, misses, evictions *)
  json_share : float;
  transport_share : float;
  lag_ratio : float;
  max_outstanding : int;
  overhead : float;
}

let emit_layers r l =
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let s = l.sep in
  let screen, sep, join, other = charged_groups l.tracer in
  let tot = Trace.totals (Trace.root l.tracer) in
  let hits, misses, evictions = l.cache in
  let count name v = metric r name (float_of_int v) "count" in
  metric r "host.probe_ms" l.probe_ms "ms";
  metric r "gen_s" l.gen_s "s";
  metric r "screen_s" l.screen_s "s";
  metric r "config_s" l.config_s "s";
  metric r "diameter_s" l.diameter_s "s";
  metric r "p99_ms" l.p99_ms "ms";
  metric r "ops_per_s" l.ops_per_s "1/s";
  count "sep.calls" s.calls;
  metric r "sep.find_s" s.find_s "s";
  metric r "sep.find_share" (ratio s.find_s l.solve_s) "ratio";
  metric r "sep.trim_share" (ratio s.trim_s l.solve_s) "ratio";
  count "sep.candidates" s.candidates;
  metric r "sep.yield" (ratio (float_of_int s.calls) (float_of_int s.candidates))
    "ratio";
  count "sep.fallback_calls" s.fallbacks;
  count "sep.nodes" s.nodes;
  metric r "self_s" l.self_s "s";
  metric r "charged.screen" screen "rounds";
  metric r "charged.sep" sep "rounds";
  metric r "charged.join" join "rounds";
  metric r "charged.other" other "rounds";
  count "pa_units" tot.Trace.pa_units;
  metric r "gc.minor_mw" l.gc.minor_mw "Mw";
  metric r "gc.major_mw" l.gc.major_mw "Mw";
  count "gc.major_collections" l.gc.major_collections;
  count "cache.hits" hits;
  count "cache.misses" misses;
  count "cache.evictions" evictions;
  metric r "serve.json_share" l.json_share "ratio";
  metric r "serve.transport_share" l.transport_share "ratio";
  metric r "client.lag_ratio" l.lag_ratio "ratio";
  count "client.max_outstanding" l.max_outstanding;
  metric r "trace.overhead" l.overhead "ratio";
  detail r "sep.trim_s" s.trim_s "s";
  detail r "sep.trim_calls" (float_of_int s.trims) "count"
