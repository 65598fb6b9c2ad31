(* Served workloads: bin/serve.exe --jobs 1 on the canonical grid, driven
   by this process over two Unix-socket connections.  An open loop sends
   requests on a fixed schedule, as independent users would, and times
   each one from when it was due; a closed loop then runs two callers
   that each wait for their answer, which gives throughput.  The daemon
   only sees request lines.  Every answer must be byte-identical to the
   in-process engine's answer to the same line. *)

open Repro_graph
open Repro_embedding
open Common
module W = Repro_serve.Workload
module Engine = Repro_serve.Engine
module Rng = Repro_util.Rng
module Pool = Repro_util.Pool

(* ------------------------------------------------------------------ *)
(* Request streams                                                      *)
(* ------------------------------------------------------------------ *)

(* Distinct request lines (the cache keys) with their classes, the keys
   sent once before the load, and the key of the k-th load request. *)
type stream = {
  lines : string array;
  classes : string array;
  warmup : int array;
  key : int -> int;
}

let line_of req = Json.to_string (W.to_json req)

(* [count] distinct values of [draw], in the order first drawn. *)
let distinct count draw =
  let seen = Hashtbl.create count in
  let rec go acc k =
    if k = count then List.rev acc
    else
      let x = draw () in
      if Hashtbl.mem seen x then go acc k
      else begin
        Hashtbl.add seen x ();
        go (x :: acc) (k + 1)
      end
  in
  go [] 0

(* A connected vertex set: the [size] vertices nearest a random source
   (ties by id); each has a neighbour one hop nearer inside the set. *)
let ball g rng size =
  let dist = Algo.bfs_dist g (Rng.int rng (Graph.n g)) in
  List.init (Graph.n g) Fun.id
  |> List.stable_sort (fun a b -> compare dist.(a) dist.(b))
  |> List.filteri (fun i _ -> i < size)

let hit_vertex_sets = 32
let hit_set_size = 300
let hit_cycle = 1 lsl 16

(* 45 keys, all sent in the warm-up, so every load request is a hit:
   15 % DFS over 6 roots, 10 % whole-graph and piece separators, 5 %
   decompositions, 70 % separators of explicit vertex sets.  The vertex
   sets are the majority so that the median request is one whose answer
   takes work before the cache lookup (a configuration of the set and a
   connectivity probe); the median of the other hits, 25 to 50 us over
   the socket, is the hypervisor's wake-up time, which moved by half from
   run to run. *)
let hit_stream g ~seed =
  let rng = Rng.create seed in
  let n = Graph.n g in
  let keyed cls reqs = List.map (fun q -> (cls, line_of q)) reqs in
  let keys =
    keyed "dfs"
      (List.map (fun root -> W.Dfs { root }) (distinct 6 (fun () -> Rng.int rng n)))
    @ keyed "piece"
        (W.Separator { part = W.All }
        :: List.init 4 (fun i -> W.Separator { part = W.Piece i }))
    @ keyed "decompose"
        [
          W.Decompose { piece = W.default_piece_target };
          W.Decompose { piece = 2 * W.default_piece_target };
        ]
    @ keyed "vlist"
        (List.map
           (fun vs -> W.Separator { part = W.Vertices vs })
           (distinct hit_vertex_sets (fun () -> ball g rng hit_set_size)))
    |> Array.of_list
  in
  let of_class cls =
    List.filter (fun i -> fst keys.(i) = cls) (List.init (Array.length keys) Fun.id)
    |> Array.of_list
  in
  let dfs = of_class "dfs" and piece = of_class "piece"
  and decompose = of_class "decompose" and vlist = of_class "vlist" in
  let cycle =
    Array.init hit_cycle (fun _ ->
        Rng.pick rng
          (match Rng.int rng 20 with
          | 0 | 1 | 2 -> dfs
          | 3 | 4 -> piece
          | 5 -> decompose
          | _ -> vlist))
  in
  {
    lines = Array.map snd keys;
    classes = Array.map fst keys;
    warmup = Array.init (Array.length keys) Fun.id;
    key = (fun k -> cycle.(k mod hit_cycle));
  }

let miss_warmup = 32

(* [pool] distinct vertex sets of 100 to 600 vertices, sent in a cycle
   longer than the daemon's cache, so every request is a miss and
   evicts. *)
let miss_stream g ~seed ~pool =
  let rng = Rng.create seed in
  let lines =
    Array.of_list
      (distinct pool (fun () ->
           let size = Rng.int_in_range rng ~lo:100 ~hi:600 in
           line_of (W.Separator { part = W.Vertices (ball g rng size) })))
  in
  {
    lines;
    classes = Array.make pool "vlist";
    warmup = Array.init miss_warmup Fun.id;
    key = (fun k -> (miss_warmup + k) mod pool);
  }

(* ------------------------------------------------------------------ *)
(* In-process replay                                                    *)
(* ------------------------------------------------------------------ *)

let canonical_graph () =
  Gen.by_family ~seed:W.canonical_seed W.canonical_family ~n:W.canonical_n

let engine ?tracer ?backend emb =
  Engine.create ?tracer ?backend ~cache_capacity:W.canonical_cache_capacity
    ~pool:(Pool.create ~jobs:1 ()) emb

(* One request through the three serving layers, each timed. *)
type sample = {
  cls : string;
  parse_s : float;
  handle_s : float;
  encode_s : float;
  miss : bool;
  response : string;
}

let cache_misses e =
  match
    Option.bind (Json.member "cache" (Engine.stats_json e)) (Json.member "misses")
  with
  | Some (Json.Int m) -> m
  | _ -> 0

let serve_line e cls line =
  let before = cache_misses e in
  let req, parse_s = timed (fun () -> Json.of_string line) in
  let resp, handle_s = timed (fun () -> Engine.handle e req) in
  let response, encode_s = timed (fun () -> Json.to_string resp) in
  { cls; parse_s; handle_s; encode_s; miss = cache_misses e > before; response }

(* The plain engine's answer to every key: the answers the daemon must
   give.  Each must be ok, and a separator must be valid.  Also the GC
   work the keys took. *)
let expected_answers r st =
  let e = engine (canonical_graph ()) in
  let keyed, gc =
    gc_delta (fun () ->
        Array.mapi (fun key line -> serve_line e st.classes.(key) line) st.lines)
  in
  Array.iter
    (fun s ->
      let j = Json.of_string s.response in
      check r
        (Json.member "ok" j = Some (Json.Bool true)
        && Json.member "valid" j <> Some (Json.Bool false))
        ("in-process answer not ok: " ^ s.response))
    keyed;
  (keyed, gc)

(* ------------------------------------------------------------------ *)
(* The daemon and its connections                                       *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  inflight : (int * float) Queue.t;  (** (request index, start time) *)
}

let chunk = Bytes.create 65536

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

(* Read once and hand every completed line to [f]. *)
let read_lines c f =
  let k = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if k = 0 then failwith "the daemon closed a connection";
  let start = ref 0 in
  for i = 0 to k - 1 do
    if Bytes.get chunk i = '\n' then begin
      Buffer.add_subbytes c.buf chunk !start (i - !start);
      let line = Buffer.contents c.buf in
      Buffer.clear c.buf;
      start := i + 1;
      f line
    end
  done;
  Buffer.add_subbytes c.buf chunk !start (k - !start)

(* One request, one answer, nothing else in flight. *)
let request c line =
  write_all c.fd (line ^ "\n");
  let got = ref None in
  while !got = None do
    read_lines c (fun l -> got := Some l)
  done;
  Option.get !got

let serve_exe () =
  let dir = Filename.dirname (Filename.dirname Sys.executable_name) in
  let exe = Filename.concat (Filename.concat dir "bin") "serve.exe" in
  if not (Sys.file_exists exe) then
    failwith (exe ^ " is missing; build it with: dune build bin/serve.exe");
  exe

let connect ~pid socket =
  let deadline = now () +. 60.0 in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> { fd; buf = Buffer.create 4096; inflight = Queue.create () }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "the daemon exited before serving");
      if now () > deadline then failwith "the daemon did not start serving";
      Unix.sleepf 0.0005;
      go ()
  in
  go ()

let stats_line = {|{"op":"stats"}|}

type daemon = { pid : int; conns : conn array }

(* Exec the daemon and wait for its first stats answer; the time between
   the two, scaled by a host probe taken just before, is one set-up
   sample. *)
let start ~socket =
  let exe = serve_exe () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let probe = host_probe () in
  let t0 = now () in
  let pid =
    Unix.create_process exe
      [| exe; "--socket"; socket; "--jobs"; "1" |]
      Unix.stdin devnull Unix.stderr
  in
  Unix.close devnull;
  match
    let c = connect ~pid socket in
    ignore (request c stats_line);
    (c, now () -. t0)
  with
  | c, dt -> ({ pid; conns = [| c |] }, scaled ~probe dt)
  | exception e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    raise e

let close_conns d =
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) d.conns

let shutdown d =
  ignore (request d.conns.(0) {|{"op":"shutdown"}|});
  close_conns d;
  ignore (Unix.waitpid [] d.pid)

let kill d =
  close_conns d;
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid)

(* ------------------------------------------------------------------ *)
(* Load loops                                                           *)
(* ------------------------------------------------------------------ *)

let ready conns timeout =
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  let r, _, _ = Unix.select fds [] [] timeout in
  List.map (fun fd -> List.find (fun c -> c.fd = fd) (Array.to_list conns)) r

let drain_s = 60.0

(* The sender polls rather than sleeps for the last [spin_s] before a
   request is due: a select timeout woke it a median 60 us late, which
   was most of the latency of a cache hit. *)
let spin_s = 0.0005

(* Requests [first], ..., [first + count - 1]: the j-th is due at
   [t0 + j / rate] on connection [j mod 2]; its latency runs from when it
   was due, so a stall also charges the requests queued behind it.
   Returns once every answer is in, with latencies, send lateness and the
   most requests in flight. *)
let open_loop conns ~rate ~first ~count ~line ~on_answer =
  let lat = Array.make count 0.0 and lag = Array.make count 0.0 in
  let t0 = now () +. 0.001 in
  let due j = t0 +. (float_of_int j /. rate) in
  let sent = ref 0 and answered = ref 0 in
  let outstanding = ref 0 and max_out = ref 0 in
  let deadline = due count +. drain_s in
  while !answered < count do
    if now () > deadline then failwith "open loop: answers stopped arriving";
    while !sent < count && due !sent <= now () do
      let j = !sent in
      let c = conns.(j mod Array.length conns) in
      lag.(j) <- now () -. due j;
      write_all c.fd (line (first + j));
      Queue.push (first + j, due j) c.inflight;
      incr sent;
      incr outstanding;
      max_out := max !max_out !outstanding
    done;
    let timeout =
      if !sent < count then Float.max 0.0 (due !sent -. now () -. spin_s)
      else 0.1
    in
    List.iter
      (fun c ->
        read_lines c (fun resp ->
            let i, t = Queue.pop c.inflight in
            lat.(i - first) <- now () -. t;
            decr outstanding;
            incr answered;
            on_answer i resp))
      (ready conns timeout)
  done;
  (Array.to_list lat, Array.to_list lag, !max_out)

let window_s = 0.25

(* Each connection sends its next request when the previous answer
   arrives, until [seconds] have passed.  Requests are numbered from
   [first].  Returns latencies and the throughput: the median of the
   answer rates of successive [window_s] windows, so one stall does not
   decide it. *)
let closed_loop conns ~seconds ~first ~line ~on_answer =
  let lat = ref [] and done_at = ref [] and next = ref first in
  let t0 = now () in
  let stop = t0 +. seconds in
  let send c =
    let i = !next in
    incr next;
    Queue.push (i, now ()) c.inflight;
    write_all c.fd (line i)
  in
  Array.iter send conns;
  let outstanding = ref (Array.length conns) in
  while !outstanding > 0 do
    if now () > stop +. drain_s then
      failwith "closed loop: answers stopped arriving";
    List.iter
      (fun c ->
        read_lines c (fun resp ->
            let i, t = Queue.pop c.inflight in
            let t' = now () in
            lat := (t' -. t) :: !lat;
            done_at := t' :: !done_at;
            on_answer i resp;
            if t' < stop then send c else decr outstanding))
      (ready conns 0.1)
  done;
  let windows = max 1 (int_of_float (seconds /. window_s)) in
  let width = seconds /. float_of_int windows in
  let counts = Array.make windows 0 in
  List.iter
    (fun t ->
      let w = int_of_float ((t -. t0) /. width) in
      if w < windows then counts.(w) <- counts.(w) + 1)
    !done_at;
  let rates = Array.map (fun k -> float_of_int k /. width) counts in
  (!lat, median (Array.to_list rates))

(* ------------------------------------------------------------------ *)
(* One served run                                                       *)
(* ------------------------------------------------------------------ *)

let stat path j =
  match List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path with
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> failwith ("stats: no " ^ String.concat "." path)

let ms x = 1000.0 *. x

type load = {
  setup_s : float;
  segments : (float * float list) list;
      (** per open-loop segment: the host probe before it, its latencies *)
  open_lat : float list;
  lag : float list;
  max_outstanding : int;
  closed_lat : float list;
  qps : float;
  charged : float;
  cache : int * int * int;
  rss_mb : float;
}

let segment_s = 1.0

(* Start the daemon [starts] times (the last one serves), send the
   warm-up keys one at a time, then the open loop, a stats request, the
   closed loop and a final stats request.  The open loop runs in segments
   of about [segment_s], each after a host probe, with nothing in flight
   while the probe runs. *)
let drive r st ~expected ~starts:k ~rate ~open_s ~closed_s =
  let socket = Printf.sprintf ".bench-serve-%d.sock" (Unix.getpid ()) in
  let answers = Array.map (fun s -> s.response) expected in
  let verify key resp =
    let resp = if corrupt_now r then "corrupted" else resp in
    check r (String.equal resp answers.(key))
      (Printf.sprintf "answer to key %d differs from the in-process engine's" key)
  in
  let rec starts k acc =
    let d, dt = start ~socket in
    if k = 1 then (d, dt :: acc)
    else begin
      shutdown d;
      starts (k - 1) (dt :: acc)
    end
  in
  let d, setup = starts k [] in
  match
    let second = connect ~pid:d.pid socket in
    let d = { d with conns = Array.append d.conns [| second |] } in
    Array.iter (fun k -> verify k (request d.conns.(0) st.lines.(k))) st.warmup;
    let send_line = Array.map (fun l -> l ^ "\n") st.lines in
    let line i = send_line.(st.key i) in
    let on_answer i resp = verify (st.key i) resp in
    let nseg = max 1 (int_of_float (open_s /. segment_s)) in
    let per = max 1 (int_of_float (rate *. open_s /. float_of_int nseg)) in
    let runs =
      List.init nseg (fun k ->
          let probe = host_probe () in
          ( probe,
            open_loop d.conns ~rate ~first:(k * per) ~count:per ~line
              ~on_answer ))
    in
    let count = nseg * per in
    let charged =
      stat [ "charged_rounds" ] (Json.of_string (request d.conns.(0) stats_line))
    in
    let closed_lat, qps =
      closed_loop d.conns ~seconds:closed_s ~first:count ~line ~on_answer
    in
    let stats = Json.of_string (request d.conns.(0) stats_line) in
    let c k = int_of_float (stat [ "cache"; k ] stats) in
    let load =
      {
        setup_s = median setup;
        segments = List.map (fun (p, (lat, _, _)) -> (p, lat)) runs;
        open_lat = List.concat_map (fun (_, (lat, _, _)) -> lat) runs;
        lag = List.concat_map (fun (_, (_, lag, _)) -> lag) runs;
        max_outstanding =
          List.fold_left (fun a (_, (_, _, m)) -> max a m) 0 runs;
        closed_lat;
        qps;
        charged;
        cache = (c "hits", c "misses", c "evictions");
        rss_mb = peak_rss_mb d.pid;
      }
    in
    shutdown d;
    load
  with
  | load -> load
  | exception e ->
    kill d;
    raise e

(* ------------------------------------------------------------------ *)
(* Traced replay: the serving layers, in process                        *)
(* ------------------------------------------------------------------ *)

let inproc s = s.parse_s +. s.handle_s +. s.encode_s
let p50 f samples = median (List.map f samples)

(* Every key in order, then the first [hits] load requests, each through a
   fresh plain engine and then through an engine whose backend carries the
   layer timers and whose ledger carries a span tracer.  Pairing them keeps
   host-speed drift out of the tracing overhead.  Answers to the keys must
   be the expected ones. *)
let paired_replay r st ~expected ~hits =
  let emb = canonical_graph () in
  let tracer = Trace.create ~root:"serve" () in
  let sep = sep_zero () in
  let backend = timed_backend sep (Repro_core.Backend.default ()) in
  let plain = engine emb and traced = engine ~tracer ~backend emb in
  let both key =
    let cls = st.classes.(key) and line = st.lines.(key) in
    (serve_line plain cls line, serve_line traced cls line)
  in
  let keyed = Array.init (Array.length st.lines) both in
  Array.iteri
    (fun i (p, t) ->
      check r
        (String.equal p.response expected.(i).response
        && String.equal t.response expected.(i).response)
        "in-process replay answer differs")
    keyed;
  let loaded = List.init hits (fun i -> both (st.key i)) in
  (emb, tracer, sep, Array.to_list keyed, loaded)

(* Open-loop latency: each segment's median, scaled by the probe before
   it; the median over segments. *)
let scaled_p50 l =
  median (List.map (fun (probe, lat) -> scaled ~probe (median lat)) l.segments)

let probe_ms l = ms (median (List.map fst l.segments))

let emit_end_to_end r l =
  detail r "open.samples" (float_of_int (List.length l.open_lat)) "count";
  detail r "open.segments" (float_of_int (List.length l.segments)) "count";
  detail r "wall_p50_ms" (ms (median l.open_lat)) "ms";
  detail r "host.probe_ms" (probe_ms l) "ms";
  detail r "closed.samples" (float_of_int (List.length l.closed_lat)) "count";
  detail r "closed.p50_ms" (ms (median l.closed_lat)) "ms";
  detail r "closed.qps" l.qps "1/s";
  detail r "client.lag_ms.p99" (ms (percentile l.lag 0.99)) "ms";
  detail r "client.max_outstanding" (float_of_int l.max_outstanding) "count";
  metric r "setup_s" l.setup_s "s";
  metric r "p50_ms" (ms (scaled_p50 l)) "ms";
  (* the D the daemon's ledgers charge with *)
  let d = Algo.diameter (Embedded.graph (canonical_graph ())) in
  metric r "charged_rounds_per_d" (l.charged /. float_of_int d) "rounds/D";
  metric r "peak_rss_mb" l.rss_mb "MB"

(* Request timings come from the plain engine, layer attribution from the
   traced one. *)
let emit_traced r st ~expected ~gc ~load ~hits =
  let emb, tracer, sep, keyed, loaded =
    paired_replay r st ~expected ~hits
  in
  let g = Embedded.graph emb in
  let traced = List.map snd (keyed @ loaded) in
  let keyed = List.map fst keyed and loaded = List.map fst loaded in
  let all = keyed @ loaded in
  (* The requests the socket loops sent: hits after a warm-up, misses
     otherwise. *)
  let mix = if loaded = [] then keyed else loaded in
  let sum f l = List.fold_left (fun a s -> a +. f s) 0.0 l in
  let handled l = sum (fun s -> s.handle_s) l in
  let solve_s = handled traced in
  let inproc_p50 = p50 inproc mix in
  (* With two callers and no think time the daemon is the bottleneck, so
     1/qps is its time per request; what the engine does not account for
     is framing, the select loop and the socket. *)
  let per_request = 1.0 /. load.qps in
  let transport =
    per_request -. (sum inproc mix /. float_of_int (List.length mix))
  in
  let by_class hit cls =
    List.filter (fun s -> s.miss <> hit && s.cls = cls) all
  in
  let misses = List.filter (fun s -> s.miss) all in
  List.iter
    (fun cls ->
      let l = by_class true cls in
      if l <> [] then
        detail r ("engine.hit_us." ^ cls) (1e6 *. p50 (fun s -> s.handle_s) l) "us")
    [ "dfs"; "piece"; "decompose"; "vlist" ];
  detail r "engine.miss_ms.p50" (ms (p50 (fun s -> s.handle_s) misses)) "ms";
  detail r "engine.miss_ms.p99"
    (ms (percentile (List.map (fun s -> s.handle_s) misses) 0.99))
    "ms";
  detail r "json.parse_us" (1e6 *. p50 (fun s -> s.parse_s) mix) "us";
  detail r "json.encode_us" (1e6 *. p50 (fun s -> s.encode_s) mix) "us";
  detail r "server.transport_us" (1e6 *. transport) "us";
  detail r "client.lag_ms.p99" (ms (percentile load.lag 0.99)) "ms";
  emit_layers r
    {
      probe_ms = probe_ms load;
      gen_s = probe canonical_graph;
      screen_s = probe (fun () -> Repro_core.Screen.check emb);
      config_s = probe (fun () -> Repro_core.Config.of_embedded emb);
      diameter_s = probe (fun () -> Algo.diameter g);
      p99_ms = ms (percentile load.open_lat 0.99);
      ops_per_s = load.qps;
      sep;
      solve_s;
      self_s = solve_s -. sep.find_s -. sep.trim_s;
      tracer;
      gc;
      cache = load.cache;
      json_share =
        (p50 (fun s -> s.parse_s) mix +. p50 (fun s -> s.encode_s) mix)
        /. inproc_p50;
      transport_share = transport /. per_request;
      lag_ratio = percentile load.lag 0.99 /. median load.open_lat;
      max_outstanding = load.max_outstanding;
      overhead = (solve_s /. handled all) -. 1.0;
    }

let run r ~trace st ~starts ~rate ~open_s ~closed_s ~hits =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let expected, gc = expected_answers r st in
  let load = drive r st ~expected ~starts ~rate ~open_s ~closed_s in
  if not trace then emit_end_to_end r load
  else emit_traced r st ~expected ~gc ~load ~hits

(* Four fifths of a run is the open loop, which gives the end-to-end
   latency; the closed loop's throughput is a per-layer number. *)
let open_share = 0.8

let hit r ~trace ~seconds ~seed ~starts =
  let st = hit_stream (Embedded.graph (canonical_graph ())) ~seed in
  let rate = 1000.0 in
  let open_s = open_share *. seconds in
  run r ~trace st ~starts ~rate ~open_s ~closed_s:(seconds -. open_s)
    ~hits:(min 20_000 (int_of_float (rate *. open_s)))

let miss r ~trace ~seconds ~seed ~pool ~starts =
  let st = miss_stream (Embedded.graph (canonical_graph ())) ~seed ~pool in
  let open_s = open_share *. seconds in
  run r ~trace st ~starts ~rate:300.0 ~open_s ~closed_s:(seconds -. open_s)
    ~hits:0
