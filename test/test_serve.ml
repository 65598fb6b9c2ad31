(* Serving layer: the LRU cache's determinism, the stats document's
   round-trip through the metrics JSON, and the protocol's headline
   contract — a concurrent 2-client replay over the socket returns
   byte-identical responses to the serial in-process replay, because a
   response is a pure function of (request, loaded graph). *)

open Repro_embedding
open Repro_serve
module Json = Repro_trace.Json
module Suite = Repro_testkit.Suite

(* --- Cache ------------------------------------------------------------ *)

let test_cache_lru_deterministic () =
  let run () =
    let c = Cache.create ~capacity:3 () in
    let add k = ignore (Cache.find_or_add c k (fun () -> k)) in
    add "a";
    add "b";
    add "c";
    (* touch a: b becomes the LRU victim *)
    add "a";
    add "d";
    (Cache.keys_lru_first c, Cache.hits c, Cache.misses c, Cache.evictions c)
  in
  let keys, hits, misses, evictions = run () in
  Alcotest.(check (list string))
    "eviction removed the LRU key (b), order is recency"
    [ "c"; "a"; "d" ] keys;
  Alcotest.(check int) "one hit (the re-touch of a)" 1 hits;
  Alcotest.(check int) "four misses" 4 misses;
  Alcotest.(check int) "one eviction" 1 evictions;
  (* Bit-for-bit replay: recency is a logical tick, not a clock. *)
  Alcotest.(check bool) "second replay identical" true (run () = (keys, hits, misses, evictions))

let test_cache_miss_on_raise_not_inserted () =
  let c = Cache.create ~capacity:2 () in
  (match Cache.find_or_add c "boom" (fun () -> failwith "no") with
  | _ -> Alcotest.fail "expected exception"
  | exception Failure _ -> ());
  Alcotest.(check bool) "failed compute not cached" false (Cache.mem c "boom");
  Alcotest.(check int) "miss still counted" 1 (Cache.misses c)

(* --- Engine (in-process) ---------------------------------------------- *)

let small_engine ?tracer ?(n = 100) pool =
  let emb = Gen.by_family ~seed:1 "grid" ~n in
  Engine.create ?tracer ~pool emb

let req_line r = Json.to_string (Workload.to_json r)

let test_counters_roundtrip_metrics_json () =
  Repro_util.Pool.with_pool ~jobs:1 @@ fun pool ->
  let engine = small_engine pool in
  (* Known access pattern: dfs:12 x3 (1 miss, 2 hits), decomp:24 x2
     (1 miss, 1 hit). *)
  List.iter
    (fun r -> ignore (Engine.handle engine (Workload.to_json r)))
    [
      Workload.Dfs { root = 12 };
      Workload.Dfs { root = 12 };
      Workload.Decompose { piece = 24 };
      Workload.Dfs { root = 12 };
      Workload.Decompose { piece = 24 };
    ];
  (* Round-trip the document through its serialized form, as the daemon
     ships it and loadgen re-parses it. *)
  let stats = Json.of_string (Json.to_string (Engine.stats_json engine)) in
  let int_at path =
    let rec go j = function
      | [] -> ( match j with Some (Json.Int i) -> i | _ -> -1)
      | k :: rest -> go (Option.bind j (Json.member k)) rest
    in
    go (Some stats) path
  in
  Alcotest.(check int) "hits round-trip" 3 (int_at [ "cache"; "hits" ]);
  Alcotest.(check int) "misses round-trip" 2 (int_at [ "cache"; "misses" ]);
  Alcotest.(check int) "evictions round-trip" 0
    (int_at [ "cache"; "evictions" ]);
  Alcotest.(check int) "dfs counter" 3 (int_at [ "requests"; "dfs" ]);
  Alcotest.(check int) "decompose counter" 2
    (int_at [ "requests"; "decompose" ]);
  Alcotest.(check int) "no errors" 0 (int_at [ "requests"; "errors" ])

let test_serial_replay_deterministic () =
  let mix = Workload.mix ~seed:7 ~n:100 ~count:24 in
  let replay jobs =
    Repro_util.Pool.with_pool ~jobs @@ fun pool ->
    let engine = small_engine pool in
    let responses = List.map (fun r -> Engine.handle_line engine (req_line r)) mix in
    (responses, Json.to_string (Engine.stats_json engine))
  in
  let r1 = replay 1 and r2 = replay 2 in
  Alcotest.(check bool) "responses and stats bit-identical across jobs" true
    (r1 = r2)

let test_error_responses () =
  Repro_util.Pool.with_pool ~jobs:1 @@ fun pool ->
  let engine = small_engine pool in
  let is_error line =
    match Json.member "ok" (Json.of_string (Engine.handle_line engine line)) with
    | Some (Json.Bool false) -> true
    | _ -> false
  in
  Alcotest.(check bool) "root out of range" true
    (is_error {|{"op":"dfs","root":100000}|});
  Alcotest.(check bool) "unknown op rejected" true
    (is_error {|{"op":"frobnicate"}|});
  Alcotest.(check bool) "disconnected part rejected" true
    (is_error {|{"op":"separator","part":[0,99]}|});
  Alcotest.(check bool) "parse error answered, not raised" true
    (is_error "{nonsense");
  let stats = Engine.stats_json engine in
  match Option.bind (Json.member "requests" stats) (Json.member "errors") with
  | Some (Json.Int e) -> Alcotest.(check int) "errors counted" 4 e
  | _ -> Alcotest.fail "stats missing errors counter"

let test_request_scoped_metrics () =
  let tracer = Repro_trace.Trace.create ~root:"serve" () in
  Repro_util.Pool.with_pool ~jobs:1 @@ fun pool ->
  let engine = small_engine ~tracer pool in
  let resp =
    Engine.handle engine
      (Json.Obj
         [
           ("op", Json.String "dfs");
           ("root", Json.Int 12);
           ("trace", Json.Bool true);
         ])
  in
  match Json.member "metrics" resp with
  | Some m -> (
    match Json.member "name" m with
    | Some (Json.String name) ->
      Alcotest.(check string) "metrics rooted at the request span"
        "serve.dfs" name
    | _ -> Alcotest.fail "metrics doc has no name")
  | None -> Alcotest.fail "traced request carries no metrics member"

(* --- Socket: concurrent vs serial ------------------------------------- *)

(* The daemon is built next to this test binary (test/dune depends on it),
   so its path does not depend on the working directory. *)
let serve_exe =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ ".."; "bin"; "serve.exe" ]

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let read_lines fd count =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let lines = ref [] in
  while List.length !lines < count do
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i ->
      lines := String.sub s 0 i :: !lines;
      Buffer.clear buf;
      Buffer.add_substring buf s (i + 1) (String.length s - i - 1)
    | None -> (
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> failwith "daemon closed the connection early"
      | k -> Buffer.add_subbytes buf chunk 0 k)
  done;
  List.rev !lines

let test_concurrent_replay_matches_serial () =
  if not (Sys.file_exists serve_exe) then
    Alcotest.failf "daemon binary %s not found" serve_exe
  else begin
    let mix_a = Workload.mix ~seed:3 ~n:100 ~count:10 in
    let mix_b = Workload.mix ~seed:4 ~n:100 ~count:10 in
    (* Serial replay, in-process: one engine, A's stream then B's; then
       the line cap and its error response. *)
    let serial, cap, too_long =
      Repro_util.Pool.with_pool ~jobs:1 @@ fun pool ->
      let engine = small_engine pool in
      let serial =
        List.map (fun r -> Engine.handle_line engine (req_line r)) (mix_a @ mix_b)
      in
      (serial, Engine.max_line_bytes engine, Engine.line_too_long engine)
    in
    let expect_a = List.filteri (fun i _ -> i < 10) serial in
    let expect_b = List.filteri (fun i _ -> i >= 10) serial in
    (* The daemon, same instance spec. *)
    let socket =
      Printf.sprintf "/tmp/repro-serve-test-%d.sock" (Unix.getpid ())
    in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process serve_exe
        [|
          serve_exe; "--socket"; socket; "--family"; "grid"; "-n"; "100";
          "--seed"; "1"; "--jobs"; "1";
        |]
        Unix.stdin null null
    in
    Unix.close null;
    let deadline = Unix.gettimeofday () +. 30.0 in
    while
      (not (Sys.file_exists socket)) && Unix.gettimeofday () < deadline
    do
      ignore (Unix.select [] [] [] 0.05)
    done;
    Alcotest.(check bool) "daemon socket appeared" true
      (Sys.file_exists socket);
    let connect () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      fd
    in
    let a = connect () and b = connect () in
    let c = connect () and d = connect () in
    (* Pipeline both clients' full streams at once: the daemon's select
       loop interleaves them at line granularity. *)
    List.iter (fun r -> write_all a (req_line r ^ "\n")) mix_a;
    List.iter (fun r -> write_all b (req_line r ^ "\n")) mix_b;
    (* The same streams framed differently: C sends A's whole mix in one
       write, D sends B's first request in three writes, then the rest. *)
    write_all c (String.concat "" (List.map (fun r -> req_line r ^ "\n") mix_a));
    (match List.map (fun r -> req_line r ^ "\n") mix_b with
    | first :: rest ->
      let len = String.length first in
      List.iter
        (fun (off, k) ->
          write_all d (String.sub first off k);
          Unix.sleepf 0.05)
        [ (0, len / 3); (len / 3, len / 3); (2 * (len / 3), len - (2 * (len / 3))) ];
      write_all d (String.concat "" rest)
    | [] -> ());
    let got_a = read_lines a 10 and got_b = read_lines b 10 in
    let got_c = read_lines c 10 and got_d = read_lines d 10 in
    (* E goes past the line cap: an unterminated line is answered with the
       error as soon as it passes the cap and discarded through its
       newline, and a terminated over-cap line gets the same answer; the
       valid request after each is served as usual. *)
    let e = connect () in
    (* A daemon that buffers without bound never answers: fail, not hang. *)
    Unix.setsockopt_float e Unix.SO_RCVTIMEO 10.0;
    let first_a = req_line (List.nth mix_a 0) and second_a = req_line (List.nth mix_a 1) in
    let got_e =
      try
        write_all e (String.make (cap + 1) 'x');
        let got_e1 = read_lines e 1 in
        write_all e ("more of the long line\n" ^ first_a ^ "\n");
        let got_e2 = read_lines e 1 in
        write_all e (String.make (2 * cap) 'y' ^ "\n" ^ second_a ^ "\n");
        got_e1 @ got_e2 @ read_lines e 2
      with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        [ "no answer within 10 s" ]
    in
    write_all a "{\"op\":\"shutdown\"}\n";
    ignore (read_lines a 1);
    List.iter Unix.close [ a; b; c; d; e ];
    let _, status = Unix.waitpid [] pid in
    Alcotest.(check bool) "daemon exited cleanly" true
      (status = Unix.WEXITED 0);
    Alcotest.(check (list string))
      "client A responses byte-identical to serial replay" expect_a got_a;
    Alcotest.(check (list string))
      "client B responses byte-identical to serial replay" expect_b got_b;
    Alcotest.(check (list string))
      "client C (one write) responses byte-identical to serial replay"
      expect_a got_c;
    Alcotest.(check (list string))
      "client D (split request) responses byte-identical to serial replay"
      expect_b got_d;
    Alcotest.(check (list string))
      "client E: over-cap lines answered with the error, valid requests served"
      [ too_long; List.nth expect_a 0; too_long; List.nth expect_a 1 ]
      got_e
  end

(* A bad argument exits 2 with one stderr line and no stdout, before the
   daemon builds its instance or opens its socket. *)
let check_bad_arguments args ~stderr:expect =
  if not (Sys.file_exists serve_exe) then
    Alcotest.failf "daemon binary %s not found" serve_exe
  else begin
    let socket =
      Printf.sprintf "/tmp/repro-serve-bad-%d.sock" (Unix.getpid ())
    in
    let out = Filename.temp_file "repro-serve" ".out" in
    let err = Filename.temp_file "repro-serve" ".err" in
    let code =
      Sys.command
        (Printf.sprintf "%s %s --socket %s </dev/null >%s 2>%s"
           (Filename.quote serve_exe) args (Filename.quote socket)
           (Filename.quote out) (Filename.quote err))
    in
    let lines path =
      In_channel.with_open_text path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (( <> ) "")
    in
    let stdout = lines out and stderr = lines err in
    List.iter Sys.remove [ out; err ];
    Alcotest.(check int) "exit code" 2 code;
    Alcotest.(check (list string)) "no stdout" [] stdout;
    Alcotest.(check int) "one stderr line" 1 (List.length stderr);
    Option.iter
      (fun line -> Alcotest.(check (list string)) "stderr" [ line ] stderr)
      expect;
    Alcotest.(check bool) "no socket" false (Sys.file_exists socket)
  end

let test_bad_family_exits_2 () =
  check_bad_arguments "--family nosuch" ~stderr:(Some "unknown family nosuch")

let test_malformed_cache_exits_2 () =
  check_bad_arguments "--cache x" ~stderr:None

let suites =
  Suite.make __MODULE__
    [
      Alcotest.test_case "cache: LRU eviction order deterministic" `Quick
        test_cache_lru_deterministic;
      Alcotest.test_case "cache: raising compute not inserted" `Quick
        test_cache_miss_on_raise_not_inserted;
      Alcotest.test_case "engine: counters round-trip metrics JSON" `Quick
        test_counters_roundtrip_metrics_json;
      Alcotest.test_case "engine: serial replay bit-identical across jobs"
        `Quick test_serial_replay_deterministic;
      Alcotest.test_case "engine: malformed requests answered as errors"
        `Quick test_error_responses;
      Alcotest.test_case "engine: request-scoped trace metrics" `Quick
        test_request_scoped_metrics;
      Alcotest.test_case "socket: concurrent 2-client replay = serial replay"
        `Quick test_concurrent_replay_matches_serial;
      Alcotest.test_case "cli: unknown family exits 2 before serving" `Quick
        test_bad_family_exits_2;
      Alcotest.test_case "cli: malformed --cache exits 2 before serving" `Quick
        test_malformed_cache_exits_2;
    ]
