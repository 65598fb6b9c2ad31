open Repro_graph
open Repro_embedding
open Repro_congest
open Repro_core
module Json = Repro_trace.Json
module Trace = Repro_trace.Trace

(* ------------------------------------------------------------------ *)
(* Version-stable hashing (FNV-1a, folded into 62 bits)                 *)
(* ------------------------------------------------------------------ *)

(* [Hashtbl.hash] is not pinned across compiler versions; response hashes
   are gated exactly across the 5.1/5.2 CI matrix, so the fold is spelled
   out here.  The mask keeps every intermediate non-negative. *)
let hash_mask = 0x3FFFFFFFFFFFFFFF
let fnv_prime = 0x100000001B3
let hash_seed = 0x2545F4914F6CDD1D land hash_mask
let hash_mix h x = (h lxor (x land hash_mask)) * fnv_prime land hash_mask

let hash_ints l =
  List.fold_left hash_mix (hash_mix hash_seed (List.length l)) l

let hash_int_array a =
  Array.fold_left hash_mix (hash_mix hash_seed (Array.length a)) a

let hex_of_hash h = Printf.sprintf "%016x" h

(* ------------------------------------------------------------------ *)
(* State                                                                *)
(* ------------------------------------------------------------------ *)

type dfs_info = { phases : int; depth : int; hash : int }

type sep_info = {
  size : int;
  max_component : int;
  limit : int;
  valid : bool;
  phase : string;
  shash : int;
}

type decomp_info = { decomp : Decomposition.t; dhash : int }

type entry =
  | Dfs_entry of dfs_info
  | Sep_entry of sep_info
  | Decomp_entry of decomp_info

type t = {
  emb : Embedded.t;
  g : Graph.t;
  d : int;
  pool : Repro_util.Pool.t;
  backend : Backend.t;
  tracer : Trace.t option;
  cache : entry Cache.t;
  cfg0 : Config.t; (* whole-graph configuration, built once at load *)
  max_line : int;
  mutable q_dfs : int;
  mutable q_sep : int;
  mutable q_dec : int;
  mutable q_stats : int;
  mutable q_errors : int;
  mutable charged : float; (* summed per-request ledgers, misses only *)
  mutable response_hash : int; (* commutative sum of response hashes *)
  mutable shutdown : bool;
}

(* Room for a request naming every vertex id once, each with two bytes of
   separators, plus a fixed allowance for the rest of the line. *)
let line_cap n =
  let rec bytes v acc =
    if v >= n then acc
    else bytes (v + 1) (acc + String.length (string_of_int v) + 2)
  in
  4096 + bytes 0 0

let create ?tracer ?backend ?cache_capacity ~pool emb =
  let backend =
    match backend with Some b -> b | None -> Backend.default ()
  in
  let cache_capacity =
    match cache_capacity with
    | Some c -> c
    | None -> Workload.canonical_cache_capacity
  in
  let g = Embedded.graph emb in
  let d = Algo.diameter g in
  Trace.within tracer "serve.load" @@ fun () ->
  let rounds = Rounds.create ?trace:tracer ~n:(Graph.n g) ~d () in
  Screen.require ~rounds ~entry:"serve" emb;
  let cfg0 = Config.of_embedded emb in
  {
    emb;
    g;
    d;
    pool;
    backend;
    tracer;
    cache = Cache.create ~capacity:cache_capacity ();
    cfg0;
    max_line = line_cap (Graph.n g);
    q_dfs = 0;
    q_sep = 0;
    q_dec = 0;
    q_stats = 0;
    q_errors = 0;
    charged = 0.0;
    response_hash = 0;
    shutdown = false;
  }

let shutdown_requested t = t.shutdown
let max_line_bytes t = t.max_line

(* Every miss computes under a fresh ledger sharing the engine tracer;
   only misses charge (a hit re-serves state already at the server), so
   the accumulated total is a sum over distinct cache keys — independent
   of request order and client interleaving as long as nothing evicts. *)
let with_ledger t f =
  let rounds = Rounds.create ?trace:t.tracer ~n:(Graph.n t.g) ~d:t.d () in
  let v = f rounds in
  t.charged <- t.charged +. Rounds.total rounds;
  v

exception Bad_request of string

(* ------------------------------------------------------------------ *)
(* Query evaluation (cache-keyed)                                       *)
(* ------------------------------------------------------------------ *)

let dfs_entry t root =
  let key = "dfs:" ^ string_of_int root in
  Cache.find_or_add t.cache key (fun () ->
      with_ledger t @@ fun rounds ->
      let r = Dfs.run ~rounds ~pool:t.pool ~backend:t.backend t.emb ~root in
      let depth = Array.fold_left max 0 r.Dfs.depth in
      Dfs_entry { phases = r.Dfs.phases; depth; hash = hash_int_array r.Dfs.parent })

let decomp_entry t piece =
  let key = "decomp:" ^ string_of_int piece in
  Cache.find_or_add t.cache key (fun () ->
      with_ledger t @@ fun rounds ->
      let dec =
        Decomposition.build ~rounds ~pool:t.pool ~piece_target:piece
          ~backend:t.backend t.emb
      in
      let h =
        List.fold_left
          (fun h p -> hash_mix (hash_ints p) h)
          (hash_mix hash_seed dec.Decomposition.separator_count)
          dec.Decomposition.pieces
      in
      Decomp_entry { decomp = dec; dhash = h })

let decomposition t piece =
  match decomp_entry t piece with
  | Decomp_entry e, hit -> (e, hit)
  | _ -> assert false

(* Connectivity probe for explicit vertex-list parts: [Config.of_part]
   requires a connected member set, so reject disconnected lists at the
   front door instead of corrupting the pipeline.  The members are sorted,
   unique and in range. *)
let connected_in t members =
  match Algo.restricted_components t.g ~members ~skip:(fun _ -> false) with
  | [ _ ] -> true
  | _ -> false

(* Resolve a part to its cache spec and a builder for its configuration.
   Everything that decides the key or rejects the request (the range and
   connectivity checks, the decomposition lookup of a piece) runs here,
   before anything is built; the configuration itself is built only on a
   miss, so a hit costs the key and the checks alone. *)
let part_config t part =
  match part with
  | Workload.All -> ("all", fun () -> t.cfg0)
  | Workload.Piece i ->
    let e, _hit = decomposition t Workload.default_piece_target in
    let pieces =
      List.filter
        (fun p -> List.length p > 3)
        e.decomp.Decomposition.pieces
      |> Array.of_list
    in
    if Array.length pieces = 0 then
      raise (Bad_request "no decomposition piece above the trivial size");
    let p = pieces.(((i mod Array.length pieces) + Array.length pieces)
                    mod Array.length pieces)
    in
    let members = Array.of_list p in
    let root = Array.fold_left min members.(0) members in
    ( "piece:" ^ string_of_int i,
      fun () -> Config.of_part ~members ~root t.emb )
  | Workload.Vertices vs ->
    let n = Graph.n t.g in
    if vs = [] then raise (Bad_request "empty part");
    List.iter
      (fun v ->
        if v < 0 || v >= n then
          raise (Bad_request (Printf.sprintf "part vertex %d out of range" v)))
      vs;
    let members = Array.of_list (List.sort_uniq compare vs) in
    if not (connected_in t members) then
      raise (Bad_request "part is not connected");
    let root = members.(0) in
    ( Printf.sprintf "v:%s" (hex_of_hash (hash_ints (Array.to_list members))),
      fun () -> Config.of_part ~members ~root t.emb )

let sep_entry t part =
  let spec, build_cfg =
    (* Resolving a Piece part may itself fill the decomposition key; the
       cache's [find_or_add] is re-entrant for exactly this nesting. *)
    part_config t part
  in
  let key = "sep:" ^ spec in
  let entry, hit =
    Cache.find_or_add t.cache key (fun () ->
        let cfg = build_cfg () in
        with_ledger t @@ fun rounds ->
        let r = t.backend.Backend.find ~rounds cfg in
        let v = Check.check_separator cfg r.Separator.separator in
        let global =
          List.map (Config.to_global cfg) r.Separator.separator
        in
        Sep_entry
          {
            size = v.Check.size;
            max_component = v.Check.max_component;
            limit = v.Check.limit;
            valid = v.Check.valid;
            phase = r.Separator.phase;
            shash = hash_ints global;
          })
  in
  (spec, entry, hit)

(* ------------------------------------------------------------------ *)
(* Protocol                                                             *)
(* ------------------------------------------------------------------ *)

let stats_json t =
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("op", Json.String "stats");
      ("n", Json.Int (Graph.n t.g));
      ("m", Json.Int (Graph.m t.g));
      ("d", Json.Int t.d);
      ("backend", Json.String t.backend.Backend.name);
      ( "requests",
        Json.Obj
          [
            ("dfs", Json.Int t.q_dfs);
            ("separator", Json.Int t.q_sep);
            ("decompose", Json.Int t.q_dec);
            ("stats", Json.Int t.q_stats);
            ("errors", Json.Int t.q_errors);
          ] );
      ("cache", Cache.stats_json t.cache);
      ("charged_rounds", Json.Float t.charged);
      ("response_hash", Json.String (hex_of_hash t.response_hash));
    ]

let int_field ~default name req =
  match Json.member name req with
  | None -> default
  | Some (Json.Int i) -> i
  | Some _ -> raise (Bad_request (name ^ " must be an integer"))

let part_field req =
  match Json.member "part" req with
  | None | Some (Json.String "all") -> Workload.All
  | Some (Json.String s)
    when String.length s > 6 && String.sub s 0 6 = "piece:" -> (
    match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
    | Some i when i >= 0 -> Workload.Piece i
    | _ -> raise (Bad_request ("bad part spec: " ^ s)))
  | Some (Json.List l) ->
    Workload.Vertices
      (List.map
         (function
           | Json.Int v -> v
           | _ -> raise (Bad_request "part list must hold integers"))
         l)
  | Some _ -> raise (Bad_request "bad part field")

let note_response t h =
  t.response_hash <- (t.response_hash + h) land hash_mask

(* The sum-mod-2^62 aggregate commutes, so the stats document cannot see
   the interleaving — only the multiset of answered requests. *)

let op_of req =
  match Json.member "op" req with
  | Some (Json.String op) -> op
  | Some _ -> raise (Bad_request "op must be a string")
  | None -> raise (Bad_request "missing op")

let dispatch t req =
  let op = op_of req in
  match op with
  | "dfs" ->
    let root = int_field ~default:(Embedded.outer t.emb) "root" req in
    if root < 0 || root >= Graph.n t.g then
      raise (Bad_request (Printf.sprintf "root %d out of range" root));
    let entry, _hit = dfs_entry t root in
    let e = match entry with Dfs_entry e -> e | _ -> assert false in
    t.q_dfs <- t.q_dfs + 1;
    note_response t e.hash;
    ( op,
      [
        ("root", Json.Int root);
        ("n", Json.Int (Graph.n t.g));
        ("phases", Json.Int e.phases);
        ("depth", Json.Int e.depth);
        ("hash", Json.String (hex_of_hash e.hash));
      ] )
  | "separator" ->
    let part = part_field req in
    let spec, entry, _hit = sep_entry t part in
    let e = match entry with Sep_entry e -> e | _ -> assert false in
    t.q_sep <- t.q_sep + 1;
    note_response t e.shash;
    ( op,
      [
        ("part", Json.String spec);
        ("size", Json.Int e.size);
        ("max_component", Json.Int e.max_component);
        ("limit", Json.Int e.limit);
        ("valid", Json.Bool e.valid);
        ("phase", Json.String e.phase);
        ("hash", Json.String (hex_of_hash e.shash));
      ] )
  | "decompose" ->
    let piece =
      int_field ~default:Workload.default_piece_target "piece" req
    in
    if piece < 2 then raise (Bad_request "piece target must be >= 2");
    let e, _hit = decomposition t piece in
    t.q_dec <- t.q_dec + 1;
    note_response t e.dhash;
    let dec = e.decomp in
    ( op,
      [
        ("piece", Json.Int piece);
        ("pieces", Json.Int (List.length dec.Decomposition.pieces));
        ("levels", Json.Int dec.Decomposition.levels);
        ("separator_count", Json.Int dec.Decomposition.separator_count);
        ("hash", Json.String (hex_of_hash e.dhash));
      ] )
  | "stats" ->
    t.q_stats <- t.q_stats + 1;
    ("stats", [])
  | "shutdown" ->
    t.shutdown <- true;
    (op, [])
  | other -> raise (Bad_request ("unknown op: " ^ other))

let traced_metrics t req =
  match (Json.member "trace" req, t.tracer) with
  | Some (Json.Bool true), Some tr -> (
    (* The request just ran under [serve.<op>], the newest child of the
       tracer root: that subtree is the request-scoped metrics doc. *)
    match (Trace.root tr).Trace.children with
    | sp :: _ -> [ ("metrics", Trace.metrics_of_span sp) ]
    | [] -> [])
  | _ -> []

let id_fields req =
  match Json.member "id" req with
  | Some id -> [ ("id", id) ]
  | None -> []

let handle t req =
  let id = id_fields req in
  try
    let op = op_of req in
    let op_name, fields =
      Trace.within t.tracer ("serve." ^ op) (fun () -> dispatch t req)
    in
    let body =
      if op_name = "stats" then
        match stats_json t with
        | Json.Obj fields -> fields
        | _ -> assert false
      else
        (("ok", Json.Bool true) :: ("op", Json.String op_name) :: fields)
        @ traced_metrics t req
    in
    Json.Obj (id @ body)
  with
  | Bad_request msg ->
    t.q_errors <- t.q_errors + 1;
    Json.Obj (id @ [ ("ok", Json.Bool false); ("error", Json.String msg) ])
  | Separator.No_separator_found msg ->
    t.q_errors <- t.q_errors + 1;
    Json.Obj
      (id
      @ [
          ("ok", Json.Bool false);
          ("error", Json.String ("no separator found: " ^ msg));
        ])
  | e ->
    (* Backends, the checker and the DFS driver are allowed to raise on
       inputs the screen can't rule out; the mli promises errors come
       back as responses, so nothing may escape into the server loop. *)
    t.q_errors <- t.q_errors + 1;
    Json.Obj
      (id
      @ [
          ("ok", Json.Bool false);
          ("error", Json.String ("internal error: " ^ Printexc.to_string e));
        ])

let line_too_long t =
  t.q_errors <- t.q_errors + 1;
  Json.to_string
    (Json.Obj
       [
         ("ok", Json.Bool false);
         ( "error",
           Json.String
             (Printf.sprintf "request line exceeds %d bytes" t.max_line) );
       ])

let handle_line t line =
  let req =
    try Ok (Json.of_string line) with e -> Error (Printexc.to_string e)
  in
  match req with
  | Ok req -> Json.to_string (handle t req)
  | Error msg ->
    t.q_errors <- t.q_errors + 1;
    Json.to_string
      (Json.Obj
         [
           ("ok", Json.Bool false);
           ("error", Json.String ("parse error: " ^ msg));
         ])
