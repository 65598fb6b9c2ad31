(* Fuzzing instances, determined by a printable (family, n, seed, spanning)
   spec.  Everything downstream of the spec is deterministic: the embedded
   graph, the spanning tree, and (because every oracle seeds its own input
   stream from [spec.seed]) the full check performed on it.  That makes a
   spec string a complete, replayable repro of any failure. *)

open Repro_util
open Repro_graph
open Repro_embedding
open Repro_tree
open Repro_core

type spec = { family : string; n : int; seed : int; spanning : Spanning.kind }
type t = { spec : spec; emb : Embedded.t; config : Config.t }

(* Gen's benchmark families plus the testkit-only ones.  Trees (rtree,
   caterpillar, path, star) are kept in the pool on purpose: they exercise
   the tree phases of the separator and the empty-fundamental-edge paths of
   the face oracles. *)
let families =
  [
    "grid"; "tgrid"; "stacked"; "thinned"; "cycle"; "chords"; "fan"; "wheel";
    "rtree"; "caterpillar"; "path"; "star";
  ]

(* Hostile families: near-planar adversarial instances the Screen layer
   must reject or flag.  They are kept OUT of [families] on purpose —
   the fuzzer draws every oracle's cases from that pool, and only the
   [screen] oracle is defined on hostile input. *)
let hostile_families = [ "xchords1"; "xchords4"; "xchords16"; "xrot"; "xunion" ]
let is_hostile f = List.mem f hostile_families

let min_size = function
  | "wheel" | "chords" -> 4
  | "grid" | "tgrid" -> 4
  | "stacked" | "thinned" -> 4
  | "cycle" | "fan" -> 3
  | "star" -> 2
  | "path" -> 1
  | "xchords1" | "xchords4" | "xrot" -> 9
  | "xchords16" -> 16
  | "xunion" -> 8
  | _ -> 4

(* Cycle 0..n-1 in convex position with a random set of non-crossing chords:
   regions are split recursively, so all chords are nested intervals and the
   straight-line drawing stays planar (a random outerplanar graph). *)
let chorded_cycle ~seed ~n =
  if n < 4 then invalid_arg "Instance.chorded_cycle: n >= 4 required";
  let rng = Rng.create seed in
  let edges = ref (List.init n (fun i -> (i, (i + 1) mod n))) in
  let rec split lo hi =
    (* region spanned by cycle vertices lo..hi (hi - lo >= 3 has room) *)
    if hi - lo >= 3 then begin
      let mid = lo + 1 + Rng.int rng (hi - lo - 1) in
      if mid - lo >= 2 && Rng.int rng 3 > 0 then edges := (lo, mid) :: !edges;
      if hi - mid >= 2 && Rng.int rng 3 > 0 then edges := (mid, hi) :: !edges;
      split lo mid;
      split mid hi
    end
  in
  split 0 (n - 1);
  let coords =
    Array.init n (fun i ->
        let a = 2.0 *. Float.pi *. float_of_int i /. float_of_int n in
        (cos a, sin a))
  in
  Embedded.of_coords
    ~name:(Printf.sprintf "chords-%d" n)
    (Graph.of_edges ~n !edges) coords

(* ---- hostile builders --------------------------------------------------

   Each is deterministic from (seed, n) and names its embedding with the
   family:n:seed triple, so a screen failure is replayable from the
   verdict message alone.  Corruption is retried (with fresh draws from
   the same stream) until planarity actually breaks: a bad swap on a
   low-degree vertex or an unlucky chord splice can leave the Euler
   count intact, and a generator that sometimes emits a clean instance
   under a hostile family would poison the oracle. *)

let insert_at l pos x =
  let rec go i = function
    | [] -> [ x ]
    | hd :: tl as rest -> if i = pos then x :: rest else hd :: go (i + 1) tl
  in
  go 0 l

let hostile_attempts = 64

(* Planar grid plus [k] random chords, each spliced into both endpoint
   rotations at a random position.  The rotations stay valid
   permutations (tier-1 clean) but the embedding stops satisfying
   Euler's formula: the chord is the planted witness. *)
let planar_plus_chords ~seed ~n ~k =
  let base = Gen.by_family ~seed "grid" ~n in
  let g = Embedded.graph base in
  let rot = Embedded.rot base in
  let nv = Graph.n g in
  let rng = Rng.create (seed + (31 * k)) in
  let rec attempt a =
    if a > hostile_attempts then
      failwith "Instance.planar_plus_chords: no non-planar draw found";
    let chords = ref [] in
    let guard = ref 0 in
    while List.length !chords < k && !guard < 10_000 do
      incr guard;
      let u = Rng.int rng nv and v = Rng.int rng nv in
      let e = (min u v, max u v) in
      if u <> v && (not (Graph.mem_edge g u v)) && not (List.mem e !chords)
      then chords := e :: !chords
    done;
    let g' = Graph.of_edges ~n:nv (Graph.edges g @ !chords) in
    let orders =
      Array.init nv (fun v -> ref (Array.to_list (Rotation.order rot v)))
    in
    List.iter
      (fun (u, v) ->
        let splice a b =
          let l = !(orders.(a)) in
          orders.(a) := insert_at l (Rng.int rng (List.length l + 1)) b
        in
        splice u v;
        splice v u)
      !chords;
    let rot' =
      Rotation.of_orders g' (Array.map (fun r -> Array.of_list !r) orders)
    in
    if Rotation.is_planar_embedding g' rot' then attempt (a + 1)
    else
      Embedded.make ~outer:(Embedded.outer base)
        ~name:(Printf.sprintf "xchords%d:%d:%d" k n seed)
        g' rot'
  in
  attempt 1

(* Same grid, same graph — but one rotation corrupted by swapping two
   entries at a vertex of degree >= 3.  Still a permutation of the
   adjacency (tier-1 clean), yet the face walks no longer close a genus-0
   surface. *)
let corrupted_rotation ~seed ~n =
  let base = Gen.by_family ~seed "grid" ~n in
  let g = Embedded.graph base in
  let rot = Embedded.rot base in
  let nv = Graph.n g in
  let rng = Rng.create (seed + 17) in
  let rec attempt a =
    if a > hostile_attempts then
      failwith "Instance.corrupted_rotation: no non-planar swap found";
    let v = Rng.int rng nv in
    let deg = Graph.degree g v in
    if deg < 3 then attempt (a + 1)
    else begin
      let i = Rng.int rng deg in
      let j = (i + 1 + Rng.int rng (deg - 1)) mod deg in
      let orders = Array.init nv (Rotation.order rot) in
      let o = orders.(v) in
      let tmp = o.(i) in
      o.(i) <- o.(j);
      o.(j) <- tmp;
      let rot' = Rotation.of_orders g orders in
      if Rotation.is_planar_embedding g rot' then attempt (a + 1)
      else
        Embedded.make ~outer:(Embedded.outer base)
          ~name:(Printf.sprintf "xrot:%d:%d" n seed)
          g rot'
    end
  in
  attempt 1

(* Two grids with no edge between them: every per-component structure is
   perfectly planar, so only the connectivity screen catches it. *)
let disconnected_union ~seed ~n =
  let half = max 4 (n / 2) in
  let a = Gen.by_family ~seed "grid" ~n:half in
  let b = Gen.by_family ~seed:(seed + 1) "grid" ~n:(max 4 (n - half)) in
  let ga = Embedded.graph a and gb = Embedded.graph b in
  let na = Graph.n ga and nb = Graph.n gb in
  let edges =
    Graph.edges ga
    @ List.map (fun (u, v) -> (u + na, v + na)) (Graph.edges gb)
  in
  let g = Graph.of_edges ~n:(na + nb) edges in
  let orders =
    Array.init (na + nb) (fun v ->
        if v < na then Rotation.order (Embedded.rot a) v
        else Array.map (fun u -> u + na) (Rotation.order (Embedded.rot b) (v - na)))
  in
  Embedded.make ~outer:(Embedded.outer a)
    ~name:(Printf.sprintf "xunion:%d:%d" n seed)
    g
    (Rotation.of_orders g orders)

let hostile_embedded spec =
  let n = max (min_size spec.family) spec.n in
  let seed = spec.seed in
  match spec.family with
  | "xchords1" -> planar_plus_chords ~seed ~n ~k:1
  | "xchords4" -> planar_plus_chords ~seed ~n ~k:4
  | "xchords16" -> planar_plus_chords ~seed ~n ~k:16
  | "xrot" -> corrupted_rotation ~seed ~n
  | "xunion" -> disconnected_union ~seed ~n
  | f -> invalid_arg ("Instance.hostile_embedded: not a hostile family " ^ f)

let embedded spec =
  let n = max (min_size spec.family) spec.n in
  match spec.family with
  | "chords" -> chorded_cycle ~seed:spec.seed ~n
  | "caterpillar" -> Gen.caterpillar ~spine:(max 2 (n / 4)) ~legs:3
  | f -> Gen.by_family ~seed:spec.seed f ~n

(* The configuration uses the rotation's own starting point as the virtual
   root edge position (no [root_first]) — the convention the Composed
   subroutines assume (their local views carry raw rotations), and the one
   test_composed always used.  [Config.of_embedded] would instead pick the
   outward direction, making the centralized and distributed sides
   disagree at the root. *)
let build_clean spec =
  let emb = embedded spec in
  let g = Embedded.graph emb in
  let root = Embedded.outer emb in
  let parent = Spanning.make spec.spanning g ~root in
  let tree = Rooted.build ~rot:(Embedded.rot emb) ~root parent in
  let config = Config.of_parts ~graph:g ~rot:(Embedded.rot emb) ~tree in
  { spec; emb; config }

(* A hostile instance carries the hostile embedding but a placeholder
   config built from a clean grid of the same size: spanning trees and
   configurations are undefined on corrupted input (that is the point of
   the screen), while the Runner/shrinker machinery builds every
   instance the same way and only the [screen] oracle ever reads a
   hostile instance. *)
let build spec =
  if is_hostile spec.family then begin
    let emb = hostile_embedded spec in
    let base = build_clean { spec with family = "grid" } in
    { spec; emb; config = base.config }
  end
  else build_clean spec

let spanning_name = function
  | Spanning.Bfs -> "bfs"
  | Spanning.Dfs -> "dfs"
  | Spanning.Random s -> Printf.sprintf "rand%d" s

let spanning_of_name s =
  match s with
  | "bfs" -> Spanning.Bfs
  | "dfs" -> Spanning.Dfs
  | _ ->
    (match
       if String.length s > 4 && String.sub s 0 4 = "rand" then
         int_of_string_opt (String.sub s 4 (String.length s - 4))
       else None
     with
    | Some k -> Spanning.Random k
    | None -> failwith ("Instance.spanning_of_name: " ^ s))

let to_string spec =
  Printf.sprintf "%s:%d:%d:%s" spec.family spec.n spec.seed
    (spanning_name spec.spanning)

let of_string s =
  match String.split_on_char ':' (String.trim s) with
  | [ family; n; seed; sp ] ->
    if not (List.mem family families || is_hostile family) then
      failwith ("Instance.of_string: unknown family " ^ family);
    (match (int_of_string_opt n, int_of_string_opt seed) with
    | Some n, Some seed -> { family; n; seed; spanning = spanning_of_name sp }
    | _ -> failwith ("Instance.of_string: malformed spec " ^ s))
  | _ -> failwith ("Instance.of_string: malformed spec " ^ s)

let pp fmt spec = Format.pp_print_string fmt (to_string spec)
