(* Recursive cycle-separator decomposition — the divide-and-conquer pattern
   of Lipton–Tarjan, driven by the deterministic separators of Theorem 1.

   The graph is recursively split until every piece has at most
   [piece_target] vertices.  Distinct pieces are never adjacent (every path
   between them crosses a removed separator node), so any per-piece solution
   of a "closed under non-adjacency" problem combines trivially; the classic
   application, an approximate maximum independent set, is provided.

   The recursion is executed level-synchronously: all parts of one recursion
   level are node-disjoint, so each level is one [Rounds.map_parts] batch
   (exactly the partition parallelism of Theorem 1; the parallel-parts
   charge is stated there).  A splitting task only reads the graph and its
   own members and returns its separator plus child components; the shared
   [removed] array is updated on the calling domain, in part order, after
   the batch — results never depend on scheduling. *)

open Repro_graph
open Repro_embedding


type t = {
  pieces : int list list;
  separator : bool array; (* removed separator nodes *)
  levels : int; (* recursion depth *)
  separator_count : int;
}

(* The separator set of [split_part], one per domain under the
   [Graph.Marks] rule: its occupant is the separator, so the next split on
   that domain clears it. *)
let separator_marks_key = Domain.DLS.new_key Graph.Marks.create

(* One split: separator of the part (via the selected backend), then the
   connected remainders.  Pure with respect to shared state — safe as a
   pool task.  The trim goes through the backend's own trim hook, so the
   balanced-trim post-pass applies uniformly regardless of which backend
   produced the separator. *)
let split_part ?rounds ~backend emb members =
  let g = Embedded.graph emb in
  let cfg = Config.of_part ~members ~root:members.(0) emb in
  let r = backend.Backend.find ?rounds cfg in
  let sep = backend.Backend.trim ?rounds cfg r.Separator.separator in
  let sep_global = List.map (Config.to_global cfg) sep in
  (* Guard against stalling when the separator comes back empty (tiny
     pieces): drop at least one vertex so the recursion always makes
     progress. *)
  let sep_global =
    match sep_global with [] -> [ members.(0) ] | s -> s
  in
  let in_sep =
    Graph.Marks.acquire
      (Domain.DLS.get separator_marks_key)
      (Graph.n g)
      ~occupant:(Array.of_list sep_global)
  in
  List.iter (fun v -> Bytes.set in_sep v '\001') sep_global;
  let children =
    Algo.restricted_components g ~members ~skip:(fun v ->
        Bytes.get in_sep v = '\001')
  in
  (sep_global, children)

(* Level-synchronous driver shared by the size- and diameter-bounded
   variants.  [stop] decides whether a part is already a piece (it runs
   inside the batch, in parallel); [guard] bounds the level count. *)
let build_frontier ?rounds ?pool ~backend ~stop ~guard emb =
  let g = Embedded.graph emb in
  let n = Graph.n g in
  let removed = Array.make n false in
  let pieces = ref [] in
  let levels = ref 0 in
  let frontier = ref [ Array.init n Fun.id ] in
  let level = ref 0 in
  while !frontier <> [] do
    levels := max !levels !level;
    guard !level;
    (* The level span wraps the batch and the absorb that follows it, so
       the heaviest part's spliced trace lands inside the level. *)
    Repro_congest.Rounds.span rounds (Printf.sprintf "decomp.level%d" !level)
    @@ fun () ->
    let batch = Array.of_list !frontier in
    (* Parts at a level are node-disjoint: the batch cost is their total
       node count. *)
    let cost = Array.fold_left (fun a m -> a + Array.length m) 0 batch in
    let results =
      Repro_congest.Rounds.map_parts ?rounds ?pool ~label:"pool.splits" ~cost
        (fun ?rounds members ->
          if stop members then `Piece members
          else `Split (split_part ?rounds ~backend emb members))
        batch
    in
    let next = ref [] in
    Array.iter
      (function
        | `Piece members -> pieces := members :: !pieces
        | `Split (sep_global, children) ->
          List.iter (fun v -> removed.(v) <- true) sep_global;
          List.iter (fun c -> next := c :: !next) children)
      results;
    frontier := List.rev !next;
    incr level
  done;
  let separator_count =
    Array.fold_left (fun acc r -> if r then acc + 1 else acc) 0 removed
  in
  {
    pieces = List.rev_map Array.to_list !pieces;
    separator = removed;
    levels = !levels;
    separator_count;
  }

let build ?rounds ?pool ?(piece_target = 20) ?(backend = Backend.default ())
    emb =
  if piece_target < 1 then invalid_arg "Decomposition.build: piece_target >= 1";
  Screen.require ?rounds ~entry:"Decomposition.build" emb;
  build_frontier ?rounds ?pool ~backend
    ~stop:(fun members -> Array.length members <= piece_target)
    ~guard:(fun _ -> ())
    emb

(* Structural validation: pieces and separator partition V, every piece
   passes [piece_ok], and no edge joins two distinct pieces. *)
let valid_partition emb t ~piece_ok =
  let g = Embedded.graph emb in
  let n = Graph.n g in
  let owner = Array.make n (-1) in
  let ok = ref true in
  List.iteri
    (fun i members ->
      if not (piece_ok members) then ok := false;
      List.iter
        (fun v ->
          if owner.(v) >= 0 || t.separator.(v) then ok := false;
          owner.(v) <- i)
        members)
    t.pieces;
  for v = 0 to n - 1 do
    if owner.(v) < 0 && not t.separator.(v) then ok := false
  done;
  Graph.iter_edges g (fun u v ->
      if owner.(u) >= 0 && owner.(v) >= 0 && owner.(u) <> owner.(v) then ok := false);
  !ok

let check emb ~piece_target t =
  valid_partition emb t ~piece_ok:(fun members ->
      List.length members <= piece_target)

(* Exact maximum independent set of a tiny graph: branch on a max-degree
   vertex.  Exponential in the worst case — callers bound the piece size. *)
let rec exact_mis g alive =
  let pick =
    let best = ref (-1) and best_deg = ref 0 in
    for v = 0 to Graph.n g - 1 do
      if alive.(v) then begin
        let deg =
          Graph.fold_neighbors g v
            (fun acc u -> if alive.(u) then acc + 1 else acc)
            0
        in
        if deg > !best_deg then begin
          best := v;
          best_deg := deg
        end
      end
    done;
    if !best < 0 then None else Some !best
  in
  match pick with
  | None ->
    let acc = ref [] in
    Array.iteri (fun v a -> if a then acc := v :: !acc) alive;
    !acc
  | Some v ->
    let without =
      let alive' = Array.copy alive in
      alive'.(v) <- false;
      exact_mis g alive'
    in
    let with_v =
      let alive' = Array.copy alive in
      alive'.(v) <- false;
      Graph.iter_neighbors g v (fun u -> alive'.(u) <- false);
      v :: exact_mis g alive'
    in
    if List.length with_v >= List.length without then with_v else without

(* Lipton–Tarjan application: exact MIS inside every piece; the union is
   independent in G because pieces are pairwise non-adjacent.  Each piece
   is built on one scratch, so the work is linear in the pieces. *)
let independent_set emb t =
  let g = Embedded.graph emb in
  let scratch = Graph.Scratch.create () in
  let solution = ref [] in
  List.iter
    (fun members ->
      let sub, _, old_of_new =
        Graph.induced_members ~scratch g (Array.of_list members)
      in
      let mis = exact_mis sub (Array.make (Graph.n sub) true) in
      List.iter (fun v -> solution := old_of_new.(v) :: !solution) mis)
    t.pieces;
  !solution

(* ------------------------------------------------------------------ *)
(* Bounded-diameter decomposition — the application cited in Section    *)
(* 1.2 (the BDD of Li–Parter, where randomness was only needed for the  *)
(* separators): recursively split until every piece has hop diameter    *)
(* at most the target.                                                  *)
(* ------------------------------------------------------------------ *)

(* The stop test builds each part on a per-domain scratch, so it touches
   nothing proportional to the global n. *)
let piece_scratch_key = Domain.DLS.new_key Graph.Scratch.create

(* "Hop diameter of the induced piece > target", exactly. *)
let diameter_exceeds g members target =
  let sub, _, _ =
    Graph.induced_members ~scratch:(Domain.DLS.get piece_scratch_key) g members
  in
  Algo.diameter_exceeds sub target

let bounded_diameter ?rounds ?pool ?(backend = Backend.default ())
    ~diameter_target emb =
  if diameter_target < 1 then
    invalid_arg "Decomposition.bounded_diameter: target >= 1";
  Screen.require ?rounds ~entry:"Decomposition.bounded_diameter" emb;
  let g = Embedded.graph emb in
  build_frontier ?rounds ?pool ~backend
    ~stop:(fun members -> not (diameter_exceeds g members diameter_target))
    ~guard:(fun level ->
      if level > 4 * Graph.n g then
        invalid_arg "Decomposition.bounded_diameter: no progress")
    emb

(* The per-piece stop test, asked again of the final pieces. *)
let check_bounded_diameter emb ~diameter_target t =
  let g = Embedded.graph emb in
  valid_partition emb t ~piece_ok:(fun members ->
      not (diameter_exceeds g (Array.of_list members) diameter_target))

let is_independent g nodes =
  let chosen = Array.make (Graph.n g) false in
  List.iter (fun v -> chosen.(v) <- true) nodes;
  let ok = ref true in
  Graph.iter_edges g (fun u v -> if chosen.(u) && chosen.(v) then ok := false);
  !ok
