(* Recursive cycle-separator decomposition — the divide-and-conquer pattern
   of Lipton–Tarjan, driven by the deterministic separators of Theorem 1.

   The graph is recursively split until every piece has at most
   [piece_target] vertices.  Distinct pieces are never adjacent (every path
   between them crosses a removed separator node), so any per-piece solution
   of a "closed under non-adjacency" problem combines trivially; the classic
   application, an approximate maximum independent set, is provided.

   The recursion is executed level-synchronously: all parts of one recursion
   level are node-disjoint, so each level is a batch that an optional domain
   pool distributes over workers (exactly the partition parallelism of
   Theorem 1).  A splitting task only reads the graph and its own members
   and returns its separator plus child components; the shared [removed]
   array and the round ledger are updated on the calling domain, in part
   order, after the batch — results never depend on scheduling.  Each
   level's charged rounds are the maximum over its parts, per the paper's
   parallel-parts model. *)

open Repro_graph
open Repro_embedding


type t = {
  pieces : int list list;
  separator : bool array; (* removed separator nodes *)
  levels : int; (* recursion depth *)
  separator_count : int;
}

(* One split: separator of the part (via the selected backend), then the
   connected remainders.  Pure with respect to shared state — safe as a
   pool task.  The trim goes through the backend's own trim hook, so the
   balanced-trim post-pass applies uniformly regardless of which backend
   produced the separator. *)
let split_part ?rounds ~backend emb members =
  let g = Embedded.graph emb in
  let cfg = Config.of_part ~members ~root:members.(0) emb in
  let local = Option.map Repro_congest.Rounds.like rounds in
  let r = backend.Backend.find ?rounds:local cfg in
  let sep = backend.Backend.trim ?rounds:local cfg r.Separator.separator in
  let sep_global = List.map (Config.to_global cfg) sep in
  (* Guard against stalling when the separator comes back empty (tiny
     pieces): drop at least one vertex so the recursion always makes
     progress. *)
  let sep_global =
    match sep_global with [] -> [ members.(0) ] | s -> s
  in
  let in_sep = Hashtbl.create (2 * List.length sep_global) in
  List.iter (fun v -> Hashtbl.replace in_sep v ()) sep_global;
  let children =
    Algo.restricted_components g ~members ~skip:(Hashtbl.mem in_sep)
  in
  (sep_global, children, local)

let absorb_heaviest rounds locals =
  match rounds with
  | None -> ()
  | Some g -> Repro_congest.Rounds.absorb_heaviest g locals

(* Level-synchronous driver shared by the size- and diameter-bounded
   variants.  [stop] decides whether a part is already a piece (it runs
   inside the batch, in parallel); [guard] bounds the level count. *)
let build_frontier ?rounds ?pool ?backend ?small_part_cutoff ~stop ~guard
    emb =
  let g = Embedded.graph emb in
  let n = Graph.n g in
  let removed = Array.make n false in
  let pieces = ref [] in
  let levels = ref 0 in
  let tracer = Option.bind rounds Repro_congest.Rounds.tracer in
  let pmap ~cost f arr =
    match pool with
    | Some p -> Repro_util.Pool.map ?trace:tracer ~label:"pool.splits" ~cost p f arr
    | None -> Array.map f arr
  in
  let frontier = ref [ Array.init n Fun.id ] in
  let level = ref 0 in
  while !frontier <> [] do
    levels := max !levels !level;
    guard !level;
    (* The level span wraps the batch and the absorb that follows it, so
       the heaviest part's spliced trace lands inside the level. *)
    Repro_trace.Trace.within tracer (Printf.sprintf "decomp.level%d" !level)
    @@ fun () ->
    let batch = Array.of_list !frontier in
    (* Parts at a level are node-disjoint: the batch cost is their total
       node count. *)
    let cost = Array.fold_left (fun a m -> a + Array.length m) 0 batch in
    let results =
      pmap ~cost
        (fun members ->
          if stop members then `Piece members
          else
            `Split
              (split_part ?rounds
                 ~backend:(Backend.for_part ?backend ?small_part_cutoff members)
                 emb members))
        batch
    in
    let locals =
      Array.map
        (function `Split (_, _, local) -> local | `Piece _ -> None)
        results
    in
    absorb_heaviest rounds locals;
    let next = ref [] in
    Array.iter
      (function
        | `Piece members -> pieces := members :: !pieces
        | `Split (sep_global, children, _) ->
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

let build ?rounds ?pool ?(piece_target = 20) ?backend ?small_part_cutoff emb =
  if piece_target < 1 then invalid_arg "Decomposition.build: piece_target >= 1";
  Screen.require ?rounds ~entry:"Decomposition.build" emb;
  build_frontier ?rounds ?pool ?backend ?small_part_cutoff
    ~stop:(fun members -> Array.length members <= piece_target)
    ~guard:(fun _ -> ())
    emb

(* Structural validation: pieces and separator partition V, every piece is
   within the size target, and no edge joins two distinct pieces. *)
let check emb ~piece_target t =
  let g = Embedded.graph emb in
  let n = Graph.n g in
  let owner = Array.make n (-1) in
  let ok = ref true in
  List.iteri
    (fun i members ->
      if List.length members > piece_target then ok := false;
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
   independent in G because pieces are pairwise non-adjacent. *)
let independent_set emb t =
  let g = Embedded.graph emb in
  let n = Graph.n g in
  let solution = ref [] in
  List.iter
    (fun members ->
      let keep = Array.make n false in
      List.iter (fun v -> keep.(v) <- true) members;
      let sub, _, old_of_new = Graph.induced g keep in
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

(* Hop diameter of the subgraph induced by the member set.  The double
   sweep is only a lower bound, so it is used as a cheap split trigger; a
   candidate stop is confirmed with the exact all-sources BFS. *)
let piece_diameter_bfs g inside src =
  let dist = Hashtbl.create 64 in
  let queue = Queue.create () in
  Hashtbl.replace dist src 0;
  Queue.add src queue;
  let far = ref (src, 0) in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let du = Hashtbl.find dist u in
    if du > snd !far then far := (u, du);
    Graph.iter_neighbors g u (fun v ->
        if Hashtbl.mem inside v && not (Hashtbl.mem dist v) then begin
          Hashtbl.replace dist v (du + 1);
          Queue.add v queue
        end)
  done;
  !far

let piece_diameter_exceeds g members target =
  if Array.length members = 0 then false
  else begin
    let first = members.(0) in
    let inside = Hashtbl.create (2 * Array.length members) in
    Array.iter (fun v -> Hashtbl.replace inside v ()) members;
    let far1, _ = piece_diameter_bfs g inside first in
    let _, sweep = piece_diameter_bfs g inside far1 in
    if sweep > target then true
    else
      (* Confirm exactly. *)
      Array.exists
        (fun src -> snd (piece_diameter_bfs g inside src) > target)
        members
  end

let bounded_diameter ?rounds ?pool ?backend ?small_part_cutoff ~diameter_target
    emb =
  if diameter_target < 1 then
    invalid_arg "Decomposition.bounded_diameter: target >= 1";
  Screen.require ?rounds ~entry:"Decomposition.bounded_diameter" emb;
  let g = Embedded.graph emb in
  build_frontier ?rounds ?pool ?backend ?small_part_cutoff
    ~stop:(fun members -> not (piece_diameter_exceeds g members diameter_target))
    ~guard:(fun level ->
      if level > 4 * Graph.n g then
        invalid_arg "Decomposition.bounded_diameter: no progress")
    emb

let check_bounded_diameter emb ~diameter_target t =
  let g = Embedded.graph emb in
  let n = Graph.n g in
  let owner = Array.make n (-1) in
  let ok = ref true in
  List.iteri
    (fun i members ->
      (* Exact per-piece diameter for validation. *)
      let keep = Array.make n false in
      List.iter (fun v -> keep.(v) <- true) members;
      let sub, _, _ = Graph.induced g keep in
      if Algo.diameter_exact sub > diameter_target then ok := false;
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

let is_independent g nodes =
  let chosen = Array.make (Graph.n g) false in
  List.iter (fun v -> chosen.(v) <- true) nodes;
  let ok = ref true in
  Graph.iter_edges g (fun u v -> if chosen.(u) && chosen.(v) then ok := false);
  !ok
