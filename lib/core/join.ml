(* JOIN-PROBLEM (Lemma 2): grow a partial DFS tree by the nodes of a marked
   cycle separator, following the DFS-RULE.

   Per iteration, every component of the not-yet-visited region that still
   holds marked nodes receives one tree path: from its anchor (the node with
   the deepest neighbour in the partial tree, as the DFS-RULE requires) to
   the deepest remaining marked node of a spanning tree that prefers
   marked-marked edges.  Preferring those edges keeps every surviving piece
   of the separator a path of the spanning tree, so the chosen path absorbs
   at least half of the piece it enters — giving the O(log) iteration bound
   of the paper, which experiment E9 measures.

   The per-iteration queries are batched across components: all anchor
   elections ride one two-slot part-wise MAX over the component partition,
   all target elections one more slot once the preferring forests are
   rooted, and the attach bookkeeping one two-slot SUM — so an iteration
   charges the preferring forests (Lemma 9), their rooted orders
   (Lemma 11, making path activation node-local) and three aggregations,
   instead of the old per-component anchor aggregation + re-root +
   mark-path schedule.  The elections are expressed as integer codes whose
   part-wise maximum realises exactly the serial tie-breaks; the testkit's
   [Reference.Join] keeps the pre-batching choreography verbatim as the
   differential oracle, and [?exec] runs the batched elections for real
   in the message engine ({!Repro_congest.Composed.join_elections}).

   Joins of distinct components may run concurrently (the DFS driver batches
   them over a domain pool): a join writes [parent]/[depth] only for its own
   members, and every neighbour it reads outside the component was already
   visited when the phase began — two unvisited nodes joined by an edge are
   by definition in the same component.  The running unvisited count is an
   [Atomic] so those concurrent attachments keep it exact.  The [?exec]
   path reads the whole graph's state and is NOT pool-safe; it exists for
   the differential suite and the serial-vs-batched benchmark only. *)

open Repro_graph
open Repro_congest

type state = {
  g : Graph.t;
  parent : int array; (* -1 at the DFS root, -2 while unvisited *)
  depth : int array; (* -1 while unvisited *)
  unvisited : int Atomic.t; (* count of parent.(v) = -2 entries *)
}

let create g ~root =
  let n = Graph.n g in
  let parent = Array.make n (-2) in
  let depth = Array.make n (-1) in
  parent.(root) <- -1;
  depth.(root) <- 0;
  { g; parent; depth; unvisited = Atomic.make (n - 1) }

let in_tree st v = st.parent.(v) > -2

let unvisited st = Atomic.get st.unvisited

(* Anchor of a component: the unvisited node with the deepest visited
   neighbour, ties broken by identifiers for determinism: of the candidate
   edges (u, v), u visited and v a member, the one with the deepest u, then
   the smallest u, then the smallest v.  One closure-free scan; returns
   (v, u), or (-1, -1) when no member has a visited neighbour. *)
let elect_anchor st members =
  let best_d = ref (-1) and best_u = ref (-1) and best_v = ref (-1) in
  for i = 0 to Array.length members - 1 do
    let v = members.(i) in
    for j = 0 to Graph.degree st.g v - 1 do
      let u = Graph.nth_neighbor st.g v j in
      if in_tree st u then begin
        let du = st.depth.(u) in
        if
          du > !best_d
          || (du = !best_d && (u < !best_u || (u = !best_u && v < !best_v)))
        then begin
          best_d := du;
          best_u := u;
          best_v := v
        end
      end
    done
  done;
  (!best_v, !best_u)

let component_anchor st members =
  let v, u = elect_anchor st members in
  if v < 0 then None else Some (v, u)

(* Election codes of the engine-backed [?exec] path.  The part-wise MAX of
   the anchor codes (1 + du n^2 + n^2 - 1 - (u n + v), computed in the
   engine by [Composed.join_elections]) picks the candidate edge (u, v) —
   u visited, v an unvisited component member — with the deepest u, ties
   to the lexicographically smallest (u, v): exactly [elect_anchor].  The
   MAX of the target codes picks the deepest node of the rooted preferring
   forest, ties to the first in component order: exactly the serial target
   fold.  Codes are O(n^3) and therefore fit the engine's O(log n)-bit
   message budget; [exec_create] refuses an n whose cube overflows an
   int. *)
let decode_anchor n code =
  let e = (n * n) - 1 - ((code - 1) mod (n * n)) in
  (e / n, e mod n)

let encode_target n ~depth ~rank = 1 + (depth * n) + (n - 1 - rank)
let decode_target_rank n code = n - 1 - ((code - 1) mod n)

(* JOIN's per-domain scratch.  [index] is the vertex -> member-index map
   of [preferring_tree] under the [Graph.Scratch] rule, with the component
   being indexed as its occupant; [remaining] marks the separator nodes not
   yet in the tree, with the separator as its occupant under the same rule.
   Both grow to the graph's n once and are then reused by every component
   of every iteration of every join on that domain, so a join allocates
   nothing proportional to the global n.  Domains never share a scratch, so
   concurrent joins on the pool stay independent. *)
type scratch = { index : Graph.Scratch.t; remaining : Graph.Marks.t }

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { index = Graph.Scratch.create (); remaining = Graph.Marks.create () })

(* Spanning tree of the member set rooted at [anchor], preferring edges
   between still-marked nodes (Kruskal with 0/1 weights: those edges are
   offered first), then BFS over the chosen edges for parents and depths,
   both in member-index space. *)
let preferring_tree st members ~anchor ~marked ~scratch =
  let idx =
    Graph.Scratch.acquire scratch.index (Graph.n st.g) ~occupant:members
  in
  Array.iteri (fun i v -> idx.(v) <- i) members;
  let consider zero edge =
    Array.iter
      (fun v ->
        Graph.iter_neighbors st.g v (fun u ->
            if idx.(u) >= 0 && v < u && (marked v && marked u) = zero then
              edge idx.(v) idx.(u)))
      members
  in
  let tree =
    Repro_tree.Spanning.kruskal_bfs (Array.length members) ~root:idx.(anchor)
      (fun edge ->
        consider true edge;
        consider false edge)
  in
  Array.iter (fun v -> idx.(v) <- -1) members;
  Graph.Scratch.release scratch.index;
  tree

(* Attach the tree path anchor -> target (given by its member rank) to the
   partial DFS tree. *)
let attach st comp ~anchor_parent ~tparent ~target_rank =
  let rec path_to j acc =
    let acc = comp.(j) :: acc in
    if tparent.(j) = -1 then acc else path_to tparent.(j) acc
  in
  let path = path_to target_rank [] in
  let rec walk prev = function
    | [] -> ()
    | v :: rest ->
      st.parent.(v) <- prev;
      st.depth.(v) <- st.depth.(prev) + 1;
      Atomic.decr st.unvisited;
      walk v rest
  in
  walk anchor_parent path

(* Components of the unvisited part of [members]. *)
let unvisited_components st members =
  Algo.restricted_components st.g ~members ~skip:(in_tree st)

type exec = {
  serial : bool;
  bcast_parent : int array;
  bcast_root : int;
  mutable stats : Composed.stats;
}

let exec_create ?(serial = false) st ~root =
  let n = Graph.n st.g in
  if n > 1 && n > max_int / n / n then
    invalid_arg "Join.exec_create: n^3 overflows the election codes";
  (* The broadcast tree is shared setup, identical for both choreographies,
     so its construction cost is deliberately not tallied. *)
  let (bcast_parent, _), _ = Prim.bfs_tree st.g ~root in
  { serial; bcast_parent; bcast_root = root; stats = Collective.no_stats }

(* Add all separator nodes of one original component to the partial DFS
   tree.  Returns the number of halving iterations used. *)
let join_inner ?rounds ?exec st ~members ~separator =
  let n = Graph.n st.g in
  let scratch = Domain.DLS.get scratch_key in
  let remaining =
    Graph.Marks.acquire scratch.remaining n ~occupant:(Array.of_list separator)
  in
  let count = ref 0 in
  let marked v = Bytes.get remaining v = '\001' in
  List.iter
    (fun v ->
      if not (in_tree st v || marked v) then begin
        Bytes.set remaining v '\001';
        incr count
      end)
    separator;
  let iterations = ref 0 in
  while !count > 0 do
    incr iterations;
    (* One iteration, all active components in parallel: preferring
       forests (Lemma 9), their orders rooted at the anchors (Lemma 11 —
       path activation becomes node-local), and the three slot-batched
       aggregations: anchor/marked election, target election, attach
       bookkeeping (Section 6.1). *)
    Rounds.charge rounds Spanning_forest;
    Rounds.charge rounds Dfs_order;
    Rounds.charge rounds Join_elections;
    Rounds.charge rounds Join_target;
    Rounds.charge rounds Join_attach;
    let comps = Array.of_list (unvisited_components st members) in
    let m = Array.length comps in
    let forests = Array.make m None in
    (* Batch A, host side: per-component anchor edges and marked flags
       (what the part-wise MAX computes per part). *)
    let anchor = Array.make m (-1) and anchor_parent = Array.make m (-1) in
    let has_marked = Array.make m 0 in
    let elect_anchors () =
      Array.iteri
        (fun i comp ->
          if Array.exists marked comp then has_marked.(i) <- 1;
          let v, u = elect_anchor st comp in
          anchor.(i) <- v;
          anchor_parent.(i) <- u)
        comps
    in
    let build_forests () =
      Array.iteri
        (fun i comp ->
          if has_marked.(i) > 0 then begin
            if anchor.(i) < 0 then
              invalid_arg "Join.join: component with no tree neighbour";
            let tparent, tdepth =
              preferring_tree st comp ~anchor:anchor.(i) ~marked ~scratch
            in
            forests.(i) <- Some (anchor_parent.(i), tparent, tdepth)
          end)
        comps
    in
    (* Batch B, host side: per-component maximum of the target codes. *)
    let elect_targets () =
      Array.mapi
        (fun i comp ->
          match forests.(i) with
          | None -> 0
          | Some (_, _, tdepth) ->
            let best = ref 0 in
            Array.iteri
              (fun j v ->
                if marked v then begin
                  let c = encode_target n ~depth:tdepth.(j) ~rank:j in
                  if c > !best then best := c
                end)
              comp;
            !best)
        comps
    in
    let attach_all b0 =
      let touched = ref false in
      Array.iteri
        (fun i comp ->
          match forests.(i) with
          | None -> ()
          | Some (anchor_parent, tparent, _) ->
            if b0.(i) > 0 then begin
              attach st comp ~anchor_parent ~tparent
                ~target_rank:(decode_target_rank n b0.(i));
              touched := true;
              Array.iter
                (fun v ->
                  if in_tree st v && marked v then begin
                    Bytes.set remaining v '\000';
                    decr count
                  end)
                comp
            end)
        comps;
      if not !touched then
        invalid_arg "Join.join: no progress — separator nodes unreachable"
    in
    match exec with
    | None ->
      elect_anchors ();
      build_forests ();
      attach_all (elect_targets ())
    | Some e ->
      (* Run the elections for real in the engine; the host callbacks keep
         the forest building and attaching between the batches. *)
      let visited_depth =
        Array.init n (fun v -> if in_tree st v then st.depth.(v) else -1)
      in
      let marked_arr = Array.init n marked in
      let parts = Array.make n m in
      Array.iteri (fun i comp -> Array.iter (fun v -> parts.(v) <- i) comp) comps;
      let forest a =
        Array.iteri
          (fun i comp ->
            let code = a.(0).(comp.(0)) in
            if code > 0 then begin
              let u, v = decode_anchor n code in
              anchor.(i) <- v;
              anchor_parent.(i) <- u
            end;
            has_marked.(i) <- a.(1).(comp.(0)))
          comps;
        build_forests ();
        let target_code = Array.make n 0 in
        Array.iteri
          (fun i comp ->
            match forests.(i) with
            | None -> ()
            | Some (_, _, tdepth) ->
              Array.iteri
                (fun j v ->
                  if marked v then
                    target_code.(v) <- encode_target n ~depth:tdepth.(j) ~rank:j)
                comp)
          comps;
        target_code
      in
      let attach_cb brow =
        attach_all (Array.map (fun comp -> brow.(comp.(0))) comps);
        let rem = Array.init n (fun v -> if marked v then 1 else 0) in
        let unv = Array.init n (fun v -> if in_tree st v then 0 else 1) in
        (rem, unv)
      in
      let (_, _, t), stats =
        if e.serial then
          Composed.Reference.join_elections st.g ~bcast_parent:e.bcast_parent
            ~root:e.bcast_root ~parts ~visited_depth ~marked:marked_arr ~forest
            ~attach:attach_cb
        else
          Composed.join_elections st.g ~bcast_parent:e.bcast_parent
            ~root:e.bcast_root ~parts ~visited_depth ~marked:marked_arr ~forest
            ~attach:attach_cb
      in
      assert (t.(0) = !count);
      e.stats <- Collective.add e.stats stats
  done;
  Graph.Marks.release scratch.remaining;
  !iterations

let join ?rounds ?exec st ~members ~separator =
  Rounds.span rounds "join" (fun () ->
      join_inner ?rounds ?exec st ~members ~separator)
