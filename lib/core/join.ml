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

   In the network, an iteration's queries are batched across components:
   all anchor elections ride one two-slot part-wise MAX over the component
   partition, all target elections one more slot once the preferring
   forests are rooted, and the attach bookkeeping one two-slot SUM — so an
   iteration charges the preferring forests (Lemma 9), their rooted orders
   (Lemma 11, making path activation node-local) and three aggregations.
   The host computes the same elections one component at a time, in
   discovery order: the components of an iteration are disjoint and never
   adjacent, so attaching one changes nothing another one reads.  The
   testkit keeps the pre-batching choreography ([Reference.Join.join]) and
   runs the batched elections in the message engine
   ([Reference.Join.executed]) as differential oracles.

   Joins of distinct components may run concurrently (the DFS driver batches
   them over a domain pool): a join writes [parent]/[depth] only for its own
   members, and every neighbour it reads outside the component was already
   visited when the phase began — two unvisited nodes joined by an edge are
   by definition in the same component. *)

open Repro_graph
open Repro_congest

type state = {
  g : Graph.t;
  parent : int array; (* -1 at the DFS root, -2 while unvisited *)
  depth : int array; (* -1 while unvisited *)
}

let create g ~root =
  let n = Graph.n g in
  let parent = Array.make n (-2) in
  let depth = Array.make n (-1) in
  parent.(root) <- -1;
  depth.(root) <- 0;
  { g; parent; depth }

let in_tree st v = st.parent.(v) > -2

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

(* Components of the unvisited part of [members]. *)
let unvisited_components st members =
  Algo.restricted_components st.g ~members ~skip:(in_tree st)

(* Add all separator nodes of one original component to the partial DFS
   tree.  Returns the number of halving iterations used. *)
let join_inner ?rounds st ~members ~separator =
  let scratch = Domain.DLS.get scratch_key in
  let remaining =
    Graph.Marks.acquire scratch.remaining (Graph.n st.g)
      ~occupant:(Array.of_list separator)
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
    let touched = ref false in
    List.iter
      (fun comp ->
        if Array.exists marked comp then begin
          let anchor, anchor_parent = elect_anchor st comp in
          if anchor < 0 then
            invalid_arg "Join.join: component with no tree neighbour";
          let tparent, tdepth =
            preferring_tree st comp ~anchor ~marked ~scratch
          in
          (* The target: the deepest marked node of the tree, ties to the
             first in component order. *)
          let j = ref (-1) in
          Array.iteri
            (fun i v ->
              if marked v && (!j < 0 || tdepth.(i) > tdepth.(!j)) then j := i)
            comp;
          (* Attach the tree path anchor -> target below [anchor_parent],
             bottom-up, unmarking the separator nodes it absorbs. *)
          let base = st.depth.(anchor_parent) + 1 in
          while !j >= 0 do
            let v = comp.(!j) and p = tparent.(!j) in
            st.parent.(v) <- (if p < 0 then anchor_parent else comp.(p));
            st.depth.(v) <- base + tdepth.(!j);
            if marked v then begin
              Bytes.set remaining v '\000';
              decr count
            end;
            j := p
          done;
          touched := true
        end)
      (unvisited_components st members);
    if not !touched then
      invalid_arg "Join.join: no progress — separator nodes unreachable"
  done;
  Graph.Marks.release scratch.remaining;
  !iterations

let join ?rounds st ~members ~separator =
  Rounds.span rounds "join" (fun () ->
      join_inner ?rounds st ~members ~separator)
