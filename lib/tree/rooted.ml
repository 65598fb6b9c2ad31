(* Rooted spanning trees with children ordered by the planar embedding.

   Following the paper's convention (Section 5.1), the edge from a node to
   its parent sits at position 0 of the node's rotation, and the children
   appear clockwise after it.  The LEFT-DFS-ORDER visits children in
   counterclockwise order (greatest rotation position first); the
   RIGHT-DFS-ORDER visits them clockwise.  Both orders are computed here
   centrally; the CONGEST round cost of the distributed computation
   (Lemma 11) is charged by [Repro_congest.Rounds].

   Children are stored flat: the clockwise child list of [v] occupies
   [ch_off.(v) .. ch_off.(v + 1) - 1] of [ch] — the same CSR idiom as the
   graph, so a tree adds two int arrays instead of n boxed rows. *)

open Repro_embedding

type t = {
  root : int;
  parent : int array; (* -1 at the root *)
  depth : int array;
  ch_off : int array; (* n + 1 offsets into ch *)
  ch : int array; (* n - 1 children, clockwise, parent edge first *)
  size : int array; (* n_T(v): nodes in the subtree rooted at v *)
  pi_left : int array; (* LEFT-DFS-ORDER position, 0-based *)
  left_at : int array; (* inverse of pi_left *)
}

let n t = Array.length t.parent
let root t = t.root
let parent t v = t.parent.(v)
let depth t v = t.depth.(v)
let children_count t v = t.ch_off.(v + 1) - t.ch_off.(v)
let child t v i = t.ch.(t.ch_off.(v) + i)
let children t v = Array.sub t.ch t.ch_off.(v) (children_count t v)

let iter_children t v f =
  for i = t.ch_off.(v) to t.ch_off.(v + 1) - 1 do
    f t.ch.(i)
  done

let fold_children t v f acc =
  let acc = ref acc in
  for i = t.ch_off.(v) to t.ch_off.(v + 1) - 1 do
    acc := f !acc t.ch.(i)
  done;
  !acc

let size t v = t.size.(v)

(* Total subtree size of the children of [v] at row indices [i .. j - 1]. *)
let children_size_between t v i j =
  let s = ref 0 in
  for k = t.ch_off.(v) + i to t.ch_off.(v) + j - 1 do
    s := !s + t.size.(t.ch.(k))
  done;
  !s

let pi_left t v = t.pi_left.(v)

(* RIGHT-DFS-ORDER visits children clockwise, mirroring LEFT, so its
   pre-order is LEFT's post-order reversed: v finishes after its size v - 1
   descendants and the pi_left v - depth v non-ancestors visited before it,
   so pi_right v = n - 1 - (pi_left v - depth v + size v - 1). *)
let pi_right t v = n t - t.pi_left.(v) + t.depth.(v) - t.size.(v)
let node_at_left t i = t.left_at.(i)
let is_leaf t v = children_count t v = 0

(* DFS-interval ancestor test: u is an ancestor of v (reflexively). *)
let is_ancestor t ~anc ~desc =
  t.pi_left.(anc) <= t.pi_left.(desc)
  && t.pi_left.(desc) < t.pi_left.(anc) + t.size.(anc)

let build ?root_first ~rot ~root parent =
  let n = Array.length parent in
  if n = 0 then invalid_arg "Rooted.build: empty tree";
  if parent.(root) <> -1 then invalid_arg "Rooted.build: root must have parent -1";
  (* Children of v in clockwise rotation order, starting right after the
     parent edge.  For the root the virtual parent direction is given by
     [root_first]: the child listed first.  Counted from the parent array
     (O(n)), then filled by walking each rotation once (O(m) total). *)
  let ch_off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    if parent.(v) >= 0 then ch_off.(parent.(v) + 1) <- ch_off.(parent.(v) + 1) + 1
  done;
  for v = 1 to n do
    ch_off.(v) <- ch_off.(v) + ch_off.(v - 1)
  done;
  let ch = Array.make (max 1 ch_off.(n)) (-1) in
  for v = 0 to n - 1 do
    if ch_off.(v + 1) > ch_off.(v) then begin
      let fill = ref ch_off.(v) in
      let d = Rotation.degree rot v in
      let start =
        if v = root then begin
          match root_first with
          | Some f -> Rotation.position rot v f
          | None -> 0
        end
        else Rotation.position rot v parent.(v)
      in
      for k = start to start + d - 1 do
        let u = Rotation.nth rot v (if k < d then k else k - d) in
        if u <> parent.(v) && parent.(u) = v then begin
          ch.(!fill) <- u;
          incr fill
        end
      done
    end
  done;
  let depth = Array.make n (-1) in
  let size = Array.make n 1 in
  (* One iterative pre-order pass for depths and the LEFT order (the stack
     is LIFO, so a clockwise row pushed in order pops its
     counterclockwise-most child first), then a reverse pass over that
     order for subtree sizes; an explicit preallocated stack keeps deep
     paths (Θ(n)) from overflowing without allocating a cons cell per
     visit.  The children relation partitions the vertices, so the stack
     never holds more than n entries. *)
  depth.(root) <- 0;
  let order = Array.make n root in
  let top = ref 0 in
  let stack = Array.make n root in
  let sp = ref 1 in
  while !sp > 0 do
    decr sp;
    let v = stack.(!sp) in
    order.(!top) <- v;
    incr top;
    for i = ch_off.(v) to ch_off.(v + 1) - 1 do
      let c = ch.(i) in
      depth.(c) <- depth.(v) + 1;
      stack.(!sp) <- c;
      incr sp
    done
  done;
  if !top <> n then invalid_arg "Rooted.build: parent array is not a tree";
  for i = n - 1 downto 0 do
    let v = order.(i) in
    for j = ch_off.(v) to ch_off.(v + 1) - 1 do
      size.(v) <- size.(v) + size.(ch.(j))
    done
  done;
  (* LEFT-DFS-ORDER explores the counterclockwise-most unexplored child
     first, i.e. the child with the greatest rotation position. *)
  let left_at = order in
  let pi_left = stack (* spent: every slot is rewritten below *) in
  Array.iteri (fun i v -> pi_left.(v) <- i) left_at;
  { root; parent; depth; ch_off; ch; size; pi_left; left_at }

(* The child of [x] whose subtree holds its strict descendant [z].  LEFT
   order visits the children of [x] counterclockwise, so [pi_left]
   decreases along the clockwise row, and the wanted child is the first
   row entry at or before [z] in LEFT order: one binary search over the
   row, O(log deg(x)). *)
let child_toward t x z =
  let pz = t.pi_left.(z) in
  let lo = ref t.ch_off.(x) and hi = ref (t.ch_off.(x + 1) - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.pi_left.(t.ch.(mid)) <= pz then hi := mid else lo := mid + 1
  done;
  t.ch.(!lo)

(* Climb from [a] until the DFS interval of the current node holds [b]:
   O(depth a - depth (lca a b)), which [path] walks anyway. *)
let lca t a b =
  let a = ref a in
  while not (is_ancestor t ~anc:!a ~desc:b) do
    a := t.parent.(!a)
  done;
  !a

(* Vertices of the tree path from u to v, endpoints included, in order. *)
let path t u v =
  let w = lca t u v in
  let rec climb x acc = if x = w then acc else climb t.parent.(x) (x :: acc) in
  let from_u = List.rev (climb u []) in (* u .. just below w *)
  let from_v = climb v [] in (* just below w .. v *)
  from_u @ [ w ] @ from_v

(* A centroid: removing it leaves components of size <= n/2. *)
let centroid t =
  let total = n t in
  let v = ref t.root in
  let continue_ = ref true in
  while !continue_ do
    let heavy = ref (-1) in
    iter_children t !v (fun c -> if t.size.(c) > total / 2 then heavy := c);
    if !heavy >= 0 then v := !heavy else continue_ := false
  done;
  !v

let edges t =
  let acc = ref [] in
  for v = 0 to n t - 1 do
    if t.parent.(v) >= 0 then acc := (v, t.parent.(v)) :: !acc
  done;
  !acc

(* Re-root the same set of tree edges at a new vertex (RE-ROOT-PROBLEM,
   Lemma 19): tree paths are unique, so any BFS over the tree edges finds
   the new parents.  Children orders are recomputed from the rotation so
   that the re-rooted tree again satisfies the parent-first convention. *)
let reroot ~rot t new_root =
  let tree = Repro_graph.Graph.of_edges ~n:(n t) (edges t) in
  build ~rot ~root:new_root (Repro_graph.Algo.bfs_parents tree new_root)
