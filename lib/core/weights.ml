(* Face weights — the paper's deterministic replacement for the randomized
   weight estimation of Ghaffari–Parter.

   [all_weights] computes Definition 2 for every real fundamental edge in
   one O(m) pass over the rotation system, as Lemma 12 computes WEIGHTS in
   one batch; it is what the separator's Phase 1 uses.  [weight] is the
   per-edge statement of Definition 2: an O(deg(u) + deg(v)) formula
   built from the LEFT/RIGHT DFS orders, subtree sizes, depths and the
   locally-computable p-terms, kept for single-edge callers and as the
   reference the one-pass weights are checked against.  Lemmas 3 and 4
   state what it counts:

   - u not an ancestor of v: |F~_e| = interior of F_e plus the border path
     from LCA(u,v) to v (w excluded, v included);
   - u an ancestor of v: exactly the interior of F_e.

   The test suite checks the formula against [count_reference], which counts
   those sets from the exact face-traversal interior. *)

open Repro_graph
open Repro_embedding
open Repro_tree

(* Sum of subtree sizes of the children of [x] hanging inside F_e.  This is
   the paper's p_{F_e}(x): the number of nodes of F_e in the strict subtree
   of x.  The inside children form one clockwise row interval
   ([Faces.inside_range], two binary searches), so the sum is one
   difference of the tree's child prefix sums: O(log deg(x)) instead of a
   scan over every child of x. *)
let p_term cfg ~u ~v ~case x =
  let lo, hi = Faces.inside_range cfg ~u ~v ~case x in
  Rooted.children_size_between (Config.tree cfg) x lo hi

let weight cfg ~u ~v =
  let tree = Config.tree cfg in
  let case = Faces.classify cfg ~u ~v in
  let pu = p_term cfg ~u ~v ~case u in
  let pv = p_term cfg ~u ~v ~case v in
  match case with
  | Faces.Unrelated ->
    (* Definition 2, case 1. *)
    pu + pv + Rooted.pi_left tree v
    - (Rooted.pi_left tree u + Rooted.size tree u)
    + 1
  | Faces.Anc_right ->
    (* Definition 2, case 2: the orientation where the fundamental edge
       leaves u clockwise-after the path child pairs with the LEFT order —
       this follows the proof of Lemma 4 (the labels in Definition 2 itself
       have the two orders swapped; the proof is the consistent version). *)
    let z = Faces.child_toward cfg u v in
    pu + pv
    + (Rooted.pi_left tree v - Rooted.pi_left tree z)
    - (Rooted.depth tree v - Rooted.depth tree z)
  | Faces.Anc_left ->
    let z = Faces.child_toward cfg u v in
    pu + pv
    + (Rooted.pi_right tree v - Rooted.pi_right tree z)
    - (Rooted.depth tree v - Rooted.depth tree z)

(* The set Definition 2 is proven to count (Lemmas 3 and 4), measured from
   the exact interior: ground truth for the formula. *)
let count_reference cfg ~u ~v =
  let tree = Config.tree cfg in
  let interior = Faces.interior_reference cfg ~u ~v in
  match Faces.classify cfg ~u ~v with
  | Faces.Anc_left | Faces.Anc_right -> List.length interior
  | Faces.Unrelated ->
    (* Interior plus the border path from w (exclusive) to v (inclusive). *)
    let w = Rooted.lca tree u v in
    List.length interior + (Rooted.depth tree v - Rooted.depth tree w)

(* Real fundamental edges (u.(i), v.(i)), normalized pi_left u < pi_left v,
   with their weights w.(i). *)
type t = { u : int array; v : int array; w : int array }

let to_list ws =
  List.init (Array.length ws.w) (fun i -> ((ws.u.(i), ws.v.(i)), ws.w.(i)))

(* Weights of all real fundamental edges (Phase-1 precomputation,
   WEIGHTS-PROBLEM / Lemma 12), in [Config.fundamental_edges] order, in one
   O(m) pass.  Each vertex's rotation is walked once, clockwise from its
   anchor, recording for every dart x->y the summed subtree sizes of the
   children of x met before y ([before]); at a child c that sum is [sib c],
   the sizes of its earlier siblings.  The p-terms of Definition 2 are then
   differences of these sums, with z the child of u towards v:

   - Unrelated: p(u) = before(u->v), p(v) = size v - 1 - before(v->u);
   - Anc_right: p(u) = before(u->v) - (sib z + size z), p(v) as above;
   - Anc_left: p(u) = sib z - before(u->v), p(v) = before(v->u).

   The case is one comparison too: v comes before z clockwise around u iff
   before(u->v) <= sib z, as z alone adds size z >= 1 past it. *)
let all_weights cfg =
  let g = Config.graph cfg in
  let rot = Config.rot cfg in
  let tree = Config.tree cfg in
  let n = Config.n cfg in
  let pl = Rooted.pi_left tree and size = Rooted.size tree in
  (* [before.(Graph.adj_offset g x + i)] belongs to the dart from x to its
     i-th rotation neighbour; a leaf's darts all stay 0. *)
  let before = Array.make (2 * Graph.m g) 0 in
  let sib = Array.make n 0 in
  for x = 0 to n - 1 do
    if not (Rooted.is_leaf tree x) then begin
      let off = Graph.adj_offset g x in
      let d = Rotation.degree rot x in
      let a = Faces.anchor cfg x in
      let acc = ref 0 in
      for k = a to a + d - 1 do
        let i = if k < d then k else k - d in
        let y = Rotation.nth rot x i in
        before.(off + i) <- !acc;
        if Rooted.parent tree y = x then begin
          sib.(y) <- !acc;
          acc := !acc + size y
        end
      done
    end
  done;
  let weight_of u v ~bu ~bv =
    if Rooted.is_ancestor tree ~anc:u ~desc:v then begin
      let z = Faces.child_toward cfg u v in
      let path = Rooted.depth tree v - Rooted.depth tree z in
      if bu <= sib.(z) then
        (* Anc_left *)
        sib.(z) - bu + bv
        + (Rooted.pi_right tree v - Rooted.pi_right tree z)
        - path
      else
        (* Anc_right *)
        bu - (sib.(z) + size z) + (size v - 1 - bv) + (pl v - pl z) - path
    end
    else (* Unrelated *)
      bu + (size v - 1 - bv) + pl v - (pl u + size u) + 1
  in
  (* The spanning tree takes n - 1 of the m edges; the other m - n + 1
     are filled from the back, so index order is the order in which
     [Config.fundamental_edges] prepends them.  Edges come as in
     [Graph.iter_edges]: (x, y), x < y, by increasing x.  Rows are sorted,
     so the x's reaching a given y arrive in the order of y's row, and
     [next.(y)] is the slot of x in that row. *)
  let k = Graph.m g - n + 1 in
  let ws = { u = Array.make k 0; v = Array.make k 0; w = Array.make k 0 } in
  let i = ref k in
  let next = Array.init n (Graph.adj_offset g) in
  for x = 0 to n - 1 do
    let off = Graph.adj_offset g x in
    for r = 0 to Graph.degree g x - 1 do
      let y = Graph.nth_neighbor g x r in
      if x < y then begin
        let ry = next.(y) - Graph.adj_offset g y in
        next.(y) <- next.(y) + 1;
        if Rooted.parent tree x <> y && Rooted.parent tree y <> x then begin
          let bx = before.(off + Rotation.position_of_rank rot x r) in
          let by =
            before.(Graph.adj_offset g y + Rotation.position_of_rank rot y ry)
          in
          decr i;
          if pl x < pl y then begin
            ws.u.(!i) <- x;
            ws.v.(!i) <- y;
            ws.w.(!i) <- weight_of x y ~bu:bx ~bv:by
          end
          else begin
            ws.u.(!i) <- y;
            ws.v.(!i) <- x;
            ws.w.(!i) <- weight_of y x ~bu:by ~bv:bx
          end
        end
      end
    done
  done;
  ws

(* ------------------------------------------------------------------ *)
(* The outside split of Lemma 8.                                       *)
(* ------------------------------------------------------------------ *)

(* Nodes outside F_e split into F_l (visited before the face in the LEFT
   order, or hanging outside below u) and F_r (visited after).  Only their
   sizes decide what Phase 5 does next, and both come from the face alone:
   [pi_left] is a permutation, so n - 1 - pi_left v nodes follow v in the
   LEFT order, and F_r is those outside the face.  A side's node list is
   built only when [region] is called, from the local interior rule. *)
let outside_split cfg ~u ~v =
  let tree = Config.tree cfg in
  let n = Config.n cfg in
  let pv = Rooted.pi_left tree v in
  let interior = Faces.interior cfg ~u ~v in
  let border = Faces.border cfg ~u ~v in
  let count_after =
    List.fold_left (fun a z -> if Rooted.pi_left tree z > pv then a + 1 else a)
  in
  let face_after = count_after (count_after 0 interior) border in
  let nr = n - 1 - pv - face_after in
  let nl = n - List.length interior - List.length border - nr in
  let region side =
    let in_face = Bytes.make n '\000' in
    List.iter (fun x -> Bytes.set in_face x '\001') interior;
    List.iter (fun x -> Bytes.set in_face x '\001') border;
    let right = side = `Right in
    let acc = ref [] in
    for z = 0 to n - 1 do
      if Bytes.get in_face z = '\000' && (Rooted.pi_left tree z > pv) = right
      then
        acc := z :: !acc
    done;
    !acc
  in
  (nl, nr, region)
