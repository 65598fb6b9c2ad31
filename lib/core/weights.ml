(* Face weights — the paper's deterministic replacement for the randomized
   weight estimation of Ghaffari–Parter.

   [weight] implements Definition 2 exactly for real fundamental edges: an
   O(deg(u) + deg(v) + log n) formula built from the LEFT/RIGHT DFS orders,
   subtree sizes, depths and the locally-computable p-terms.  Lemmas 3 and 4
   state what it counts:

   - u not an ancestor of v: |F~_e| = interior of F_e plus the border path
     from LCA(u,v) to v (w excluded, v included);
   - u an ancestor of v: exactly the interior of F_e.

   The test suite checks the formula against [count_reference], which counts
   those sets from the exact face-traversal interior. *)

open Repro_tree

(* Sum of subtree sizes of the children of [x] hanging inside F_e.  This is
   the paper's p_{F_e}(x): the number of nodes of F_e in the strict subtree
   of x.  The inside children form one clockwise row interval
   ([Faces.inside_range], two binary searches), so the sum is one
   difference of the tree's child prefix sums: O(log deg(x) + log n)
   instead of a scan over every child of x. *)
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

(* Weights of all real fundamental edges (Phase-1 precomputation,
   WEIGHTS-PROBLEM / Lemma 12). *)
let all_weights cfg =
  List.map (fun (u, v) -> ((u, v), weight cfg ~u ~v)) (Config.fundamental_edges cfg)

(* ------------------------------------------------------------------ *)
(* The outside split of Lemma 8.                                       *)
(* ------------------------------------------------------------------ *)

(* Nodes outside F_e split into F_l (visited before the face in the LEFT
   order, or hanging outside below u) and F_r (visited after).  Computed
   from the local interior rule; returns (f_left, f_right) as node lists. *)
let outside_split cfg ~u ~v =
  let tree = Config.tree cfg in
  let n = Config.n cfg in
  let in_face = Array.make n false in
  List.iter (fun x -> in_face.(x) <- true) (Faces.interior cfg ~u ~v);
  List.iter (fun x -> in_face.(x) <- true) (Faces.border cfg ~u ~v);
  let fl = ref [] and fr = ref [] in
  for z = 0 to n - 1 do
    if not (in_face.(z)) then
      if Rooted.pi_left tree z > Rooted.pi_left tree v then fr := z :: !fr
      else fl := z :: !fl
  done;
  (!fl, !fr)
