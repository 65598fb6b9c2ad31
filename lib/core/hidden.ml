(* Hidden nodes and (T, F_e)-compatibility (Definition 4 and Lemma 6).

   A leaf t inside F_e is (T, F_e)-compatible with the endpoint u — i.e. the
   virtual edge ut can be inserted as a valid augmentation — iff no real
   fundamental edge hides it.  Phase 4 of the separator algorithm uses the
   maximal hiding edge as its fallback candidate (Claim 6 of Lemma 7). *)

open Repro_tree

(* Is every node of F_e ∩ T_u also in (the closed region of) F_f?
   Definition 4, condition 2 is the negation of this. *)
let subtree_part_in_face cfg ~e:(u, v) ~f:(a, b) =
  let tree = Config.tree cfg in
  let case = Faces.classify cfg ~u ~v in
  let member z =
    Faces.on_border cfg ~u:a ~v:b z || Faces.is_inside cfg ~u:a ~v:b z
  in
  Faces.inside_children cfg ~u ~v ~case u
  |> List.for_all (fun c ->
         (* All nodes of the subtree of c. *)
         let lo = Rooted.pi_left tree c in
         let ok = ref true in
         for i = lo to lo + Rooted.size tree c - 1 do
           if not (member (Rooted.node_at_left tree i)) then ok := false
         done;
         !ok)

(* Does the table's edge [i], (a, b), hide node [t] in F_e
   (Definition 4)? *)
let hides cfg (ws : Weights.t) ~e:((u, v) as e) ~t i =
  let a = ws.u.(i) and b = ws.v.(i) in
  (a <> u || b <> v)
  &&
  let f = (a, b) in
  Faces.edge_in_face cfg ~e ~f
  && Faces.is_inside cfg ~u:a ~v:b t
  &&
  if a <> u && b <> u then true (* condition 1 *)
  else not (subtree_part_in_face cfg ~e ~f) (* condition 2 *)

let edge (ws : Weights.t) i = (ws.u.(i), ws.v.(i))

(* Indices of the table's edges that hide [t], in index order. *)
let hiding cfg ws ~e ~t =
  let acc = ref [] in
  for i = Array.length ws.Weights.w - 1 downto 0 do
    if hides cfg ws ~e ~t i then acc := i :: !acc
  done;
  !acc

let hiding_edges cfg ws ~e ~t = List.map (edge ws) (hiding cfg ws ~e ~t)

let is_hidden cfg ws ~e ~t =
  let k = Array.length ws.Weights.w in
  let rec from i = i < k && (hides cfg ws ~e ~t i || from (i + 1)) in
  from 0

(* The hiding edge not contained in any other hiding edge (NOT-CONTAINED,
   Lemma 17, restricted to the hiding set).  Resolved by an explicit
   pairwise containment scan — the hiding set is small in practice — with
   the table's weight as the priority order among the maximal edges, ties
   to the smaller edge. *)
let maximal_hiding_edge cfg (ws : Weights.t) ~e ~t =
  match hiding cfg ws ~e ~t with
  | [] -> None
  | hs ->
    let strictly_contained i j =
      i <> j
      && Faces.edge_in_face cfg ~e:(edge ws j) ~f:(edge ws i)
      && not (Faces.edge_in_face cfg ~e:(edge ws i) ~f:(edge ws j))
    in
    let maximal =
      List.filter (fun i -> not (List.exists (strictly_contained i) hs)) hs
    in
    let candidates = if maximal = [] then hs else maximal in
    let better i j =
      ws.w.(i) > ws.w.(j) || (ws.w.(i) = ws.w.(j) && edge ws i < edge ws j)
    in
    let best =
      List.fold_left
        (fun b i -> if better i b then i else b)
        (List.hd candidates) candidates
    in
    Some (edge ws best)
