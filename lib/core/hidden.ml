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

(* Does the real fundamental edge (a, b) hide node [t] in F_e
   (Definition 4)? *)
let hides cfg ~e:(u, v) ~t (a, b) =
  (a, b) <> (u, v)
  && Faces.edge_in_face cfg ~e:(u, v) ~f:(a, b)
  && Faces.is_inside cfg ~u:a ~v:b t
  &&
  if a <> u && b <> u then true (* condition 1 *)
  else not (subtree_part_in_face cfg ~e:(u, v) ~f:(a, b)) (* condition 2 *)

let hiding_edges cfg ~e ~t =
  List.filter (hides cfg ~e ~t) (Config.fundamental_edges cfg)

let is_hidden cfg ~e ~t = List.exists (hides cfg ~e ~t) (Config.fundamental_edges cfg)

(* The hiding edge not contained in any other hiding edge (NOT-CONTAINED,
   Lemma 17, restricted to the hiding set).  Resolved by an explicit
   pairwise containment scan — the hiding set is small in practice — with
   weight as the priority order among the maximal edges. *)
let maximal_hiding_edge cfg ~e ~t =
  match hiding_edges cfg ~e ~t with
  | [] -> None
  | edges ->
    let strictly_contained f f' =
      f <> f'
      && Faces.edge_in_face cfg ~e:f' ~f
      && not (Faces.edge_in_face cfg ~e:f ~f:f')
    in
    let maximal =
      List.filter
        (fun f -> not (List.exists (fun f' -> strictly_contained f f') edges))
        edges
    in
    let candidates = if maximal = [] then edges else maximal in
    let weighted =
      List.map (fun (a, b) -> ((a, b), Weights.weight cfg ~u:a ~v:b)) candidates
    in
    let best =
      List.fold_left
        (fun acc ((a, b), w) ->
          match acc with
          | None -> Some ((a, b), w)
          | Some ((a', b'), w') ->
            if w > w' || (w = w' && (a, b) < (a', b')) then Some ((a, b), w)
            else Some ((a', b'), w'))
        None weighted
    in
    Option.map fst best
