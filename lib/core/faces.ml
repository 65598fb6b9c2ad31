(* Fundamental faces of a planar configuration (paper, Sections 2 and 4).

   For a real fundamental edge e = uv (normalized pi_left(u) < pi_left(v))
   the fundamental face F_e is the face of T + e that does not contain the
   virtual root.  Two implementations coexist:

   - [is_inside] / [inside_range] / [interior]: the paper's local
     characterization (Claims 1, 3, 4, 5 and Remark 1) in O(log n) per query
     — what the distributed algorithm can evaluate, what the weight formula
     of Definition 2 consumes, and what the production separator's Phases 4
     and 5 use to enumerate a face.

   - [interior_reference]: exact, by traversing the two faces of T + e in the
     induced rotation system and discarding the one holding the root corner.
     O(n) per edge, and it rebuilds T + e as a graph every call; ground truth
     for the tests and the fuzz oracles only.  Their agreement is enforced
     on whole-graph and part configurations alike. *)

open Repro_graph
open Repro_embedding
open Repro_tree

type edge_case = Unrelated | Anc_left | Anc_right

(* Normalized rotation position: the parent edge (or the virtual root edge
   position) is at 0 and positions grow clockwise. *)
let anchor cfg x =
  let tree = Config.tree cfg in
  if x = Rooted.root tree then begin
    match Config.root_first cfg with
    | Some f -> Rotation.position (Config.rot cfg) x f
    | None -> 0
  end
  else Rotation.position (Config.rot cfg) x (Rooted.parent tree x)

(* [npos_at cfg x] resolves the anchor of [x] once, for repeated queries
   at one node. *)
let npos_at cfg x =
  let rot = Config.rot cfg in
  let d = Rotation.degree rot x in
  let a = anchor cfg x in
  fun y -> ((Rotation.position rot x y - a) + d) mod d

(* Child of [x] on the tree path towards its strict descendant [z]. *)
let child_toward cfg x z = Rooted.child_toward (Config.tree cfg) x z

let classify cfg ~u ~v =
  let tree = Config.tree cfg in
  if Rooted.is_ancestor tree ~anc:u ~desc:v then begin
    let np = npos_at cfg u in
    if np v < np (child_toward cfg u v) then Anc_left else Anc_right
  end
  else Unrelated

(* The border is every ancestor of u or v that is not a strict ancestor of
   their LCA w.  Above w, u and v hang below the same child; at w (and at
   an endpoint that is an ancestor of the other) they do not. *)
let on_border cfg ~u ~v x =
  let tree = Config.tree cfg in
  let au = Rooted.is_ancestor tree ~anc:x ~desc:u in
  let av = Rooted.is_ancestor tree ~anc:x ~desc:v in
  (au || av)
  && not
       (au && av && x <> u && x <> v
       && child_toward cfg x u = child_toward cfg x v)

let border cfg ~u ~v = Rooted.path (Config.tree cfg) u v

(* ------------------------------------------------------------------ *)
(* Local classification of the tree children of a border node          *)
(* (Claims 1 and 4).                                                   *)
(* ------------------------------------------------------------------ *)

(* Claims 1 and 4 as an angular window: a neighbour y of border node [x]
   (not itself on the border) lies inside F_e iff lo < np y < hi, where
   [np] is [npos_at cfg x].  The bounds are the positions of border
   neighbours — which the strict inequalities exclude — or the open ends
   -1 and deg(x). *)
let inside_window cfg ~u ~v ~case x np =
  let tree = Config.tree cfg in
  let d = Rotation.degree (Config.rot cfg) x in
  match case with
  | Unrelated ->
    let au = Rooted.is_ancestor tree ~anc:x ~desc:u in
    if x = u then (-1, np v) (* Claim 1 (ii) *)
    else if x = v then (np u, d) (* Claim 1 (iii) *)
    else if au && Rooted.is_ancestor tree ~anc:x ~desc:v then
      (* Claim 1 (i): the border node above both endpoints is their LCA w;
         strictly between the branch to v and the branch to u. *)
      (np (child_toward cfg x v), np (child_toward cfg x u))
    else if au then
      (* Claim 1 (iv): interior node of the w->u branch. *)
      (-1, np (child_toward cfg x u))
    else (* Claim 1 (v): interior node of the w->v branch. *)
      (np (child_toward cfg x v), d)
  | Anc_right ->
    (* u is an ancestor of v and the edge leaves u clockwise-after the path
       child w1 (Claim 4 with t_u(v) > t_u(w1)). *)
    if x = u then (np (child_toward cfg u v), np v)
    else if x = v then (np u, d)
    else (np (child_toward cfg x v), d)
  | Anc_left ->
    (* Mirror image of Anc_right. *)
    if x = u then (np v, np (child_toward cfg u v))
    else if x = v then (-1, np u)
    else (-1, np (child_toward cfg x v))

(* Is the tree child [c] of border node [x] inside F_e?  [c] itself must not
   be on the border. *)
let child_inside cfg ~u ~v ~case x c =
  let np = npos_at cfg x in
  let lo, hi = inside_window cfg ~u ~v ~case x np in
  let p = np c in
  lo < p && p < hi

(* The same rule as a row interval.  [Rooted.build] lays the children of
   [x] out clockwise from its anchor, i.e. in increasing normalized
   position, so the children inside the window are the row indices
   [lo .. hi - 1], found by two binary searches: O(log deg(x)) per border
   node, the window's own [child_toward] included. *)
let inside_range cfg ~u ~v ~case x =
  let tree = Config.tree cfg in
  let np = npos_at cfg x in
  let lo_b, hi_b = inside_window cfg ~u ~v ~case x np in
  (* First row index whose child sits at a normalized position > [p]. *)
  let first_above p =
    let lo = ref 0 and hi = ref (Rooted.children_count tree x) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if np (Rooted.child tree x mid) > p then hi := mid else lo := mid + 1
    done;
    !lo
  in
  let lo = first_above lo_b in
  (lo, max lo (first_above (hi_b - 1)))

(* Tree children of border node [x] lying inside F_e, in rotation order. *)
let inside_children cfg ~u ~v ~case x =
  let tree = Config.tree cfg in
  let lo, hi = inside_range cfg ~u ~v ~case x in
  List.init (hi - lo) (fun i -> Rooted.child tree x (lo + i))

(* ------------------------------------------------------------------ *)
(* Interior membership in O(log n) (Remark 1 + Claims 3 and 5).        *)
(* ------------------------------------------------------------------ *)

let is_inside cfg ~u ~v z =
  let tree = Config.tree cfg in
  let case = classify cfg ~u ~v in
  if on_border cfg ~u ~v z then false
  else begin
    match case with
    | Unrelated ->
      if Rooted.is_ancestor tree ~anc:u ~desc:z then
        child_inside cfg ~u ~v ~case u (child_toward cfg u z)
      else if Rooted.is_ancestor tree ~anc:v ~desc:z then
        child_inside cfg ~u ~v ~case v (child_toward cfg v z)
      else begin
        (* Claim 3 interval, with border nodes already excluded.  u and v
           lie in the subtree of their LCA, a LEFT interval, so every
           position strictly between them does too. *)
        let pl = Rooted.pi_left tree in
        pl z > pl u + Rooted.size tree u - 1 && pl z < pl v
      end
    | Anc_left | Anc_right ->
      if not (Rooted.is_ancestor tree ~anc:u ~desc:z) || z = u then false
      else begin
        let w1 = child_toward cfg u v in
        let c = child_toward cfg u z in
        if c <> w1 then child_inside cfg ~u ~v ~case u c
        else if Rooted.is_ancestor tree ~anc:v ~desc:z then
          child_inside cfg ~u ~v ~case v (child_toward cfg v z)
        else begin
          (* Claim 5 interval: Anc_right (the orientation of the Lemma 4
             proof) pairs with the LEFT order, Anc_left with the RIGHT. *)
          let pi =
            match case with
            | Anc_right | Unrelated -> Rooted.pi_left tree
            | Anc_left -> Rooted.pi_right tree
          in
          pi z >= pi w1 && pi z < pi v
        end
      end
  end

(* All interior members, via the local rule: union of the subtrees hanging
   inside at each border node.  O(|border| * log n + |interior|) — what
   Phases 4 and 5 of the separator consume. *)
let interior cfg ~u ~v =
  let tree = Config.tree cfg in
  let case = classify cfg ~u ~v in
  let acc = ref [] in
  List.iter
    (fun x ->
      let lo, hi = inside_range cfg ~u ~v ~case x in
      for k = lo to hi - 1 do
        (* The whole subtree of an inside child is inside. *)
        let c = Rooted.child tree x k in
        let first = Rooted.pi_left tree c in
        for i = first to first + Rooted.size tree c - 1 do
          acc := Rooted.node_at_left tree i :: !acc
        done
      done)
    (border cfg ~u ~v);
  !acc

(* ------------------------------------------------------------------ *)
(* Exact reference via the two faces of T + e.                         *)
(* ------------------------------------------------------------------ *)

(* Rotation of T + e induced by the configuration's rotation; the root's
   order starts at the position of the virtual root edge. *)
let tree_plus_edge cfg ~u ~v =
  let g = Config.graph cfg in
  let tree = Config.tree cfg in
  let nn = Config.n cfg in
  let root = Rooted.root tree in
  let g' = Graph.of_edges ~n:nn ((u, v) :: Rooted.edges tree) in
  let orders =
    Array.init nn (fun x ->
        let raw =
          if x = root then begin
            match Config.root_first cfg with
            | Some f -> Rotation.order_from (Config.rot cfg) x ~first:f
            | None -> Rotation.order (Config.rot cfg) x
          end
          else Rotation.order (Config.rot cfg) x
        in
        raw |> Array.to_list
        |> List.filter (fun y -> Graph.mem_edge g' x y)
        |> Array.of_list)
  in
  ignore g;
  (g', Rotation.of_orders g' orders)

let interior_reference cfg ~u ~v =
  let tree = Config.tree cfg in
  let root = Rooted.root tree in
  let g', rot' = tree_plus_edge cfg ~u ~v in
  let faces = Rotation.faces g' rot' in
  (match faces with
  | [ _; _ ] -> ()
  | fs ->
    invalid_arg
      (Printf.sprintf "Faces.interior_reference: expected 2 faces, got %d"
         (List.length fs)));
  (* The outer face is the one containing the root corner where the virtual
     root edge sits: the dart from the root to the first neighbour of its
     rotation. *)
  let first_nbr = (Rotation.order rot' root).(0) in
  let is_outer f = List.exists (fun d -> d = (root, first_nbr)) f in
  let inner =
    match faces with
    | [ a; b ] -> if is_outer a then b else a
    | _ -> assert false
  in
  let on_cycle = Hashtbl.create 64 in
  List.iter (fun x -> Hashtbl.replace on_cycle x ()) (border cfg ~u ~v);
  let members = Hashtbl.create 64 in
  List.iter
    (fun (a, b) ->
      if not (Hashtbl.mem on_cycle a) then Hashtbl.replace members a ();
      if not (Hashtbl.mem on_cycle b) then Hashtbl.replace members b ())
    inner;
  Hashtbl.fold (fun x () acc -> x :: acc) members []

(* Containment: is the real fundamental edge f inside (the closed region of)
   F_e?  Both endpoints must lie on F_e, and when both sit on the border the
   edge must actually be drawn on the interior side — checked with the same
   positional rule that classifies border corners (Claims 1 and 4 apply to
   arbitrary neighbours of border nodes, not only tree children). *)
let edge_in_face cfg ~e:(u, v) ~f:(a, b) =
  if (a, b) = (u, v) || (b, a) = (u, v) then false
  else begin
    let inside z = is_inside cfg ~u ~v z in
    let bord z = on_border cfg ~u ~v z in
    let member z = inside z || bord z in
    member a && member b
    && (inside a || inside b
       ||
       let case = classify cfg ~u ~v in
       child_inside cfg ~u ~v ~case a b)
  end
