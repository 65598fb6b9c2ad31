(* Planarity testing and embedding of arbitrary graphs.

   The generators build rotation systems from coordinates; this module
   handles graphs that arrive without geometry, which is what the paper's
   Proposition 1 assumes exists ([GH16] computes it distributively).

   Algorithm: Demoucron–Malgrange–Pertuiset (DMP) vertex-addition embedding
   on each biconnected block, glued at cut vertices.

   - Blocks are found with the classic Hopcroft–Tarjan lowpoint scan
     (iterative, so Θ(n)-deep DFS trees are fine).
   - DMP embeds a block face by face: starting from any cycle, repeatedly
     take a *fragment* (a bridge of the embedded subgraph), check which
     faces can host it (all attachment vertices on the face), and embed one
     fragment path through a hosting face, splitting it in two.  A fragment
     with no admissible face certifies non-planarity; a fragment with
     exactly one admissible face is forced and is processed first, which is
     what makes DMP correct.
   - Faces of a 2-connected plane graph are simple cycles, so faces are
     stored as vertex cycles; the final rotation system is recovered from
     the face set via the face-traversal successor rule.

   O(n m) per block — ample for simulator-scale instances, and validated by
   the Euler check and the straight-line/Kuratowski tests in the suite. *)

open Repro_graph

type outcome = Planar of Rotation.t | Not_planar

(* ------------------------------------------------------------------ *)
(* Biconnected components (Hopcroft–Tarjan), iterative.                 *)
(* Returns the edge set of every block.                                 *)
(* ------------------------------------------------------------------ *)

let biconnected_components g =
  let n = Graph.n g in
  let num = Array.make n (-1) in
  let low = Array.make n 0 in
  let parent = Array.make n (-1) in
  let counter = ref 0 in
  let edge_stack = ref [] in
  let blocks = ref [] in
  let pop_block u v =
    (* Pop edges up to and including (u, v). *)
    let rec go acc =
      match !edge_stack with
      | [] -> acc
      | (a, b) :: rest ->
        edge_stack := rest;
        let acc = (a, b) :: acc in
        if (a, b) = (u, v) || (b, a) = (u, v) then acc else go acc
    in
    let block = go [] in
    if block <> [] then blocks := block :: !blocks
  in
  for start = 0 to n - 1 do
    if num.(start) < 0 then begin
      (* Iterative DFS with an explicit neighbour cursor. *)
      let cursor = Array.make n 0 in
      let stack = ref [ start ] in
      num.(start) <- !counter;
      low.(start) <- !counter;
      incr counter;
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | u :: rest ->
          let adj = Graph.neighbors g u in
          if cursor.(u) < Array.length adj then begin
            let v = adj.(cursor.(u)) in
            cursor.(u) <- cursor.(u) + 1;
            if num.(v) < 0 then begin
              edge_stack := (u, v) :: !edge_stack;
              parent.(v) <- u;
              num.(v) <- !counter;
              low.(v) <- !counter;
              incr counter;
              stack := v :: !stack
            end
            else if v <> parent.(u) && num.(v) < num.(u) then begin
              edge_stack := (u, v) :: !edge_stack;
              low.(u) <- min low.(u) num.(v)
            end
          end
          else begin
            stack := rest;
            (match rest with
            | p :: _ ->
              low.(p) <- min low.(p) low.(u);
              if low.(u) >= num.(p) then pop_block p u
            | [] -> ())
          end
      done
    end
  done;
  !blocks

(* ------------------------------------------------------------------ *)
(* DMP embedding of one 2-connected block.                              *)
(* ------------------------------------------------------------------ *)

module Dmp = struct
  (* Faces as simple vertex cycles (valid in 2-connected plane graphs). *)
  type state = {
    g : Graph.t;
    mutable faces : int list list;
    in_g : bool array; (* vertex embedded *)
    edge_in : (int * int, unit) Hashtbl.t; (* embedded edges, (min, max) *)
  }

  let encode u v = if u < v then (u, v) else (v, u)

  let edge_embedded st u v = Hashtbl.mem st.edge_in (encode u v)

  let embed_edge st u v = Hashtbl.replace st.edge_in (encode u v) ()

  (* A cycle through the block: proper iterative DFS, where every non-tree
     edge of an undirected DFS is a back edge to an ancestor — the first
     one found closes a cycle through the parent chain. *)
  let find_cycle g inside =
    let n = Graph.n g in
    let parent = Array.make n (-2) in
    let cursor = Array.make n 0 in
    let start =
      let s = ref (-1) in
      for v = n - 1 downto 0 do
        if inside.(v) then s := v
      done;
      !s
    in
    let stack = ref [ start ] in
    parent.(start) <- -1;
    let cycle = ref None in
    while !stack <> [] && !cycle = None do
      match !stack with
      | [] -> ()
      | u :: rest ->
        let adj = Graph.neighbors g u in
        if cursor.(u) >= Array.length adj then stack := rest
        else begin
          let v = adj.(cursor.(u)) in
          cursor.(u) <- cursor.(u) + 1;
          if inside.(v) then begin
            if parent.(v) = -2 then begin
              parent.(v) <- u;
              stack := v :: !stack
            end
            else if v <> parent.(u) then begin
              (* Back edge: v is an ancestor of u; walk the chain up. *)
              let rec walk x acc =
                if x = v then x :: acc else walk parent.(x) (x :: acc)
              in
              cycle := Some (walk u [])
            end
          end
        end
    done;
    !cycle

  (* Fragments of G w.r.t. the embedded subgraph: single unembedded edges
     between embedded vertices, and components of unembedded vertices with
     their attachment edges. *)
  type fragment = {
    attachments : int list; (* embedded vertices, sorted *)
    inner : int list; (* unembedded vertices of the fragment *)
  }

  let fragments st inside =
    let n = Graph.n st.g in
    let frags = ref [] in
    (* Single-edge fragments. *)
    for u = 0 to n - 1 do
      if inside.(u) && st.in_g.(u) then
        Array.iter
          (fun v ->
            if inside.(v) && st.in_g.(v) && u < v && not (edge_embedded st u v)
            then frags := { attachments = [ u; v ]; inner = [] } :: !frags)
          (Graph.neighbors st.g u)
    done;
    (* Components of unembedded vertices. *)
    let free =
      List.filter (fun v -> inside.(v) && not st.in_g.(v)) (List.init n Fun.id)
    in
    List.iter
      (fun comp ->
        let attach = ref [] in
        Array.iter
          (fun u ->
            Array.iter
              (fun v -> if inside.(v) && st.in_g.(v) then attach := v :: !attach)
              (Graph.neighbors st.g u))
          comp;
        let attachments = List.sort_uniq compare !attach in
        frags := { attachments; inner = Array.to_list comp } :: !frags)
      (Algo.restricted_components st.g ~members:(Array.of_list free)
         ~skip:(fun _ -> false));
    !frags

  let admissible_faces st frag =
    List.filter
      (fun face ->
        List.for_all (fun a -> List.mem a face) frag.attachments)
      st.faces

  (* A path through the fragment between two attachments (the "alpha path"
     embedded into the hosting face). *)
  let fragment_path st frag =
    match frag.inner with
    | [] ->
      (match frag.attachments with
      | [ a; b ] -> [ a; b ]
      | _ -> invalid_arg "Dmp.fragment_path: edge fragment arity")
    | inner ->
      let a = List.hd frag.attachments in
      let inner_set = Hashtbl.create (List.length inner) in
      List.iter (fun v -> Hashtbl.replace inner_set v ()) inner;
      (* BFS from a through inner vertices to another attachment. *)
      let prev = Hashtbl.create 16 in
      let queue = Queue.create () in
      let final = ref (-1) in
      Hashtbl.replace prev a (-1);
      Queue.add a queue;
      (* The path must pass through the fragment's interior: from [a] only
         interior neighbours are explored, and a second attachment is only
         accepted when reached from an interior vertex (a direct embedded
         edge a-b is a separate single-edge fragment). *)
      while !final < 0 && not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        Array.iter
          (fun v ->
            if !final < 0 && not (Hashtbl.mem prev v) then begin
              if Hashtbl.mem inner_set v then begin
                Hashtbl.replace prev v u;
                Queue.add v queue
              end
              else if st.in_g.(v) && v <> a && Hashtbl.mem inner_set u then begin
                (* Reached a second attachment. *)
                Hashtbl.replace prev v u;
                final := v
              end
            end)
          (Graph.neighbors st.g u)
      done;
      if !final < 0 then invalid_arg "Dmp.fragment_path: no second attachment";
      let rec build x acc =
        if x = -1 then acc else build (Hashtbl.find prev x) (x :: acc)
      in
      build !final []

  (* Split the hosting face along the path.  [face0] must be the physical
     list element held in [st.faces] (as returned by [admissible_faces]);
     the path endpoints lie on it. *)
  let embed_path st face0 path =
    let a = List.hd path in
    let b = List.nth path (List.length path - 1) in
    let interior = List.filteri (fun i _ -> i > 0 && i < List.length path - 1) path in
    (* Rotate the face cycle so it starts at a. *)
    let rec rotate f guard =
      if guard = 0 then invalid_arg "Dmp.embed_path: a not on face"
      else
        match f with
        | [] -> invalid_arg "Dmp.embed_path: empty face"
        | x :: rest -> if x = a then f else rotate (rest @ [ x ]) (guard - 1)
    in
    let face = rotate face0 (List.length face0 + 1) in
    let rec split seg1 = function
      | [] -> invalid_arg "Dmp.embed_path: b not on face"
      | x :: rest ->
        if x = b then (List.rev (x :: seg1), rest) else split (x :: seg1) rest
    in
    let seg_ab, seg_rest = split [] face in
    (* seg_ab = a .. b along the face; seg_rest = the rest, back towards a.
       The path splits the face into:
         face1 = a .. b (along the face) then back through the path;
         face2 = b .. a (rest of the face) then forward through the path. *)
    let face1 = seg_ab @ List.rev interior in
    let face2 = (b :: seg_rest) @ (a :: interior) in
    st.faces <- face1 :: face2 :: List.filter (fun f -> f != face0) st.faces;
    List.iter (fun v -> st.in_g.(v) <- true) interior;
    let rec mark = function
      | x :: (y :: _ as rest) ->
        embed_edge st x y;
        mark rest
      | _ -> ()
    in
    mark path

  let embed_block g inside =
    let n = Graph.n g in
    (* Count block size. *)
    let verts = ref [] in
    for v = 0 to n - 1 do
      if inside.(v) then verts := v :: !verts
    done;
    match !verts with
    | [] | [ _ ] -> Some [] (* nothing to embed *)
    | [ a; b ] ->
      (* A single edge: one face walk a-b-a; rotation is trivial and is
         handled by the caller. *)
      ignore (a, b);
      Some []
    | _ ->
      (match find_cycle g inside with
      | None -> Some [] (* acyclic block: single edge handled above *)
      | Some cycle ->
        let st =
          {
            g;
            faces = [ cycle; List.rev cycle ];
            in_g = Array.make n false;
            edge_in = Hashtbl.create 64;
          }
        in
        List.iter (fun v -> st.in_g.(v) <- true) cycle;
        let rec mark_cycle = function
          | x :: (y :: _ as rest) ->
            embed_edge st x y;
            mark_cycle rest
          | [ last ] -> embed_edge st last (List.hd cycle)
          | [] -> ()
        in
        mark_cycle cycle;
        let rec loop () =
          let frags = fragments st inside in
          if frags = [] then Some st.faces
          else begin
            (* Pick the most constrained fragment. *)
            let with_faces =
              List.map (fun f -> (f, admissible_faces st f)) frags
            in
            match
              List.fold_left
                (fun acc (f, fs) ->
                  match acc with
                  | Some (_, best) when List.length best <= List.length fs -> acc
                  | _ -> Some (f, fs))
                None with_faces
            with
            | None -> Some st.faces
            | Some (_, []) -> None (* no admissible face: not planar *)
            | Some (frag, face :: _) ->
              let path = fragment_path st frag in
              embed_path st face path;
              loop ()
          end
        in
        loop ())
end

(* ------------------------------------------------------------------ *)
(* Rotation recovery and gluing.                                        *)
(* ------------------------------------------------------------------ *)

(* Successor maps from face cycles: consecutive darts (u,v),(v,w) in a face
   mean "after u comes w, clockwise around v". *)
let rotation_orders_of_faces g faces orders =
  let succ = Hashtbl.create 64 in
  List.iter
    (fun face ->
      let arr = Array.of_list face in
      let t = Array.length arr in
      for i = 0 to t - 1 do
        let u = arr.(i) and v = arr.((i + 1) mod t) and w = arr.((i + 2) mod t) in
        Hashtbl.replace succ (v, u) w
      done)
    faces;
  (* Walk the successor cycle at every vertex touched by these faces. *)
  let touched = Hashtbl.create 64 in
  List.iter (fun f -> List.iter (fun v -> Hashtbl.replace touched v ()) f) faces;
  Hashtbl.iter
    (fun v () ->
      let nbrs =
        Graph.neighbors g v |> Array.to_list
        |> List.filter (fun u -> Hashtbl.mem succ (v, u))
      in
      match nbrs with
      | [] -> ()
      | first :: _ ->
        let rec walk u acc count =
          if count > List.length nbrs then None
          else begin
            let w = Hashtbl.find succ (v, u) in
            if w = first then Some (List.rev (u :: acc))
            else walk w (u :: acc) (count + 1)
          end
        in
        (match walk first [] 0 with
        | Some cycle when List.length cycle = List.length nbrs ->
          orders.(v) <- orders.(v) @ cycle
        | _ ->
          (* Inconsistent rotation: flag by truncating (caller validates
             with the Euler check and reports Not_planar). *)
          orders.(v) <- orders.(v) @ nbrs))
    touched

let embed g =
  let n = Graph.n g in
  if n = 0 then Some (Rotation.of_adjacency g)
  else if n >= 3 && Graph.m g > (3 * n) - 6 then None
  else begin
    let blocks = biconnected_components g in
    let orders = Array.make n [] in
    let covered = Hashtbl.create (2 * Graph.m g) in
    let encode u v = if u < v then (u, v) else (v, u) in
    let ok = ref true in
    List.iter
      (fun block_edges ->
        if !ok then begin
          List.iter
            (fun (u, v) -> Hashtbl.replace covered (encode u v) ())
            block_edges;
          match block_edges with
          | [ (u, v) ] ->
            (* Bridge: append each endpoint to the other's rotation. *)
            orders.(u) <- orders.(u) @ [ v ];
            orders.(v) <- orders.(v) @ [ u ]
          | _ ->
            let inside = Array.make n false in
            List.iter
              (fun (u, v) ->
                inside.(u) <- true;
                inside.(v) <- true)
              block_edges;
            (* Induced block subgraph view: DMP only follows edges inside
               the block, so restrict with a wrapper graph. *)
            let sub = Graph.of_edges ~n block_edges in
            (* A structural surprise inside DMP (defensive Invalid_argument)
               is treated as a non-planarity verdict; the Euler validation
               below keeps false positives out either way. *)
            (match Dmp.embed_block sub inside with
            | None -> ok := false
            | Some faces -> rotation_orders_of_faces sub faces orders
            | exception Invalid_argument _ -> ok := false)
        end)
      blocks;
    if not !ok then None
    else begin
      (* Edges in no block (none — blocks cover all edges) plus isolated
         vertices are fine; validate the assembled rotation. *)
      ignore covered;
      let order_arrays =
        Array.init n (fun v ->
            (* Deduplicate defensively while preserving order. *)
            let seen = Hashtbl.create 8 in
            orders.(v)
            |> List.filter (fun u ->
                   if Hashtbl.mem seen u then false
                   else begin
                     Hashtbl.replace seen u ();
                     true
                   end)
            |> Array.of_list)
      in
      match Rotation.of_orders g order_arrays with
      | rot -> if Rotation.is_planar_embedding g rot then Some rot else None
      | exception Invalid_argument _ -> None
    end
  end

let is_planar g = embed g <> None

let outcome g = match embed g with Some rot -> Planar rot | None -> Not_planar
