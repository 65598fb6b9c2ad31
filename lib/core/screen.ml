(* Hostile-input screening (see screen.mli for the contract).

   The checks run cheapest-first so a corrupted instance pays as little
   as possible before dying: rotation closure and the Euler bound are
   pure local scans folded into one aggregate, connectivity is the BFS
   the pipeline would run anyway, and only a structurally sound instance
   reaches the face-walk tier.  The witness election is one-sided in the
   Levi–Medina–Ron sense: a flag is always a proof (in a plane graph an
   edge lies on one face iff it is a bridge, so a non-bridge edge with
   both darts on the same walk cannot be planar), while a genus failure
   with no such edge is still a rejection, just without the single-edge
   certificate. *)

open Repro_graph
open Repro_embedding
open Repro_congest

type reason =
  | Disconnected of { components : int; witness : int }
  | Euler_bound of { n : int; m : int }
  | Rotation_inconsistent of { vertex : int }
  | Genus of { faces : int; expected : int }

type witness = { edge : int * int; face_len : int }

type verdict = Accepted | Rejected of reason | Flagged of witness

exception
  Rejected_input of { entry : string; verdict : verdict; spec : string }

(* ---- tier 1: structure ------------------------------------------------ *)

(* The rotation store validates at [of_orders] time, but hostile
   instances are built through [induced]-style raw paths on purpose, so
   re-establish permutation closure here: every rotation row must be a
   permutation of its CSR adjacency row.  Every [Rotation.t] is consistent
   with its own graph (its [pos_of_rank] row inverts its order row over
   that graph's sorted row), so the row of v closes over the screened
   graph iff each rank r maps to a distinct slot p of the row holding the
   r-th neighbour of v; [seen] stamps slot p with the vertex that last
   used it.  The check reads [pos_of_rank] directly, with no search. *)
let rotation_violation g rot =
  let n = Graph.n g in
  let seen = Array.make n (-1) in
  let bad = ref (-1) in
  (try
     for v = 0 to n - 1 do
       let deg = Graph.degree g v in
       if Rotation.degree rot v <> deg then begin
         bad := v;
         raise Exit
       end;
       for r = 0 to deg - 1 do
         let p = Rotation.position_of_rank rot v r in
         if
           p < 0 || p >= deg || seen.(p) = v
           || Rotation.nth rot v p <> Graph.nth_neighbor g v r
         then begin
           bad := v;
           raise Exit
         end;
         seen.(p) <- v
       done
     done
   with Exit -> ());
  if !bad < 0 then None else Some !bad

let structural_reason g rot ~outer =
  match rotation_violation g rot with
  | Some vertex -> Some (Rotation_inconsistent { vertex })
  | None ->
    let n = Graph.n g and m = Graph.m g in
    if n >= 3 && m > (3 * n) - 6 then Some (Euler_bound { n; m })
    else begin
      let comp, count = Algo.components g in
      if count <= 1 then None
      else begin
        let home = comp.(outer) in
        let witness = ref (-1) in
        (try
           for v = 0 to n - 1 do
             if comp.(v) <> home then begin
               witness := v;
               raise Exit
             end
           done
         with Exit -> ());
        Some (Disconnected { components = count; witness = !witness })
      end
    end

(* ---- tier 2: planarity ------------------------------------------------ *)

let dart g u v = Graph.adj_offset g u + Graph.neighbor_rank g u v

(* The walk id of every dart and the face count, plus every edge whose
   two darts land on the same walk, tagged with the walk length and keyed
   (deterministically) by the edge's smaller dart id.  Walk ids come flat
   from [Rotation.dart_faces] and walk lengths from one counting pass over
   them; scanning each edge at its smaller dart lists the candidates in key
   order, with no walk list and no per-dart tuple.  The reverse dart comes
   from a cursor: scanning the rows in decreasing u, the u's that reach v
   are v's sorted row from its end, so [cursor.(v)] steps down to the id
   of the dart v -> u. *)
let face_scan g rot =
  let face, faces = Rotation.dart_faces rot in
  let len = Array.make faces 0 in
  Array.iter (fun f -> len.(f) <- len.(f) + 1) face;
  let cursor =
    Array.init (Graph.n g) (fun v -> Graph.adj_offset g v + Graph.degree g v)
  in
  let cands = ref [] in
  for u = Graph.n g - 1 downto 0 do
    let off = Graph.adj_offset g u in
    for r = Graph.degree g u - 1 downto 0 do
      let v = Graph.nth_neighbor g u r in
      let back = cursor.(v) - 1 in
      cursor.(v) <- back;
      if u < v then begin
        let key = off + r in
        let f = face.(key) in
        if face.(back) = f then cands := ((u, v), key, len.(f)) :: !cands
      end
    done
  done;
  (face, faces, !cands)

(* Bridge edges by iterative Tarjan lowlink (explicit stack: hostile
   instances reach bench sizes where recursion would blow the stack).
   Returns a per-dart flag array indexed by [dart g u v]. *)
let bridge_darts g =
  let n = Graph.n g in
  let disc = Array.make n (-1) in
  let low = Array.make n max_int in
  let parent = Array.make n (-1) in
  let next = Array.make n 0 in
  let is_bridge = Array.make (max 1 (2 * Graph.m g)) false in
  let time = ref 0 in
  for s = 0 to n - 1 do
    if disc.(s) < 0 then begin
      let stack = ref [ s ] in
      disc.(s) <- !time;
      low.(s) <- !time;
      incr time;
      while !stack <> [] do
        let v = List.hd !stack in
        if next.(v) < Graph.degree g v then begin
          let u = Graph.nth_neighbor g v next.(v) in
          next.(v) <- next.(v) + 1;
          if disc.(u) < 0 then begin
            parent.(u) <- v;
            disc.(u) <- !time;
            low.(u) <- !time;
            incr time;
            stack := u :: !stack
          end
          else if u <> parent.(v) then low.(v) <- min low.(v) disc.(u)
        end
        else begin
          stack := List.tl !stack;
          match !stack with
          | p :: _ when parent.(v) = p ->
            low.(p) <- min low.(p) low.(v);
            if low.(v) > disc.(p) then begin
              is_bridge.(dart g p v) <- true;
              is_bridge.(dart g v p) <- true
            end
          | _ -> ()
        end
      done
    end
  done;
  is_bridge

(* ---- verdict ----------------------------------------------------------- *)

let check ?rounds emb =
  Rounds.span rounds "screen" @@ fun () ->
  let g = Embedded.graph emb in
  let rot = Embedded.rot emb in
  let structural =
    Rounds.span rounds "screen.structure" @@ fun () ->
    (* Degree sum, rotation-closure flag and BFS reach ride the slots
       of one aggregation over the communication tree: O(D). *)
    Rounds.charge rounds Screen_structure;
    structural_reason g rot ~outer:(Embedded.outer emb)
  in
  match structural with
  | Some reason -> Rejected reason
  | None ->
    Rounds.span rounds "screen.planarity" @@ fun () ->
    (* Face tallies need the rotation known along the walks — priced as
       one embedding broadcast — and the count / witness election is
       one more aggregation: Õ(D) total. *)
    Rounds.charge rounds Embedding;
    Rounds.charge rounds Screen_planarity;
    let n = Graph.n g and m = Graph.m g in
    if m = 0 then Accepted (* connected with no edges: a single vertex *)
    else begin
      let _, faces, cands = face_scan g rot in
      let expected = 2 - n + m in
      if faces = expected then Accepted
      else begin
        let is_bridge = bridge_darts g in
        let flag =
          List.find_opt (fun (_, key, _) -> not is_bridge.(key)) cands
        in
        match flag with
        | Some (edge, _, face_len) -> Flagged { edge; face_len }
        | None -> Rejected (Genus { faces; expected })
      end
    end

let accepted = function Accepted -> true | _ -> false

let verdict_to_string = function
  | Accepted -> "accepted"
  | Rejected (Disconnected { components; witness }) ->
    Printf.sprintf "rejected: disconnected (%d components; vertex %d unreachable)"
      components witness
  | Rejected (Euler_bound { n; m }) ->
    Printf.sprintf "rejected: too many edges for a planar graph (n=%d, m=%d > 3n-6=%d)"
      n m ((3 * n) - 6)
  | Rejected (Rotation_inconsistent { vertex }) ->
    Printf.sprintf
      "rejected: rotation at vertex %d is not a permutation of its adjacency"
      vertex
  | Rejected (Genus { faces; expected }) ->
    Printf.sprintf "rejected: Euler's formula fails (%d faces, planar needs %d)"
      faces expected
  | Flagged { edge = u, v; face_len } ->
    Printf.sprintf
      "flagged: edge %d-%d is not a bridge yet both darts share one face walk (length %d)"
      u v face_len

let require ?rounds ~entry emb =
  match check ?rounds emb with
  | Accepted -> ()
  | verdict -> raise (Rejected_input { entry; verdict; spec = Embedded.name emb })

(* ---- independent witness validation ------------------------------------ *)

let witness_certifies emb { edge = u, v; face_len = _ } =
  let g = Embedded.graph emb in
  let rot = Embedded.rot emb in
  let n = Graph.n g in
  if u < 0 || v < 0 || u >= n || v >= n || not (Graph.mem_edge g u v) then
    false
  else begin
    let same_walk = ref false in
    let key = min (dart g u v) (dart g v u) in
    let other = max (dart g u v) (dart g v u) in
    Rotation.iter_faces g rot (fun walk ->
        let hit_min = ref false and hit_max = ref false in
        List.iter
          (fun (a, b) ->
            let d = dart g a b in
            if d = key then hit_min := true;
            if d = other then hit_max := true)
          walk;
        if !hit_min && !hit_max then same_walk := true);
    !same_walk && not (bridge_darts g).(dart g u v)
  end

(* ---- local tallies for the CONGEST collective -------------------------- *)

let no_violation emb = 2 * Graph.m (Embedded.graph emb)

let local_tallies emb =
  let g = Embedded.graph emb in
  let rot = Embedded.rot emb in
  let n = Graph.n g in
  let deg = Array.init n (Graph.degree g) in
  let leader = Array.make n 0 in
  let sentinel = no_violation emb in
  let viol = Array.make n sentinel in
  let face, _, cands = face_scan g rot in
  (* Attribute each face walk to the tail of its minimal dart, so the
     leadership column sums to the face count.  Walks are numbered in
     order of their smallest dart id, so that dart is the first one, in id
     order, to carry its walk's id. *)
  let next = ref 0 in
  for u = 0 to n - 1 do
    let off = Graph.adj_offset g u in
    for r = 0 to Graph.degree g u - 1 do
      if face.(off + r) = !next then begin
        leader.(u) <- leader.(u) + 1;
        incr next
      end
    done
  done;
  if cands <> [] then begin
    let is_bridge = bridge_darts g in
    List.iter
      (fun ((u, v), key, _) ->
        if not is_bridge.(key) then begin
          let holder = min u v in
          viol.(holder) <- min viol.(holder) key
        end)
      cands
  end;
  ([| deg; leader |], [| viol |])
