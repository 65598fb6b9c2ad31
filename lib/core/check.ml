(* Separator validation.

   A cycle separator of G is a set S that (i) is the vertex set of a path of
   the spanning tree (so that, together with the closing fundamental edge,
   it is a cycle or a path in the paper's sense) and (ii) leaves every
   connected component of G - S with at most ceil(2n/3) vertices. *)

open Repro_graph
open Repro_tree

type verdict = {
  valid : bool;
  is_tree_path : bool;
  max_component : int;
  limit : int;
  size : int;
}

let balance_limit n = (2 * n + 2) / 3 (* ceil(2n/3) *)

(* Maximum component size of G - S, via union-find over surviving edges. *)
let max_component_without g removed =
  let n = Graph.n g in
  let uf = Repro_util.Union_find.create n in
  Graph.iter_edges g (fun a b ->
      if (not removed.(a)) && not removed.(b) then ignore (Repro_util.Union_find.union uf a b));
  let best = ref 0 in
  for v = 0 to n - 1 do
    if not removed.(v) then
      best := max !best (Repro_util.Union_find.component_size uf v)
  done;
  !best

(* Does [members] equal the vertex set of some tree path?  True iff every
   member has at most two member-neighbours in T, at most two members have
   fewer than two, and the member set is T-connected. *)
let is_tree_path tree members =
  match members with
  | [] -> false
  | [ _ ] -> true
  | first :: _ ->
    let mem = Hashtbl.create (List.length members) in
    List.iter (fun v -> Hashtbl.replace mem v ()) members;
    let tree_nbrs v =
      let p = Rooted.parent tree v in
      let cs =
        Rooted.children tree v
        |> Array.to_seq |> Seq.filter (Hashtbl.mem mem) |> List.of_seq
      in
      if p >= 0 && Hashtbl.mem mem p then p :: cs else cs
    in
    let degs = List.map (fun v -> List.length (tree_nbrs v)) members in
    let ok_degree =
      List.for_all (fun d -> d <= 2) degs
      && List.length (List.filter (fun d -> d <= 1) degs) <= 2
    in
    ok_degree
    &&
    (* Connectivity within the member set. *)
    let seen = Hashtbl.create (List.length members) in
    let rec visit v =
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.replace seen v ();
        List.iter visit (tree_nbrs v)
      end
    in
    visit first;
    Hashtbl.length seen = List.length members

let check_separator cfg separator =
  let g = Config.graph cfg in
  let n = Graph.n g in
  let removed = Array.make n false in
  List.iter (fun v -> removed.(v) <- true) separator;
  let max_component = max_component_without g removed in
  let limit = balance_limit n in
  let path_ok = is_tree_path (Config.tree cfg) separator in
  {
    valid = path_ok && max_component <= limit && separator <> [];
    is_tree_path = path_ok;
    max_component;
    limit;
    size = List.length separator;
  }

(* Fast balance-only probe used by the candidate search: the Õ(D)
   verification step described in DESIGN.md (deviation 2). *)
let balanced cfg separator =
  let g = Config.graph cfg in
  let n = Graph.n g in
  let removed = Array.make n false in
  List.iter (fun v -> removed.(v) <- true) separator;
  max_component_without g removed <= balance_limit n

(* The same verdict by BFS on caller-owned buffers: the candidate search
   probes many paths per phase.  [scratch] marks removed and reached
   vertices (all-false on entry and again on exit), [queue] holds every
   vertex reached, so the restore walks the queue and the separator.  The
   search stops at the first component above the limit, or once the
   vertices not yet reached are too few to form one. *)
let balanced_with ~scratch ~queue cfg separator =
  let g = Config.graph cfg in
  let n = Graph.n g in
  let limit = balance_limit n in
  let alive = ref n in
  List.iter
    (fun v ->
      if not scratch.(v) then begin
        scratch.(v) <- true;
        decr alive
      end)
    separator;
  (* [tail] vertices reached so far; the unreached number [alive - tail].
     While undecided that is above the limit, so some vertex at or past
     [s] is unreached. *)
  let tail = ref 0 in
  let verdict = ref (if !alive <= limit then Some true else None) in
  let s = ref 0 in
  while Option.is_none !verdict do
    if not scratch.(!s) then begin
      let start = !tail and head = ref !tail in
      scratch.(!s) <- true;
      queue.(!tail) <- !s;
      incr tail;
      while !head < !tail && !tail - start <= limit do
        let x = queue.(!head) in
        incr head;
        for j = 0 to Graph.degree g x - 1 do
          let y = Graph.nth_neighbor g x j in
          if not scratch.(y) then begin
            scratch.(y) <- true;
            queue.(!tail) <- y;
            incr tail
          end
        done
      done;
      if !tail - start > limit then verdict := Some false
      else if !alive - !tail <= limit then verdict := Some true
    end;
    incr s
  done;
  for i = 0 to !tail - 1 do
    scratch.(queue.(i)) <- false
  done;
  List.iter (fun v -> scratch.(v) <- false) separator;
  Option.get !verdict

(* A partition into connected parts is the precondition of Theorem 1's
   [find_partition] and Lemma 9's per-part spanning forests; the testkit
   validates its fuzzed partitions with this before handing them over. *)
let connected_partition g parts =
  let n = Graph.n g in
  let seen = Array.make n false in
  let covered = ref 0 in
  let connected part =
    List.length
      (Algo.restricted_components g ~members:(Array.of_list part)
         ~skip:(fun _ -> false))
    = 1
  in
  List.for_all
    (fun part ->
      List.for_all
        (fun v ->
          let fresh = v >= 0 && v < n && not seen.(v) in
          if fresh then begin
            seen.(v) <- true;
            incr covered
          end;
          fresh)
        part
      && connected part)
    parts
  && !covered = n

let pp_verdict fmt v =
  Fmt.pf fmt "valid=%b path=%b max_comp=%d/%d size=%d" v.valid v.is_tree_path
    v.max_component v.limit v.size

(* Full cycle-separator certificate: the closing fundamental edge must be
   insertable without breaking planarity.  Uses the DMP planarity tester on
   G plus the virtual edge — a centralized certificate for tests and
   reporting (the distributed certificate is Lemma 6's hidden test). *)
let cycle_closable cfg ~endpoints:(a, b) =
  let g = Config.graph cfg in
  Graph.mem_edge g a b
  ||
  let g' = Graph.of_edges ~n:(Graph.n g) ((a, b) :: Graph.edges g) in
  Repro_embedding.Planarity.is_planar g'
