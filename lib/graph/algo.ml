(* Centralized graph algorithms used for verification, ground truth and
   instance preparation.  The distributed algorithms live in [repro.congest]
   and [repro.core]; nothing here is charged CONGEST rounds. *)

let bfs_dist g src =
  Graph.check_vertex g src;
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Graph.iter_neighbors g u (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
  done;
  dist

let bfs_parents g src =
  Graph.check_vertex g src;
  let n = Graph.n g in
  let parent = Array.make n (-2) in
  let queue = Queue.create () in
  parent.(src) <- -1;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Graph.iter_neighbors g u (fun v ->
        if parent.(v) = -2 then begin
          parent.(v) <- u;
          Queue.add v queue
        end)
  done;
  parent

let components g =
  let n = Graph.n g in
  let comp = Array.make n (-1) in
  let count = ref 0 in
  for v = 0 to n - 1 do
    if comp.(v) < 0 then begin
      let id = !count in
      incr count;
      let queue = Queue.create () in
      comp.(v) <- id;
      Queue.add v queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        Graph.iter_neighbors g u (fun w ->
            if comp.(w) < 0 then begin
              comp.(w) <- id;
              Queue.add w queue
            end)
      done
    end
  done;
  (comp, !count)

(* Membership marks of [restricted_components], one per domain: byte [v]
   is 1 while [v] is a surviving member not yet reached by the BFS.  The
   members are the occupant, so a [skip] that raised, or an out-of-range
   member, leaves nothing stale for the next call on that domain. *)
let marks_key = Domain.DLS.new_key Graph.Marks.create

(* Connected components of [members \ skip], discovered in member order.
   Every surviving member enters a single preallocated ring exactly once, so
   each component is a contiguous slice of it — no per-node list cells.  The
   shared hot path of the part-parallel batches in [Dfs] and
   [Decomposition], of every JOIN iteration and of the daemon's
   connectivity probe. *)
let restricted_components g ~members ~skip =
  let k = Array.length members in
  let marks = Domain.DLS.get marks_key in
  let mark = Graph.Marks.acquire marks (Graph.n g) ~occupant:members in
  Array.iter (fun v -> if not (skip v) then Bytes.set mark v '\001') members;
  let queue = Array.make (max 1 k) 0 in
  let tail = ref 0 in
  let comps = ref [] in
  Array.iter
    (fun v ->
      if Bytes.get mark v = '\001' then begin
        let start = !tail in
        Bytes.set mark v '\000';
        queue.(!tail) <- v;
        incr tail;
        let head = ref start in
        while !head < !tail do
          let x = queue.(!head) in
          incr head;
          Graph.iter_neighbors g x (fun u ->
              if Bytes.unsafe_get mark u = '\001' then begin
                Bytes.unsafe_set mark u '\000';
                queue.(!tail) <- u;
                incr tail
              end)
        done;
        comps := Array.sub queue start (!tail - start) :: !comps
      end)
    members;
  Graph.Marks.release marks;
  List.rev !comps

let is_connected g = Graph.n g = 0 || snd (components g) = 1

let eccentricity g v =
  let dist = bfs_dist g v in
  Array.fold_left max 0 dist

(* Exact diameter by all-pairs BFS; fine for simulator-scale graphs. *)
let diameter_exact g =
  let n = Graph.n g in
  let d = ref 0 in
  for v = 0 to n - 1 do
    d := max !d (eccentricity g v)
  done;
  !d

(* Double-sweep lower bound: BFS from an arbitrary node, then from the
   farthest node found.  Exact on trees, a good estimate on planar graphs. *)
let diameter_two_sweep g =
  if Graph.n g = 0 then 0
  else begin
    let dist0 = bfs_dist g 0 in
    let far = ref 0 in
    Array.iteri (fun v d -> if d > dist0.(!far) then far := v) dist0;
    eccentricity g !far
  end

let diameter g =
  if Graph.n g <= 3000 then diameter_exact g else diameter_two_sweep g

(* Iterative centralized DFS honouring adjacency order; reference
   implementation against which distributed DFS trees are validated. *)
let dfs_parents g src =
  Graph.check_vertex g src;
  let n = Graph.n g in
  let parent = Array.make n (-2) in
  let next = Array.make n 0 in
  let stack = ref [ src ] in
  parent.(src) <- -1;
  let rec step () =
    match !stack with
    | [] -> ()
    | u :: rest ->
      if next.(u) >= Graph.degree g u then begin
        stack := rest;
        step ()
      end
      else begin
        let v = Graph.nth_neighbor g u next.(u) in
        next.(u) <- next.(u) + 1;
        if parent.(v) = -2 then begin
          parent.(v) <- u;
          stack := v :: !stack
        end;
        step ()
      end
  in
  step ();
  parent

(* A rooted spanning tree T of G (given as a parent array) is a DFS tree iff
   every non-tree edge of G joins an ancestor-descendant pair. *)
let is_dfs_tree g ~root ~parent =
  let n = Graph.n g in
  if n = 0 then true
  else begin
    let tin = Array.make n (-1) and tout = Array.make n (-1) in
    let children = Array.make n [] in
    let ok = ref (parent.(root) = -1) in
    for v = 0 to n - 1 do
      if v <> root then begin
        match parent.(v) with
        | p when p >= 0 && p < n && Graph.mem_edge g p v ->
          children.(p) <- v :: children.(p)
        | _ -> ok := false
      end
    done;
    if !ok then begin
      (* Euler-tour timestamps, iteratively to avoid stack overflow. *)
      let clock = ref 0 in
      let stack = ref [ (root, false) ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (v, closing) :: rest ->
          stack := rest;
          if closing then begin
            tout.(v) <- !clock;
            incr clock
          end
          else begin
            tin.(v) <- !clock;
            incr clock;
            stack := (v, true) :: !stack;
            List.iter (fun c -> stack := (c, false) :: !stack) children.(v)
          end
      done;
      (* All vertices reached exactly once? *)
      for v = 0 to n - 1 do
        if tin.(v) < 0 then ok := false
      done;
      if !ok then begin
        let is_ancestor a b = tin.(a) <= tin.(b) && tout.(b) <= tout.(a) in
        Graph.iter_edges g (fun u v ->
            if parent.(u) <> v && parent.(v) <> u then
              if not (is_ancestor u v || is_ancestor v u) then ok := false)
      end
    end;
    !ok
  end
