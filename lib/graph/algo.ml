(* Centralized graph algorithms used for verification, ground truth and
   instance preparation.  The distributed algorithms live in [repro.congest]
   and [repro.core]; nothing here is charged CONGEST rounds. *)

(* The BFS of [bfs_dist], [bfs_parents], [components] and [diameter]:
   FIFO over the array [queue], each row scanned in ascending order by
   index, with no closure per dequeued vertex.  Each vertex [v] still
   [unseen] in [label] that a dequeued [u] reaches is labelled [next u]
   and joins the queue; the caller labels [src].  Returns the number [r]
   of vertices reached, in BFS order in [queue.(0 .. r - 1)]. *)
let bfs g queue (label : int array) ~unseen ~next src =
  queue.(0) <- src;
  let head = ref 0 and last = ref 1 in
  while !head < !last do
    let u = queue.(!head) in
    incr head;
    let x = next u in
    for j = 0 to Graph.degree g u - 1 do
      let v = Graph.nth_neighbor g u j in
      if label.(v) = unseen then begin
        label.(v) <- x;
        queue.(!last) <- v;
        incr last
      end
    done
  done;
  !last

(* Distances from [src] into [dist], all [-1] before; returns the number
   [r] of vertices reached, so the farthest one is [queue.(r - 1)]. *)
let distances g dist queue src =
  dist.(src) <- 0;
  bfs g queue dist ~unseen:(-1) ~next:(fun u -> dist.(u) + 1) src

let bfs_dist g src =
  Graph.check_vertex g src;
  let dist = Array.make (Graph.n g) (-1) in
  ignore (distances g dist (Array.make (Graph.n g) 0) src);
  dist

let bfs_parents g src =
  Graph.check_vertex g src;
  let parent = Array.make (Graph.n g) (-2) in
  parent.(src) <- -1;
  ignore (bfs g (Array.make (Graph.n g) 0) parent ~unseen:(-2) ~next:Fun.id src);
  parent

let components g =
  let n = Graph.n g in
  let comp = Array.make n (-1) and queue = Array.make n 0 and count = ref 0 in
  for v = 0 to n - 1 do
    if comp.(v) < 0 then begin
      let id = !count in
      incr count;
      comp.(v) <- id;
      ignore (bfs g queue comp ~unseen:(-1) ~next:(fun _ -> id) v)
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
   connectivity probe.  Its membership marks are bytes, not [bfs]'s int
   labels, and like [bfs] it scans rows without a closure per vertex. *)
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
          for j = 0 to Graph.degree g x - 1 do
            let u = Graph.nth_neighbor g x j in
            if Bytes.unsafe_get mark u = '\001' then begin
              Bytes.unsafe_set mark u '\000';
              queue.(!tail) <- u;
              incr tail
            end
          done
        done;
        comps := Array.sub queue start (!tail - start) :: !comps
      end)
    members;
  Graph.Marks.release marks;
  List.rev !comps

let is_connected g = Graph.n g = 0 || snd (components g) = 1

(* The bounding-diameters loop of Takes and Kosters ("Determining the
   diameter of small world networks", CIKM 2011), one component at a time.
   A BFS from [v] bounds the eccentricity of every [w] of its component
   from below by max(d(v,w), ecc v - d(v,w)) and from above by
   ecc v + d(v,w).  [lo], the largest eccentricity found, bounds the
   diameter from below; [w] stays a candidate while its upper bound is
   above [max lo floor], since only then can it raise [lo] past what is
   asked.  A component's first source is its smallest vertex.  Later
   sources alternate between the vertex with the largest upper bound and
   the vertex with the smallest lower bound, first in the last BFS order
   on ties.  The second is chosen among all the component's vertices, not
   only the candidates, because a central vertex tightens every upper
   bound even after it has dropped out; a source's lower bound is set to
   [max_int] so that it is never chosen again.  The loop returns [lo]
   once no candidate is left, or early once [lo > stop]. *)
let search g ~floor ~stop =
  let n = Graph.n g in
  let dist = Array.make n (-1) and queue = Array.make n 0 in
  let lower = Array.make n 0 and upper = Array.make n max_int in
  let lo = ref 0 in
  (* The vertices of a searched component have finite upper bounds. *)
  for v = 0 to n - 1 do
    if upper.(v) = max_int && !lo <= stop then begin
      let src = ref v and to_high = ref true and fin = ref false in
      while not !fin do
        let reached = distances g dist queue !src in
        let ecc = dist.(queue.(reached - 1)) in
        lo := max !lo ecc;
        lower.(!src) <- max_int;
        let high = ref !src and low = ref !src in
        for i = 0 to reached - 1 do
          let w = queue.(i) in
          let d = dist.(w) in
          lower.(w) <- max lower.(w) (max d (ecc - d));
          upper.(w) <- min upper.(w) (ecc + d);
          if upper.(w) > upper.(!high) then high := w;
          if lower.(w) < lower.(!low) then low := w;
          dist.(w) <- -1
        done;
        fin := upper.(!high) <= max !lo floor || !lo > stop;
        src := if !to_high then !high else !low;
        to_high := not !to_high
      done
    end
  done;
  !lo

let diameter g = search g ~floor:0 ~stop:max_int

let diameter_exceeds g k = search g ~floor:k ~stop:k > k

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
