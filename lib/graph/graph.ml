(* Simple undirected graphs over vertices [0 .. n-1], stored as a flat
   compressed-sparse-row (CSR) structure:

     row : int array        length n + 1, row.(v) .. row.(v+1) - 1 slice of
     col : int array        length 2m, neighbour lists, each row SORTED

   Two flat int arrays hold the whole graph — no per-vertex boxes, no edge
   hash table — so the GC never walks the adjacency, membership is a binary
   search of a sorted row, and worker domains share the store by capturing
   the same two arrays (reads are data-race-free; nothing here is mutated
   after construction).  The former pair-encoded edge index
   (u * 0x40000000 + v) silently collided once vertex ids crossed 2^30;
   the CSR row search has no such bound — n is limited only by what the
   host can allocate (checked explicitly, so oversized requests fail with
   [Invalid_argument], not a corrupt graph). *)

type t = {
  n : int;
  m : int;
  row : int array; (* n + 1 offsets into col *)
  col : int array; (* 2m neighbour entries, ascending within each row *)
}

let n t = t.n
let m t = t.m
let degree t v = t.row.(v + 1) - t.row.(v)

(* The maximum vertex count we can represent: [row] needs n + 1 boxes. *)
let max_vertices = Sys.max_array_length - 1

let check_vertex t v =
  if v < 0 || v >= t.n then invalid_arg "Graph: vertex out of range"

(* Binary search of [x] in the sorted row of [v]; index into [col] when
   present, -1 otherwise.  This replaces the edge hash table. *)
let find_in_row t v x =
  let lo = ref t.row.(v) and hi = ref (t.row.(v + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let y = t.col.(mid) in
    if y = x then found := mid else if y < x then lo := mid + 1 else hi := mid - 1
  done;
  !found

let mem_edge t u v =
  u <> v && u >= 0 && v >= 0 && u < t.n && v < t.n && find_in_row t u v >= 0

(* Rank of neighbour [x] within the sorted row of [v] (-1 when not a
   neighbour): the alignment primitive for parallel flat structures (the
   rotation system stores per-dart data at [adj_offset v + rank]). *)
let neighbor_rank t v x =
  let i = find_in_row t v x in
  if i < 0 then -1 else i - t.row.(v)

let adj_offset t v = t.row.(v)
let nth_neighbor t v i = t.col.(t.row.(v) + i)

let neighbors t v = Array.sub t.col t.row.(v) (degree t v)

let iter_neighbors t v f =
  for i = t.row.(v) to t.row.(v + 1) - 1 do
    f t.col.(i)
  done

let fold_neighbors t v f acc =
  let acc = ref acc in
  for i = t.row.(v) to t.row.(v + 1) - 1 do
    acc := f !acc t.col.(i)
  done;
  !acc

(* Build from normalized (u < v), lexicographically sorted, deduplicated
   edge pairs.  One pass fills every row already sorted: row x first
   receives its smaller neighbours (from edges (u, x), scanned in ascending
   u) and then its larger ones (from edges (x, w), ascending w). *)
let of_sorted_pairs ~n pairs =
  let m = Array.length pairs in
  let row = Array.make (n + 1) 0 in
  Array.iter
    (fun (u, v) ->
      row.(u + 1) <- row.(u + 1) + 1;
      row.(v + 1) <- row.(v + 1) + 1)
    pairs;
  for v = 1 to n do
    row.(v) <- row.(v) + row.(v - 1)
  done;
  let col = Array.make (2 * m) 0 in
  let fill = Array.copy row in
  Array.iter
    (fun (u, v) ->
      col.(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1;
      col.(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1)
    pairs;
  { n; m; row; col }

let normalize_pairs ~n edges =
  let pairs =
    Array.map
      (fun (u, v) ->
        if u < 0 || u >= n || v < 0 || v >= n then
          invalid_arg "Graph.of_edges: vertex out of range";
        if u = v then invalid_arg "Graph.of_edges: self loop";
        if u < v then (u, v) else (v, u))
      edges
  in
  Array.sort
    (fun (a, b) (c, d) -> if a <> c then compare a c else compare b d)
    pairs;
  (* Drop duplicates in place. *)
  let k = ref 0 in
  Array.iteri
    (fun i p ->
      if i = 0 || p <> pairs.(i - 1) then begin
        pairs.(!k) <- p;
        incr k
      end)
    pairs;
  if !k = Array.length pairs then pairs else Array.sub pairs 0 !k

let of_edge_array ~n edges =
  if n < 0 then invalid_arg "Graph.of_edges: negative n";
  if n > max_vertices then
    invalid_arg
      (Printf.sprintf "Graph.of_edges: n = %d exceeds max_vertices = %d" n
         max_vertices);
  of_sorted_pairs ~n (normalize_pairs ~n edges)

let of_edges ~n edges = of_edge_array ~n (Array.of_list edges)

(* Each edge once, ascending u then ascending v, straight off the CSR scan
   — the primitive [edges] derives from. *)
let edge_array t =
  let out = Array.make t.m (0, 0) in
  let i = ref 0 in
  for u = 0 to t.n - 1 do
    for j = t.row.(u) to t.row.(u + 1) - 1 do
      let v = t.col.(j) in
      if u < v then begin
        out.(!i) <- (u, v);
        incr i
      end
    done
  done;
  out

let edges t = Array.to_list (edge_array t)

let iter_edges t f =
  for u = 0 to t.n - 1 do
    for j = t.row.(u) to t.row.(u + 1) - 1 do
      let v = t.col.(j) in
      if u < v then f u v
    done
  done

(* ------------------------------------------------------------------ *)
(* Induced subgraphs.                                                  *)
(* ------------------------------------------------------------------ *)

(* Reusable vertex-index buffer for the part-parallel hot path: one
   scratch per worker domain amortizes every per-part O(n) allocation away.
   [acquire] grows the buffer by doubling or un-marks the previous
   occupant, so only O(part) entries are ever touched and a caller that
   raised halfway leaves nothing stale; [release] records that the caller
   restored its own entries to -1.  Ownership rule (see DESIGN.md): the
   old->new map returned by a scratch-backed [induced_members] call IS the
   scratch's buffer — valid until the next call on the same scratch — and
   its new->old map is the scratch's occupant until then, which [acquire]
   only reads; the caller must mutate neither. *)
module Scratch = struct
  type nonrec t = {
    mutable index : int array; (* -1 outside the current occupant *)
    mutable occupant : int array;
  }

  let create () = { index = [||]; occupant = [||] }

  let acquire s n ~occupant =
    let len = Array.length s.index in
    if len < n then s.index <- Array.make (max n (2 * len)) (-1)
    else Array.iter (fun v -> s.index.(v) <- -1) s.occupant;
    s.occupant <- occupant;
    s.index

  let release s = s.occupant <- [||]
end

(* Reusable per-vertex byte marks under the same rule.  Out-of-range
   occupants are skipped: a caller that failed on one never set its
   byte. *)
module Marks = struct
  type t = { mutable bytes : Bytes.t; mutable occupant : int array }

  let create () = { bytes = Bytes.empty; occupant = [||] }

  let acquire m n ~occupant =
    let len = Bytes.length m.bytes in
    if len < n then m.bytes <- Bytes.make (max n (2 * len)) '\000'
    else
      Array.iter
        (fun v -> if v >= 0 && v < len then Bytes.unsafe_set m.bytes v '\000')
        m.occupant;
    m.occupant <- occupant;
    m.bytes

  let release m = m.occupant <- [||]
end

(* Core induced build over a fresh member array already sorted ascending
   (so new ids are assigned in increasing old id, matching the historical
   keep-scan compaction), which it returns as the new->old map.
   [new_of_old] must be -1 at every non-member on entry; it is left -1
   there and set at members on exit (caller restores if pooled). *)
let induced_sorted t ~new_of_old ~members =
  let k = Array.length members in
  for i = 0 to k - 1 do
    new_of_old.(members.(i)) <- i
  done;
  let row = Array.make (k + 1) 0 in
  for i = 0 to k - 1 do
    let v = members.(i) in
    let d = ref 0 in
    for j = t.row.(v) to t.row.(v + 1) - 1 do
      if new_of_old.(t.col.(j)) >= 0 then incr d
    done;
    row.(i + 1) <- !d
  done;
  for i = 1 to k do
    row.(i) <- row.(i) + row.(i - 1)
  done;
  let col = Array.make row.(k) 0 in
  let fill = ref 0 in
  for i = 0 to k - 1 do
    let v = members.(i) in
    (* The old row is sorted and old->new is monotone over members, so each
       new row comes out sorted without any per-row sort. *)
    for j = t.row.(v) to t.row.(v + 1) - 1 do
      let nu = new_of_old.(t.col.(j)) in
      if nu >= 0 then begin
        col.(!fill) <- nu;
        incr fill
      end
    done
  done;
  ({ n = k; m = row.(k) / 2; row; col }, members)

(* Sort distinct ids in [0, n) ascending, in place or into a fresh array
   of the same length (the result is returned).  Short arrays take an
   insertion sort; longer ones an LSD radix sort on 8-bit digits, one
   stable counting pass per byte of n - 1, so O(k) per pass and no
   polymorphic comparison. *)
let insertion_cut = 32

let sort_ids ~n a =
  let k = Array.length a in
  if k <= insertion_cut then begin
    for i = 1 to k - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done;
    a
  end
  else begin
    let count = Array.make 257 0 in
    let src = ref a and dst = ref (Array.make k 0) in
    let shift = ref 0 in
    while (n - 1) lsr !shift > 0 do
      let s = !src and d = !dst and sh = !shift in
      Array.fill count 0 257 0;
      for i = 0 to k - 1 do
        let b = ((s.(i) lsr sh) land 255) + 1 in
        count.(b) <- count.(b) + 1
      done;
      (* count.(b) becomes the first output slot of digit b. *)
      for b = 1 to 256 do
        count.(b) <- count.(b) + count.(b - 1)
      done;
      for i = 0 to k - 1 do
        let x = s.(i) in
        let b = (x lsr sh) land 255 in
        d.(count.(b)) <- x;
        count.(b) <- count.(b) + 1
      done;
      src := d;
      dst := s;
      shift := sh + 8
    done;
    !src
  end

(* Subgraph induced by a member array (distinct vertices, any order).
   Returns the subgraph plus old->new (-1 when dropped) and new->old maps.
   New ids are assigned in increasing old id, so the numbering matches the
   keep-array interface below; the new->old map is the sorted copy of
   [members].  With [?scratch] the call allocates nothing proportional to
   [Graph.n t]: the old->new map aliases the scratch buffer and the
   new->old map is its occupant (ownership rule above). *)
let induced_members ?scratch t members =
  let sorted = sort_ids ~n:t.n (Array.copy members) in
  let new_of_old =
    match scratch with
    | None -> Array.make t.n (-1)
    | Some s -> Scratch.acquire s t.n ~occupant:sorted
  in
  let g_sub, old_of_new = induced_sorted t ~new_of_old ~members:sorted in
  (g_sub, new_of_old, old_of_new)

(* Subgraph induced by [keep] (classic keep-array interface; scans all of
   [0 .. n-1]).  Cold callers only — the hot path is [induced_members]. *)
let induced t keep =
  let count = ref 0 in
  for v = 0 to t.n - 1 do
    if keep.(v) then incr count
  done;
  let members = Array.make !count 0 in
  let i = ref 0 in
  for v = 0 to t.n - 1 do
    if keep.(v) then begin
      members.(!i) <- v;
      incr i
    end
  done;
  let new_of_old = Array.make t.n (-1) in
  let g_sub, old_of_new = induced_sorted t ~new_of_old ~members in
  (g_sub, new_of_old, old_of_new)
