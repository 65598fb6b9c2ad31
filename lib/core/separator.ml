(* The deterministic cycle-separator algorithm (Theorem 1, Section 5.3).

   The implementation mirrors the paper's phase structure:

   - Phase 1 (precomputation): spanning tree, LEFT/RIGHT DFS orders and all
     real fundamental face weights — charged their Õ(D) CONGEST bounds.
   - Phase 2: G[P] is a tree — pick a subtree in [n/3, 2n/3] (falling back
     to the centroid, see DESIGN.md deviation 1) and mark the root path.
   - Phase 3: a real fundamental face has weight in [n/3, 2n/3] — its border
     path is the separator (Lemma 5).
   - Phase 4: some face is heavier than 2n/3 — take the minimal such face
     (NOT-CONTAINS, Lemma 18) and search its full augmentation from u
     (Lemma 7): a sweep of the interior leaves in the face's DFS order,
     then the maximal hiding edge, then the face border itself.  If all of
     them fail, the other heavy faces follow in increasing weight.
   - Phase 5: all faces lighter than n/3 — take a maximal face, split the
     outside into F_l / F_r (Lemma 8), and either the border path works or
     one side is heavy and is swept like Phase 4 from the root.

   Nothing runs below the phases: each sweep probes its whole balanced
   window (see [crossing_leaves]), and when every candidate of the phase
   set fails, [find] raises [No_separator_found].

   Phases 2 and 3 are balanced by count — subtree sizes and Lemma 5's
   face weight bound both sides — so their candidate is returned without
   a probe; every Phase 4/5 candidate is verified with a balance probe
   before being returned.  Each group still charges its balance check,
   amortized over the group: the Phase-1 tree and its orders (already
   charged once in "sep.phase1-precompute") make path membership
   node-local, so the candidates a phase generates ride the slots of ONE
   running inside/outside weight aggregation on the shared tree handle,
   instead of a fresh mark-path + aggregation per candidate (the Lemma
   18/19 balance-check idiom; DESIGN.md deviation 2).  Host-side the
   handle carries the probe's BFS marks and queue, allocated at the first
   probe and reused by every later one; a probe stops at the first
   component above 2n/3, or once too few vertices remain unreached to
   form one.  The phase and the number of candidates tried are reported
   so the experiments can show the paper's first-choice candidate almost
   always wins. *)

open Repro_graph
open Repro_tree
open Repro_congest

type result = {
  separator : int list;
  endpoints : (int * int) option; (* fundamental edge closing the cycle *)
  phase : string;
  candidates_tried : int;
}

exception No_separator_found of string

(* The shared verification handle of one [find]: the Phase-1 tree is held
   by the config, the BFS marks and queue of [Check.balanced_with] are
   allocated at the first probe and reused by every later one (a [find]
   answered in Phase 2 or 3 allocates neither), and [batch] tracks which
   phase group's slot-batched balance aggregation has already been
   charged. *)
type verifier = {
  mutable scratch : bool array;
  mutable queue : int array;
  mutable batch : string option;
}

let verifier_create () = { scratch = [||]; queue = [||]; batch = None }

(* The T-path between [a] and [b] as a candidate.  The first candidate of
   a phase group charges the group's single k-slot balance aggregation
   (the running inside/outside weights of every candidate the group
   generates ride one collective on the Phase-1 tree); later candidates of
   the same group are free slots of it.  Path membership is node-local
   given the Phase-1 orders, so no per-candidate mark-path is charged. *)
let candidate ?rounds cfg ver tried ~batch ~phase ~closing (a, b) =
  incr tried;
  if ver.batch <> Some batch then begin
    ver.batch <- Some batch;
    Rounds.span rounds "sep.verify" (fun () ->
        Rounds.charge rounds Verify_balance)
  end;
  {
    separator = Rooted.path (Config.tree cfg) a b;
    endpoints = closing;
    phase;
    candidates_tried = !tried;
  }

(* A candidate whose balance no lemma certifies by count: probe it. *)
let try_path ?rounds cfg ver tried ~batch ~phase ~closing ab =
  let r = candidate ?rounds cfg ver tried ~batch ~phase ~closing ab in
  if Array.length ver.scratch = 0 then begin
    ver.scratch <- Array.make (Config.n cfg) false;
    ver.queue <- Array.make (Config.n cfg) 0
  end;
  if Check.balanced_with ~scratch:ver.scratch ~queue:ver.queue cfg r.separator
  then Some r
  else None

let first_some candidates =
  List.fold_left
    (fun acc c -> match acc with Some _ -> acc | None -> c ())
    None candidates

(* ------------------------------------------------------------------ *)
(* Phase 2: trees.                                                     *)
(* ------------------------------------------------------------------ *)

let tree_phase ?rounds cfg ver tried =
  let tree = Config.tree cfg in
  let n = Config.n cfg in
  Rounds.charge rounds Range_subtree;
  (* The paper's RANGE-PROBLEM: any v with n_T(v) in [n/3, 2n/3]. *)
  let in_range = ref None in
  for v = 0 to n - 1 do
    let s = Rooted.size tree v in
    if 3 * s >= n && 3 * s <= 2 * n && !in_range = None then in_range := Some v
  done;
  let v0 =
    match !in_range with
    | Some v -> v
    | None ->
      (* Deviation 1: stars and similar trees have no subtree in range; the
         centroid path is still a valid separator. *)
      Rooted.centroid tree
  in
  (* Balanced by count, so accepted without a probe: G[P] is the tree, and
     every subtree hanging off the root path to v0 lies either inside
     T(v0) below v0 (fewer than n_T(v0) <= 2n/3 nodes) or outside T(v0)
     (at most n - n_T(v0) <= 2n/3 nodes); for the centroid, each hangs
     inside one of its components, of at most n/2 nodes. *)
  candidate ?rounds cfg ver tried ~batch:"tree" ~phase:"2-tree" ~closing:None
    (Rooted.root tree, v0)

(* ------------------------------------------------------------------ *)
(* Phase 4 sweep: monotone counter over a region's leaves.             *)
(* ------------------------------------------------------------------ *)

(* Order the region by [pi]; return, for each T-leaf in the region (in
   sweep order), the counter value at it.  [counter] distinguishes the two
   sweeps of the algorithm:
   - [`Prefix]: number of region nodes up to the leaf — the augmented-face
     weight proxy for a face anchored at one of its endpoints (Phase 4);
   - [`Global]: the leaf's own DFS position — the enclosed-side size of a
     root-anchored path (Phase 5 / Lemma 8's virtual face from the root). *)
let region_leaves_with_counter cfg ~pi ~counter region =
  let tree = Config.tree cfg in
  (* [pi] is a permutation of 0..n-1: placing each region node at its
     position orders the region in one scan, without a comparison sort. *)
  let at = Array.make (Config.n cfg) (-1) in
  List.iter (fun z -> at.(pi z) <- z) region;
  let acc = ref [] and i = ref 0 in
  Array.iteri
    (fun p z ->
      if z >= 0 then begin
        incr i;
        if Rooted.is_leaf tree z then begin
          let c = match counter with `Prefix -> !i | `Global -> p + 1 in
          acc := (z, c) :: !acc
        end
      end)
    at;
  List.rev !acc

(* Candidate leaves, in probe order: the one at which the counter first
   reaches n/3 and its sweep neighbours, an evenly spaced sample of the
   leaves whose counter lies in the balanced window [n/3, 2n/3], then every
   other leaf of that window.  The sample only orders the probes (it finds
   the usual hit early); the window itself is complete, so a sweep never
   skips its only balanced hit.  Every probe rides the phase group's one
   running balance aggregate, so the window costs no extra charged batch. *)
let window_sample = 24

let crossing_leaves ~n leaves_with_counter =
  let window =
    List.filter_map
      (fun (t, c) -> if 3 * c >= n && 3 * c <= 2 * n then Some t else None)
      leaves_with_counter
  in
  let sampled =
    let k = List.length window in
    if k <= window_sample then window
    else begin
      let arr = Array.of_list window in
      List.init window_sample (fun i -> arr.(i * (k - 1) / (window_sample - 1)))
    end
  in
  let around =
    let rec find prev = function
      | [] -> (match prev with Some p -> [ p ] | None -> [])
      | (t, c) :: rest ->
        if 3 * c >= n then begin
          let next = match rest with (t', _) :: _ -> [ t' ] | [] -> [] in
          (t :: next) @ (match prev with Some p -> [ p ] | None -> [])
        end
        else find (Some t) rest
    in
    find None leaves_with_counter
  in
  (* Dedup, preserving priority: crossing point, sample, rest of window. *)
  let seen = Hashtbl.create 16 in
  List.filter
    (fun t ->
      if Hashtbl.mem seen t then false
      else begin
        Hashtbl.replace seen t ();
        true
      end)
    (around @ sampled @ window)

(* NOT-CONTAINED / NOT-CONTAINS selection (Lemmas 17 and 18).  Weights are
   monotone under face containment, so a weight-extremal edge can only be
   contained in (or contain) an edge of equal weight: it suffices to resolve
   containment inside the tied tier. *)

let edge_contained cfg ~e ~container:(a, b) =
  Faces.edge_in_face cfg ~e:(a, b) ~f:e

(* First edge of [tier] (priority order) not contained in any other tier
   edge. *)
let pick_not_contained cfg tier =
  let rec go = function
    | [] -> List.hd tier
    | e :: rest ->
      if List.exists (fun f -> f <> e && edge_contained cfg ~e ~container:f) tier
      then go rest
      else e
  in
  go tier

(* First edge of [tier] that does not contain any other tier edge. *)
let pick_not_contains cfg tier =
  let rec go = function
    | [] -> List.hd tier
    | e :: rest ->
      if List.exists (fun f -> f <> e && edge_contained cfg ~e:f ~container:e) tier
      then go rest
      else e
  in
  go tier

(* The fundamental edges of weight [best], sorted: the tied tier. *)
let weight_tier (ws : Weights.t) ~best =
  let tier = ref [] in
  for i = Array.length ws.w - 1 downto 0 do
    if ws.w.(i) = best then tier := (ws.u.(i), ws.v.(i)) :: !tier
  done;
  List.sort compare !tier

let pi_for_case cfg = function
  | Faces.Anc_left -> Rooted.pi_right (Config.tree cfg)
  | Faces.Unrelated | Faces.Anc_right -> Rooted.pi_left (Config.tree cfg)

(* Phase 4 on the minimal heavy face F_e, augmented from u (Lemma 7): the
   sweep hits, then the maximal hiding edge of each hit, then the border
   itself.  [ws] is Phase 1's table, which the hiding tests range over. *)
let heavy_face_candidates ?rounds cfg ver tried ws ~u ~v =
  let n = Config.n cfg in
  let case = Faces.classify cfg ~u ~v in
  Rounds.charge rounds Detect_face;
  let interior = Faces.interior cfg ~u ~v in
  Rounds.charge rounds Full_augmentation;
  let leaves =
    region_leaves_with_counter cfg ~pi:(pi_for_case cfg case) ~counter:`Prefix
      interior
  in
  let hits = crossing_leaves ~n leaves in
  let paths =
    (* Sweep hits are balance-verified; a closing edge is reported only
       with the paper's own certificate: the hit is not hidden (Lemma 6 =
       (T, F_e)-compatibility with u).  The probe does not depend on it,
       so only the balanced hit is tested. *)
    List.map
      (fun t () ->
        try_path ?rounds cfg ver tried ~batch:"phase4" ~phase:"4-augmented"
          ~closing:None (u, t)
        |> Option.map (fun r ->
               if Hidden.is_hidden cfg ws ~e:(u, v) ~t then r
               else { r with endpoints = Some (u, t) }))
      hits
  in
  let hidden =
    List.map
      (fun t () ->
        Rounds.charge rounds Hidden;
        match Hidden.maximal_hiding_edge cfg ws ~e:(u, v) ~t with
        | None -> None
        | Some (z1, z2) ->
          (* Claim 6 certifies the virtual edge u-z2. *)
          first_some
            [
              (fun () ->
                try_path ?rounds cfg ver tried ~batch:"phase4"
                  ~phase:"4-hidden" ~closing:(Some (u, z2)) (u, z2));
              (fun () ->
                try_path ?rounds cfg ver tried ~batch:"phase4"
                  ~phase:"4-hidden" ~closing:(Some (u, z1)) (u, z1));
            ])
      hits
  in
  first_some
    (paths @ hidden
    @ [
        (fun () ->
          try_path ?rounds cfg ver tried ~batch:"phase4" ~phase:"4-border"
            ~closing:(Some (u, v)) (u, v));
      ])

(* Phase-5 heavy-outside sweep: the region outside F_e on one side, swept
   from the tree root (simulating the virtual face F_{root,u'} of Lemma 8). *)
let outside_sweep_candidates ?rounds cfg ver tried ~label region =
  let n = Config.n cfg in
  let root = Rooted.root (Config.tree cfg) in
  Rounds.charge rounds Outside_sweep;
  let leaves =
    region_leaves_with_counter cfg
      ~pi:(Rooted.pi_left (Config.tree cfg))
      ~counter:`Global region
  in
  let hits = crossing_leaves ~n leaves in
  (* Root-anchored sweep hits carry no certified closing edge. *)
  List.map
    (fun t () ->
      try_path ?rounds cfg ver tried ~batch:"phase5" ~phase:label ~closing:None
        (root, t))
    hits

(* ------------------------------------------------------------------ *)
(* The full algorithm for one part.                                    *)
(* ------------------------------------------------------------------ *)

let find ?rounds cfg =
  let tree = Config.tree cfg in
  let n = Config.n cfg in
  let root = Rooted.root tree in
  let tried = ref 0 in
  if n <= 3 then
    {
      separator = [ root ];
      endpoints = None;
      phase = "trivial";
      candidates_tried = 0;
    }
  else begin
    (* Phase 1 precomputation charges; the tree, its orders and the
       verification buffers live in one handle shared by every probe and
       election below — nothing below re-marks or re-walks it. *)
    let ver = verifier_create () in
    Rounds.span rounds "sep.phase1-precompute" (fun () ->
        Rounds.charge rounds Spanning_forest;
        Rounds.charge rounds Dfs_order;
        Rounds.charge rounds Weights);
    let ws = Weights.all_weights cfg in
    let k = Array.length ws.w in
    if k = 0 then
      Rounds.span rounds "sep.phase2-tree" (fun () -> tree_phase ?rounds cfg ver tried)
    else begin
      (* Phase 3: a face with weight in range.  Its border path is
         balanced by count (Lemma 5): the weight bounds the nodes inside
         the cycle from above and, with the border, those outside it. *)
      let phase3_result =
        Rounds.span rounds "sep.phase3-face" (fun () ->
            Rounds.charge rounds Range_weights;
            let in_range w = 3 * w >= n && 3 * w <= 2 * n in
            let i = ref 0 in
            while !i < k && not (in_range ws.w.(!i)) do
              incr i
            done;
            if !i = k then None
            else begin
              let e = (ws.u.(!i), ws.v.(!i)) in
              Some
                (candidate ?rounds cfg ver tried ~batch:"phase3" ~phase:"3-face"
                   ~closing:(Some e) e)
            end)
      in
      match phase3_result with
      | Some r -> r
      | None ->
        let heavy w = 3 * w > 2 * n in
        let wmin =
          Array.fold_left (fun a w -> if heavy w then min a w else a) max_int ws.w
        in
        let result =
          if wmin < max_int then
            Rounds.span rounds "sep.phase4-heavy" @@ fun () ->
            begin
            (* Phase 4: a minimal heavy face — one that does not contain any
               other heavy face (NOT-CONTAINS, Lemma 18).  Containment can
               only hold within the minimum-weight tier. *)
            Rounds.charge rounds Not_contained;
            let face (u, v) () =
              heavy_face_candidates ?rounds cfg ver tried ws ~u ~v
            in
            let e = pick_not_contains cfg (weight_tier ws ~best:wmin) in
            match face e () with
            | Some _ as r -> r
            | None ->
              (* Every candidate of that face can fail in a configuration
                 with no outward root direction ([Config.root_first] =
                 None: a DFS component, or an embedding without
                 coordinates), where Section 4's outer-face root
                 convention does not hold; the failing face is usually
                 anchored at the root.  Fall through to the other heavy
                 faces in increasing weight, uncapped (DESIGN.md
                 deviation 2). *)
              Rounds.span rounds "sep.phase4-next-face" @@ fun () ->
              Weights.to_list ws
              |> List.filter (fun (_, w) -> heavy w)
              |> List.stable_sort (fun (_, w1) (_, w2) -> compare w1 w2)
              |> List.filter_map (fun (f, _) -> if f = e then None else Some (face f))
              |> first_some
          end
          else
            Rounds.span rounds "sep.phase5-light" @@ fun () ->
            begin
            (* Phase 5: every face lighter than n/3.  Take an edge not
               contained in any other face (NOT-CONTAINED, Lemma 17); only
               the maximum-weight tier can contain it. *)
            Rounds.charge rounds Not_contained;
            let wmax = Array.fold_left max min_int ws.w in
            let u, v = pick_not_contained cfg (weight_tier ws ~best:wmax) in
            let nl, nr, region = Weights.outside_split cfg ~u ~v in
            Rounds.charge rounds Outside_split;
            let base_candidates =
              (* Only the border path carries a certified closing edge (the
                 real fundamental edge e); the root-anchored candidates are
                 balanced path separators — Lemma 8's insertability argument
                 for the virtual root edge relies on the outer-face root
                 convention, which arbitrary embeddings need not satisfy. *)
              [
                (fun () ->
                  try_path ?rounds cfg ver tried ~batch:"phase5"
                    ~phase:"5-border" ~closing:(Some (u, v)) (u, v));
                (fun () ->
                  try_path ?rounds cfg ver tried ~batch:"phase5"
                    ~phase:"5-root-v" ~closing:None (root, v));
                (fun () ->
                  try_path ?rounds cfg ver tried ~batch:"phase5"
                    ~phase:"5-root-u" ~closing:None (root, u));
              ]
            in
            let sweeps =
              if 3 * nl > 2 * n then
                outside_sweep_candidates ?rounds cfg ver tried
                  ~label:"5-left-sweep" (region `Left)
              else if 3 * nr > 2 * n then
                outside_sweep_candidates ?rounds cfg ver tried
                  ~label:"5-right-sweep" (region `Right)
              else []
            in
            first_some (base_candidates @ sweeps)
          end
        in
        match result with
        | Some r -> r
        | None -> raise (No_separator_found "every phase candidate failed")
    end
  end

(* Balanced-trim post-pass: drop vertices from both ends of the separator
   path while the balance holds.  Balance is monotone under set inclusion of
   tree paths (removing more vertices only shrinks components), so each end
   has one threshold, and adding the path back one vertex at a time finds
   it: one O(n + m) pass per end.

   - Pass 1 starts from G minus the whole path and adds arr.(0), arr.(1),
     ... back; the first add-back x that leaves a component above the
     limit unbalances [x+1 .. k-1], so i = x (k - 1 when none does).
   - Pass 2 starts from G minus [i .. k-1] and adds arr.(k-1), arr.(k-2),
     ... back down to arr.(i+1); the first y that overflows unbalances
     [i .. y-1], so j = y (i when none does).

   Each pass labels the components of its starting graph with one BFS
   (both passes share the label array and the queue) and runs the
   add-backs on a union-find over those component ids, each carrying its
   vertex count, plus one id per removed path vertex.

   The modelled CONGEST algorithm finds the same thresholds by binary
   search, one running-aggregate update per probe, so the ledger replays
   those probes: their number depends only on k, i and j.  When no window
   is balanced the path comes back unchanged.

   The result is still a balanced tree-path separator, but the closing edge
   of the trimmed path may no longer be insertable in the embedding — use it
   when only balance matters (e.g. divide-and-conquer applications), not
   when the cycle property itself is needed. *)
let shrink ?rounds cfg path =
  let arr = Array.of_list path in
  let k = Array.length arr in
  if k <= 1 then path
  else begin
    let g = Config.graph cfg in
    let n = Config.n cfg in
    let limit = Check.balance_limit n in
    (* -2 at a removed path vertex, -1 while unlabelled, else a union-find
       id: a component of the starting graph, or an added-back vertex. *)
    let label = Array.make n (-1) and queue = Array.make n 0 in
    (* From G minus arr.(lo .. k-1), add arr.(from), arr.(from + step), ...
       back; the first whose add-back overflows, or [stop] (not added). *)
    let first_overflow ~lo ~from ~stop ~step =
      Array.fill label 0 n (-1);
      for x = lo to k - 1 do
        label.(arr.(x)) <- -2
      done;
      let comps = ref 0 and sizes = ref [] and largest = ref 0 in
      for s = 0 to n - 1 do
        if label.(s) = -1 then begin
          let c = !comps in
          label.(s) <- c;
          queue.(0) <- s;
          let head = ref 0 and tail = ref 1 in
          while !head < !tail do
            let x = queue.(!head) in
            incr head;
            for j = 0 to Graph.degree g x - 1 do
              let y = Graph.nth_neighbor g x j in
              if label.(y) = -1 then begin
                label.(y) <- c;
                queue.(!tail) <- y;
                incr tail
              end
            done
          done;
          sizes := !tail :: !sizes;
          largest := max !largest !tail;
          incr comps
        end
      done;
      let c = !comps in
      let uf =
        Repro_util.Union_find.of_sizes
          (Array.append (Array.of_list (List.rev !sizes)) (Array.make (k - lo) 1))
      in
      let rec go x =
        if x = stop then stop
        else begin
          let v = arr.(x) in
          let id = c + x - lo in
          label.(v) <- id;
          for j = 0 to Graph.degree g v - 1 do
            let l = label.(Graph.nth_neighbor g v j) in
            if l >= 0 && Repro_util.Union_find.union uf id l then
              largest :=
                max !largest (Repro_util.Union_find.component_size uf id)
          done;
          if !largest > limit then x else go (x + step)
        end
      in
      go from
    in
    let i = first_overflow ~lo:0 ~from:0 ~stop:(k - 1) ~step:1 in
    let j = first_overflow ~lo:i ~from:(k - 1) ~stop:i ~step:(-1) in
    (* The binary searches' probes: [i .. k-1] is balanced iff mid <= i,
       [i .. mid] iff mid >= j. *)
    let rec replay lo hi below =
      if hi - lo > 1 then begin
        Rounds.span rounds "sep.shrink-probe" (fun () ->
            Rounds.charge rounds Shrink_balance);
        let mid = (lo + hi) / 2 in
        if below mid then replay mid hi below else replay lo mid below
      end
    in
    replay 0 k (fun mid -> mid <= i);
    replay (i - 1) (k - 1) (fun mid -> mid < j);
    Array.to_list (Array.sub arr i (j - i + 1))
  end

(* Theorem 1: separators for every part of a partition, as one
   [Rounds.map_parts] batch — charged its most expensive part, with the
   output independent of pool scheduling. *)
let find_partition ?rounds ?pool emb ~parts =
  Screen.require ?rounds ~entry:"Separator.find_partition" emb;
  let tasks = Array.of_list (List.map Array.of_list parts) in
  let cost = Array.fold_left (fun a m -> a + Array.length m) 0 tasks in
  (* The batch span covers both the (possibly parallel) per-part runs and
     the deterministic merge, so the heaviest part's spliced trace lands
     inside it. *)
  Rounds.span rounds "sep.partition" @@ fun () ->
  Rounds.map_parts ?rounds ?pool ~label:"pool.separators" ~cost
    (fun ?rounds members ->
      if Array.length members = 0 then
        invalid_arg "Separator.find_partition: empty part"
      else begin
        let cfg = Config.of_part ~members ~root:members.(0) emb in
        (cfg, find ?rounds cfg)
      end)
    tasks
  |> Array.to_list
