(* Composed message-level subroutines.

   The deterministic subroutines of Section 5.2 decompose into a constant
   number of broadcasts and aggregations once the Phase-1 data (DFS orders,
   depths, subtree intervals) is at the nodes.  This module executes that
   decomposition for real: every step is a run of the synchronous engine,
   and the returned statistics are the sums of genuinely executed rounds,
   messages and bandwidth maxima.

   Communication goes through the collective layer ([Collective]): each
   subroutine builds one communication-tree context and issues *batched*
   collectives against it, so the k scalar values a subroutine needs to
   make global (endpoint positions, sizes, the face-decision data, ...)
   ride a single pipelined engine run of O(depth + k) rounds instead of k
   serial convergecast+broadcast pairs.  The choreography itself is
   written once, against a small [comms] vocabulary, and instantiated
   twice:

   - the public API binds it to the batched [Collective] context;
   - [Reference] binds it to the serial pre-refactor choreography (one
     engine run per scalar hop) and is kept as the oracle for the
     differential suite (test/test_collective.ml): both instantiations
     must produce bit-identical outputs, while the [engine_runs] counter
     exposes the batching win.

   Inputs follow the distributed representation of a spanning tree: each
   node locally knows its parent, depth, LEFT/RIGHT order positions and the
   size of its subtree (so its LEFT interval is [pi_l, pi_l + size)). *)

open Repro_graph

type tree_knowledge = {
  parent : int array; (* -1 at the root *)
  depth : int array;
  pi_left : int array;
  size : int array; (* subtree sizes *)
  root : int; (* the unique node with parent -1 *)
}

type stats = Collective.stats = {
  rounds : int;
  messages : int;
  max_edge_bits : int;
  total_bits : int;
  engine_runs : int;
  collectives : int;
}

(* ------------------------------------------------------------------ *)
(* The communication vocabulary the subroutine cores are written in.    *)
(* Two bindings exist: batched (the public API) and serial (the         *)
(* pre-refactor oracle, [Reference]).                                   *)
(* ------------------------------------------------------------------ *)

type comms = {
  learn_batch : (int * int) array -> int array;
      (* k (source, value) scalar learns; every node ends up knowing all
         k values.  Batched: one pipelined run.  Serial: one
         convergecast + broadcast pair per scalar. *)
  agg_batch : op:Prim.op -> int array array -> int array;
      (* k whole-graph reductions, results known everywhere. *)
  subtree : op:Prim.op -> int array -> int array;
  ancestor : op:Prim.op -> int array -> int array;
  exchange : (int * int) list array -> (int * int) list array;
  partwise :
    bcast_parent:int array ->
    op:Prim.op ->
    parts:int array ->
    int array array ->
    int array array;
      (* k part-wise aggregations sharing one partition. *)
  bfs : root:int -> int array * int array;
  bfs_forest : Graph.t -> roots:bool array -> int array * int array;
      (* takes the graph explicitly: Borůvka floods the chosen forest
         edges, not the ctx graph. *)
}

(* One [Prim] run, its statistics folded into the ctx's tally. *)
let recorded ctx (out, s) =
  Collective.record ctx s;
  out

(* The batched binding: the multi-value collectives are one pipelined run
   each on the [Collective] ctx, the one-run primitives come straight from
   [Prim], and the ctx's tally records every run. *)
let batched_comms g ~parent ~root:_ ctx =
  {
    learn_batch = Collective.learn_batch ctx;
    agg_batch = (fun ~op values -> Collective.agg_batch ctx ~op values);
    subtree =
      (fun ~op values -> recorded ctx (Prim.subtree_agg g ~parent ~op ~values));
    ancestor =
      (fun ~op values -> recorded ctx (Prim.ancestor_agg g ~parent ~op ~values));
    exchange = (fun sends -> recorded ctx (Prim.exchange g ~sends));
    partwise =
      (fun ~bcast_parent ~op ~parts values ->
        Collective.partwise_batch ctx ~bcast_parent ~op ~parts values);
    bfs = (fun ~root -> recorded ctx (Prim.bfs_tree g ~root));
    bfs_forest = (fun graph ~roots -> recorded ctx (Prim.bfs_forest graph ~roots));
  }

(* The serial binding: the pre-refactor choreography, kept as the
   differential oracle.  It is the batched binding with each multi-value
   collective paid one value at a time: a convergecast plus a broadcast
   per scalar, each learn rebuilding its own O(n) indicator array exactly
   as the monolith did, and one part-wise run per slot. *)
let serial_comms g ~parent ~root ctx =
  let agg_batch ~op values =
    Array.map
      (fun vals ->
        let sums = recorded ctx (Prim.subtree_agg g ~parent ~op ~values:vals) in
        (recorded ctx (Prim.broadcast g ~parent ~root ~value:sums.(root))).(0))
      values
  in
  {
    (batched_comms g ~parent ~root ctx) with
    learn_batch =
      (fun slots ->
        (* Values are all non-negative (orders, sizes), so -1 is a safe
           bottom element within the O(log n)-bit budget. *)
        agg_batch ~op:Prim.Max
          (Array.map
             (fun (source, value) ->
               Array.init (Graph.n g) (fun x -> if x = source then value else -1))
             slots));
    agg_batch;
    partwise =
      (fun ~bcast_parent ~op ~parts values ->
        Array.map
          (fun vals ->
            recorded ctx
              (Prim.partwise g ~parent:bcast_parent ~op ~parts ~values:vals))
          values);
  }

(* Run a subroutine core against one binding on a fresh ctx and return its
   accumulated tally. *)
let with_comms bind g ~parent ~root f =
  let ctx = Collective.create g ~parent ~root in
  let out = f (bind g ~parent ~root ctx) in
  (out, Collective.tally ctx)

let with_batched g ~parent ~root f = with_comms batched_comms g ~parent ~root f
let with_serial g ~parent ~root f = with_comms serial_comms g ~parent ~root f

(* ------------------------------------------------------------------ *)
(* DFS-ORDER-PROBLEM (Lemma 11): fragment merging with depth halving.   *)
(*                                                                      *)
(* Every node starts as its own fragment, knowing only local data: its  *)
(* parent, its depth, its children in rotation order and (after one     *)
(* subtree aggregation) the subtree sizes.  In each phase, fragments    *)
(* whose current depth is odd join the fragment holding their root's    *)
(* parent: the parent node computes the joining root's final relative   *)
(* position locally (positions are final from the start because they    *)
(* are derived from full subtree sizes), sends it across the one tree   *)
(* edge, and the joining fragment broadcasts the offset to its members  *)
(* with one part-wise aggregation.  Fragment depths halve each phase,   *)
(* so O(log n) phases suffice.                                          *)
(*                                                                      *)
(* All communication is executed in the engine: per phase, four         *)
(* one-round neighbour exchanges and ONE part-wise broadcast carrying   *)
(* all three payloads (delta_l, delta_r, new fragment id) as batch      *)
(* slots.  With the tree-pipelined part-wise fallback a phase costs     *)
(* O(depth + k) executed rounds (k = live fragments); the shortcut      *)
(* black box of the paper would make it Õ(D).                           *)
(* ------------------------------------------------------------------ *)

type orders = { pi_left : int array; pi_right : int array }

let dfs_orders_core comms g ~(children : int array array) ~(parent : int array)
    ~(depth : int array) ~root ~(size : int array) ~(bfs_parent : int array) =
  let n = Graph.n g in
  let frag = Array.init n Fun.id in
  let fdepth = Array.copy depth in
  let rel_l = Array.make n 0 in
  let rel_r = Array.make n 0 in
  let all_merged () = Array.for_all (fun f -> f = frag.(root)) frag in
  let phases = ref 0 in
  while not (all_merged ()) do
    incr phases;
    if !phases > 64 then invalid_arg "Composed.dfs_orders: too many phases";
    (* 1. Joining fragment roots ping their tree parents. *)
    let joining v = frag.(v) = v && v <> root && fdepth.(v) land 1 = 1 in
    let sends =
      Array.init n (fun v -> if joining v then [ (parent.(v), 1) ] else [])
    in
    let pings = comms.exchange sends in
    (* 2. Each parent z answers every joining child with its final relative
       LEFT/RIGHT positions and z's fragment id — all z-local data. *)
    let answers_l = Array.make n [] in
    let answers_r = Array.make n [] in
    let answers_f = Array.make n [] in
    Array.iteri
      (fun z received ->
        List.iter
          (fun (child, _) ->
            (* LEFT priority: counterclockwise-most child first, i.e. the
               reverse of the clockwise children order. *)
            let cs = children.(z) in
            let k = Array.length cs in
            let delta_l = ref (rel_l.(z) + 1) in
            (let continue_ = ref true in
             for i = k - 1 downto 0 do
               if !continue_ then
                 if cs.(i) = child then continue_ := false
                 else delta_l := !delta_l + size.(cs.(i))
             done);
            let delta_r = ref (rel_r.(z) + 1) in
            (let continue_ = ref true in
             for i = 0 to k - 1 do
               if !continue_ then
                 if cs.(i) = child then continue_ := false
                 else delta_r := !delta_r + size.(cs.(i))
             done);
            answers_l.(z) <- (child, !delta_l) :: answers_l.(z);
            answers_r.(z) <- (child, !delta_r) :: answers_r.(z);
            answers_f.(z) <- (child, frag.(z)) :: answers_f.(z))
          received)
      pings;
    let got_l = comms.exchange answers_l in
    let got_r = comms.exchange answers_r in
    let got_f = comms.exchange answers_f in
    (* 3. Broadcast (delta_l, delta_r, new fragment id) within each OLD
       fragment: one part-wise MAX aggregation with three batch slots,
       joining roots holding the payloads and everyone else -1 (deltas
       are >= 0). *)
    let pick got v = match got.(v) with [ (_, x) ] -> x | _ -> 0 in
    let payload_values payload =
      Array.init n (fun v -> if frag.(v) = v then payload v else -1)
    in
    let bcast =
      comms.partwise ~bcast_parent:bfs_parent ~op:Prim.Max ~parts:frag
        [|
          payload_values (fun v -> if joining v then pick got_l v else 0);
          payload_values (fun v -> if joining v then pick got_r v else 0);
          payload_values (fun v -> if joining v then pick got_f v else frag.(v));
        |]
    in
    let bl = bcast.(0) and br = bcast.(1) and bf = bcast.(2) in
    (* 4. Local updates. *)
    for v = 0 to n - 1 do
      rel_l.(v) <- rel_l.(v) + bl.(v);
      rel_r.(v) <- rel_r.(v) + br.(v);
      frag.(v) <- bf.(v);
      fdepth.(v) <- fdepth.(v) / 2
    done
  done;
  ({ pi_left = rel_l; pi_right = rel_r }, !phases)

(* Phase 0 of the order computation: subtree sizes (one convergecast) and
   a BFS communication tree, so the pipelined part-wise aggregation pays
   depth_BFS, not depth_T.  Callers that already hold both (phase1) pass
   them in instead of paying the runs again. *)
let dfs_orders_run comms g ~children ~parent ~depth ~root =
  let n = Graph.n g in
  let size = comms.subtree ~op:Prim.Sum (Array.make n 1) in
  let bfs_parent, _ = comms.bfs ~root in
  dfs_orders_core comms g ~children ~parent ~depth ~root ~size ~bfs_parent

let dfs_orders g ~children ~parent ~depth ~root =
  let (orders, phases), st =
    with_batched g ~parent ~root (fun comms ->
        dfs_orders_run comms g ~children ~parent ~depth ~root)
  in
  (orders, phases, st)

(* ------------------------------------------------------------------ *)
(* WEIGHTS-PROBLEM (Lemma 12), executed.                                *)
(*                                                                      *)
(* After Phase 1 every node holds: parent, depth, subtree size, its     *)
(* LEFT/RIGHT positions and its full clockwise rotation.  The weight of *)
(* a real fundamental edge e = uv (Definition 2) is then computable by  *)
(* its two endpoints from five one-round exchanges across e itself:     *)
(* positions/depth both ways, the case decided at the deeper            *)
(* endpoint, and the far endpoint's locally-computed p-term.            *)
(* ------------------------------------------------------------------ *)

type local_view = {
  lparent : int array;
  ldepth : int array;
  lsize : int array;
  lrot : int array array; (* full clockwise neighbour order *)
  lchildren : int array array; (* tree children, clockwise *)
  lpi_l : int array;
  lpi_r : int array;
}

(* Package a Phase-1 local view as tree knowledge; the root is recovered
   once here rather than re-scanned by every collective. *)
let tk_of_view (lv : local_view) =
  let root = ref (-1) in
  Array.iteri (fun v p -> if p = -1 then root := v) lv.lparent;
  {
    parent = lv.lparent;
    depth = lv.ldepth;
    pi_left = lv.lpi_l;
    size = lv.lsize;
    root = !root;
  }

(* Rotation position of [y] around [x], normalized so the parent edge is at
   0 (the root keeps its rotation's own origin) — node-local. *)
let lnpos lv x y =
  let rot = lv.lrot.(x) in
  let d = Array.length rot in
  let find t =
    let p = ref (-1) in
    Array.iteri (fun i z -> if z = t then p := i) rot;
    !p
  in
  let anchor = if lv.lparent.(x) >= 0 then find lv.lparent.(x) else 0 in
  ((find y - anchor) + d) mod d

(* pi_left of a child: the node's own position plus the sizes of the
   children explored before it (LEFT priority = counterclockwise-most
   first, i.e. reverse clockwise order) — node-local. *)
let child_pi_left lv x c =
  let cs = lv.lchildren.(x) in
  let acc = ref (lv.lpi_l.(x) + 1) in
  (let continue_ = ref true in
   for i = Array.length cs - 1 downto 0 do
     if !continue_ then
       if cs.(i) = c then continue_ := false else acc := !acc + lv.lsize.(cs.(i))
   done);
  !acc

let child_pi_right lv x c =
  let cs = lv.lchildren.(x) in
  let acc = ref (lv.lpi_r.(x) + 1) in
  (let continue_ = ref true in
   for i = 0 to Array.length cs - 1 do
     if !continue_ then
       if cs.(i) = c then continue_ := false else acc := !acc + lv.lsize.(cs.(i))
   done);
  !acc

(* The child of [x] whose subtree contains LEFT position [pi] — local. *)
let lchild_toward lv x pi =
  let cs = lv.lchildren.(x) in
  let ans = ref (-1) in
  Array.iter
    (fun c ->
      let lo = child_pi_left lv x c in
      if pi >= lo && pi < lo + lv.lsize.(c) then ans := c)
    cs;
  !ans

(* Case encoding exchanged across the edge. *)
let case_unrelated = 0
and case_anc_right = 1 (* ancestor, path child before the edge clockwise *)
and case_anc_left = 2

(* p-term of endpoint [x] for the face of the edge (x, other): the sizes of
   x's children hanging inside — all conditions are rotation-local. *)
let p_term_local lv ~case ~at_ancestor_end x ~other ~w1 =
  let cs = lv.lchildren.(x) in
  let total = ref 0 in
  Array.iter
    (fun c ->
      let inside =
        if case = case_unrelated then
          if at_ancestor_end (* x plays the role of u *) then
            lnpos lv x c < lnpos lv x other
          else lnpos lv x c > lnpos lv x other
        else if at_ancestor_end then begin
          let pc = lnpos lv x c
          and pv = lnpos lv x other
          and pw = lnpos lv x w1 in
          if case = case_anc_right then pw < pc && pc < pv else pv < pc && pc < pw
        end
        else if case = case_anc_right then lnpos lv x c > lnpos lv x other
        else lnpos lv x c < lnpos lv x other
      in
      if inside && c <> w1 then total := !total + lv.lsize.(c))
    cs;
  !total

let weights_core comms g (lv : local_view) =
  let n = Graph.n g in
  (* Fundamental edges, as seen locally: graph neighbours that are not the
     parent and not a child. *)
  let fundamental v =
    Graph.neighbors g v |> Array.to_list
    |> List.filter (fun u -> lv.lparent.(v) <> u && lv.lparent.(u) <> v)
  in
  let swap_all field =
    let sends =
      Array.init n (fun v -> List.map (fun u -> (u, field v)) (fundamental v))
    in
    comms.exchange sends
  in
  let got_pl = swap_all (fun v -> lv.lpi_l.(v)) in
  let got_pr = swap_all (fun v -> lv.lpi_r.(v)) in
  let got_d = swap_all (fun v -> lv.ldepth.(v)) in
  let look got v u = List.assoc u got.(v) in
  (* Each endpoint decides, for each incident fundamental edge, whether it
     is the "u" end (smaller LEFT position) and which case applies; the u
     end then sends the case across so the v end can compute its p-term. *)
  let case_of v u =
    (* v plays "u" (normalized first endpoint); u is the far end. *)
    let pl_far = look got_pl v u in
    if pl_far >= lv.lpi_l.(v) && pl_far < lv.lpi_l.(v) + lv.lsize.(v) then begin
      (* ancestor case: orientation from the rotation at v. *)
      let w1 = lchild_toward lv v pl_far in
      if lnpos lv v u > lnpos lv v w1 then case_anc_right else case_anc_left
    end
    else case_unrelated
  in
  let case_sends =
    Array.init n (fun v ->
        List.filter_map
          (fun u ->
            if lv.lpi_l.(v) < look got_pl v u then Some (u, case_of v u) else None)
          (fundamental v))
  in
  let got_case = comms.exchange case_sends in
  (* The far (v) endpoint answers with its p-term for that case. *)
  let p_sends =
    Array.init n (fun x ->
        List.map
          (fun (u_end, case) ->
            (u_end, p_term_local lv ~case ~at_ancestor_end:false x ~other:u_end ~w1:(-1)))
          got_case.(x))
  in
  let got_p = comms.exchange p_sends in
  (* Now every "u" endpoint computes the weight locally. *)
  let results = ref [] in
  for u = 0 to n - 1 do
    List.iter
      (fun v ->
        if lv.lpi_l.(u) < look got_pl u v then begin
          let case = case_of u v in
          let pv = look got_p u v in
          let pl_v = look got_pl u v
          and pr_v = look got_pr u v
          and d_v = look got_d u v in
          let w =
            if case = case_unrelated then begin
              let pu = p_term_local lv ~case ~at_ancestor_end:true u ~other:v ~w1:(-1) in
              pu + pv + pl_v - (lv.lpi_l.(u) + lv.lsize.(u)) + 1
            end
            else begin
              let w1 = lchild_toward lv u pl_v in
              let pu = p_term_local lv ~case ~at_ancestor_end:true u ~other:v ~w1 in
              if case = case_anc_right then
                pu + pv + (pl_v - child_pi_left lv u w1) - (d_v - (lv.ldepth.(u) + 1))
              else
                pu + pv + (pr_v - child_pi_right lv u w1) - (d_v - (lv.ldepth.(u) + 1))
            end
          in
          results := ((u, v), w) :: !results
        end)
      (fundamental u)
  done;
  !results

let weights g (lv : local_view) =
  let tk = tk_of_view lv in
  with_batched g ~parent:tk.parent ~root:tk.root (fun comms ->
      weights_core comms g lv)

(* ------------------------------------------------------------------ *)
(* Phase 1 (Section 5.3), executed end to end: from purely local data   *)
(* (parent pointers, depths, rotations) to the full local view — sizes, *)
(* LEFT/RIGHT orders — via subtree aggregation and fragment merging.    *)
(* ------------------------------------------------------------------ *)

let phase1_core comms g ~(rot_orders : int array array) ~(parent : int array)
    ~(depth : int array) ~root =
  let n = Graph.n g in
  (* Tree children in clockwise order starting after the parent edge —
     node-local from the rotation. *)
  let children =
    Array.init n (fun v ->
        let rot = rot_orders.(v) in
        let d = Array.length rot in
        let anchor =
          if parent.(v) < 0 then 0
          else begin
            let p = ref 0 in
            Array.iteri (fun i y -> if y = parent.(v) then p := i) rot;
            !p
          end
        in
        let out = ref [] in
        for k = d - 1 downto 0 do
          let y = rot.((anchor + k) mod d) in
          if parent.(y) = v then out := y :: !out
        done;
        Array.of_list !out)
  in
  (* One subtree aggregation and one BFS tree, shared with the order
     computation (the monolith paid the size convergecast twice). *)
  let size = comms.subtree ~op:Prim.Sum (Array.make n 1) in
  let bfs_parent, _ = comms.bfs ~root in
  let orders, _ =
    dfs_orders_core comms g ~children ~parent ~depth ~root ~size ~bfs_parent
  in
  ( {
      lparent = parent;
      ldepth = depth;
      lsize = size;
      lrot = rot_orders;
      lchildren = children;
      lpi_l = orders.pi_left;
      lpi_r = orders.pi_right;
    },
    bfs_parent )

let phase1 g ~rot_orders ~parent ~depth ~root =
  let (lv, _), st =
    with_batched g ~parent ~root (fun comms ->
        phase1_core comms g ~rot_orders ~parent ~depth ~root)
  in
  (lv, st)

(* Is [x] an ancestor of [z]?  Purely local once pi_left(z) is known. *)
let is_ancestor_local (tk : tree_knowledge) ~anc ~desc_pi =
  desc_pi >= tk.pi_left.(anc) && desc_pi < tk.pi_left.(anc) + tk.size.(anc)

(* LCA-PROBLEM (Lemma 14): every node learns the LCA of u and v; executed
   as one two-slot batched learn (the endpoint positions) plus one
   aggregation.  Returns the learned positions too — every composed
   caller needs them next. *)
let lca_core comms n (tk : tree_knowledge) ~u ~v =
  let got = comms.learn_batch [| (u, tk.pi_left.(u)); (v, tk.pi_left.(v)) |] in
  let pi_u = got.(0) and pi_v = got.(1) in
  (* Each node checks locally whether it is a common ancestor; the LCA is
     the deepest one — one MAX aggregation over (depth, id). *)
  let enc x d = (d * (n + 1)) + x in
  let values =
    Array.init n (fun x ->
        if is_ancestor_local tk ~anc:x ~desc_pi:pi_u
           && is_ancestor_local tk ~anc:x ~desc_pi:pi_v
        then enc x tk.depth.(x)
        else -1)
  in
  let best = (comms.agg_batch ~op:Prim.Max [| values |]).(0) in
  (best mod (n + 1), pi_u, pi_v)

let lca g (tk : tree_knowledge) ~u ~v =
  with_batched g ~parent:tk.parent ~root:tk.root (fun comms ->
      let w, _, _ = lca_core comms (Graph.n g) tk ~u ~v in
      w)

(* MARK-PATH-PROBLEM (Lemma 13): each node learns whether it lies on the
   tree path between u and v.  With the Phase-1 data this needs only the
   two endpoint positions and the LCA data: x is on the path iff x is an
   ancestor of u or of v, and the LCA is an ancestor of x.  The LCA's
   position and size ride one batched learn; [extra] lets callers
   (detect-face, hidden) piggyback their own scalars on that run. *)
let mark_path_core comms n (tk : tree_knowledge) ~u ~v ~extra =
  let w, pi_u, pi_v = lca_core comms n tk ~u ~v in
  let slots =
    Array.append [| (w, tk.pi_left.(w)); (w, tk.size.(w)) |] extra
  in
  let got = comms.learn_batch slots in
  let pi_w = got.(0) and size_w = got.(1) in
  let marked =
    Array.init n (fun x ->
        (is_ancestor_local tk ~anc:x ~desc_pi:pi_u
        || is_ancestor_local tk ~anc:x ~desc_pi:pi_v)
        && tk.pi_left.(x) >= pi_w
        && tk.pi_left.(x) < pi_w + size_w)
  in
  (marked, Array.sub got 2 (Array.length extra))

let mark_path g (tk : tree_knowledge) ~u ~v =
  with_batched g ~parent:tk.parent ~root:tk.root (fun comms ->
      fst (mark_path_core comms (Graph.n g) tk ~u ~v ~extra:[||]))

(* ------------------------------------------------------------------ *)
(* DETECT-FACE-PROBLEM (Lemma 15), executed: every node learns whether  *)
(* it lies on the border or in the interior of the fundamental face of  *)
(* a given real fundamental edge.                                       *)
(*                                                                      *)
(* The endpoints compute locally (rotation + subtree sizes) the          *)
(* interval of LEFT positions taken by their descendants hanging inside *)
(* the face (the paper's I(u), I(v)); these intervals plus the          *)
(* endpoints' positions, the case and the LCA data all ride the         *)
(* mark-path batch — three engine runs in total — after which every     *)
(* node decides membership with Remark 1's local tests.                 *)
(* ------------------------------------------------------------------ *)

(* Interval of LEFT (or RIGHT) positions of the descendants of [x] hanging
   inside the face — x-local.  Returns (lo, len). *)
let inside_interval lv ~case ~at_ancestor_end ~pi_right_order x ~other ~w1 =
  let cs = lv.lchildren.(x) in
  let lo = ref max_int and len = ref 0 in
  Array.iter
    (fun c ->
      let inside =
        if case = case_unrelated then
          if at_ancestor_end then lnpos lv x c < lnpos lv x other
          else lnpos lv x c > lnpos lv x other
        else if at_ancestor_end then begin
          let pc = lnpos lv x c and pv = lnpos lv x other and pw = lnpos lv x w1 in
          if case = case_anc_right then pw < pc && pc < pv else pv < pc && pc < pw
        end
        else if case = case_anc_right then lnpos lv x c > lnpos lv x other
        else lnpos lv x c < lnpos lv x other
      in
      if inside && c <> w1 then begin
        let start =
          if pi_right_order then child_pi_right lv x c else child_pi_left lv x c
        in
        lo := min !lo start;
        len := !len + lv.lsize.(c)
      end)
    cs;
  if !len = 0 then (0, 0) else (!lo, !len)

type face_membership = { border : bool array; inside : bool array }

let detect_face_core comms n (lv : local_view) ~u ~v ~extra =
  let tk = tk_of_view lv in
  (* The u endpoint (smaller LEFT position) decides the case; all data it
     broadcasts is u-local. *)
  let u, v = if lv.lpi_l.(u) < lv.lpi_l.(v) then (u, v) else (v, u) in
  let is_anc =
    lv.lpi_l.(v) >= lv.lpi_l.(u) && lv.lpi_l.(v) < lv.lpi_l.(u) + lv.lsize.(u)
  in
  let w1 = if is_anc then lchild_toward lv u lv.lpi_l.(v) else -1 in
  let case =
    if not is_anc then case_unrelated
    else if lnpos lv u v > lnpos lv u w1 then case_anc_right
    else case_anc_left
  in
  let right_order = case = case_anc_left in
  let iu_lo, iu_len =
    inside_interval lv ~case ~at_ancestor_end:true ~pi_right_order:right_order u
      ~other:v ~w1
  in
  let iv_lo, iv_len =
    inside_interval lv ~case ~at_ancestor_end:false ~pi_right_order:right_order v
      ~other:u ~w1:(-1)
  in
  let pi = if case = case_anc_left then lv.lpi_r else lv.lpi_l in
  (* All twelve decision scalars ride the mark-path batch (plus whatever
     the caller piggybacks). *)
  let face_slots =
    [|
      (u, case);
      (u, pi.(u));
      (v, pi.(v));
      (u, lv.lsize.(u));
      (v, lv.lsize.(v));
      (u, iu_lo);
      (u, iu_len);
      (v, iv_lo);
      (v, iv_len);
      ( u,
        if case = case_unrelated then 0
        else if case = case_anc_left then child_pi_right lv u w1
        else child_pi_left lv u w1 );
      (* In the ancestor cases the subtree-membership tests still need
         LEFT positions (subtree intervals are LEFT intervals). *)
      (u, lv.lpi_l.(u));
      (v, lv.lpi_l.(v));
    |]
  in
  (* Border: the executed MARK-PATH, carrying the face scalars. *)
  let border, got =
    mark_path_core comms n tk ~u ~v ~extra:(Array.append face_slots extra)
  in
  let case_b = got.(0) in
  let pi_u = got.(1)
  and pi_v = got.(2)
  and size_u = got.(3)
  and size_v = got.(4)
  and iu_lo = got.(5)
  and iu_len = got.(6)
  and iv_lo = got.(7)
  and iv_len = got.(8)
  and pi_w1 = got.(9)
  and pil_u = got.(10)
  and pil_v = got.(11) in
  (* Local decision at every node. *)
  let pi = if case_b = case_anc_left then lv.lpi_r else lv.lpi_l in
  let inside = Array.make n false in
  for z = 0 to n - 1 do
    if not border.(z) then begin
      let in_tu = lv.lpi_l.(z) > pil_u && lv.lpi_l.(z) < pil_u + size_u in
      let in_tv = lv.lpi_l.(z) >= pil_v && lv.lpi_l.(z) < pil_v + size_v in
      let pz = pi.(z) in
      inside.(z) <-
        (if case_b = case_unrelated then
           if in_tu then pz >= iu_lo && pz < iu_lo + iu_len
           else if in_tv then pz >= iv_lo && pz < iv_lo + iv_len
           else pz > pi_u + size_u - 1 && pz < pi_v
         else if not in_tu then false
         else if in_tv then pz >= iv_lo && pz < iv_lo + iv_len
         else if pz >= iu_lo && pz < iu_lo + iu_len then true
         else pz >= pi_w1 && pz < pi_v)
    end
  done;
  ({ border; inside }, Array.sub got 12 (Array.length extra))

let detect_face g (lv : local_view) ~u ~v =
  let tk = tk_of_view lv in
  with_batched g ~parent:tk.parent ~root:tk.root (fun comms ->
      fst (detect_face_core comms (Graph.n g) lv ~u ~v ~extra:[||]))

(* ------------------------------------------------------------------ *)
(* End-to-end executed separator, Phase 3 case (Section 5.3): when some *)
(* real fundamental face has weight in [n/3, 2n/3], its border path is  *)
(* a cycle separator (Lemma 5).  Pipeline: Phase 1, executed weights, a *)
(* RANGE aggregation to elect an in-range edge, and the marking of its  *)
(* border path.  Returns None when no face is in range (the remaining   *)
(* phases are run in the charged model by Repro_core.Separator).        *)
(* ------------------------------------------------------------------ *)

let separator_phase3_core comms g ~rot_orders ~parent ~depth ~root =
  let n = Graph.n g in
  let lv, bfs_parent = phase1_core comms g ~rot_orders ~parent ~depth ~root in
  let edge_weights = weights_core comms g lv in
  (* RANGE-PROBLEM: elect one in-range edge, known to everyone — one
     part-wise MAX over the single whole-graph part, with the edge encoded
     into an identifier held by its first endpoint.  The BFS tree from
     Phase 1 is reused as the pipeline tree. *)
  let encode (u, v) = (u * n) + v in
  let candidate =
    Array.make n (-1) (* per node: its best in-range incident edge *)
  in
  List.iter
    (fun ((u, v), w) ->
      if 3 * w >= n && 3 * w <= 2 * n then
        candidate.(u) <- max candidate.(u) (encode (u, v)))
    edge_weights;
  let elected =
    (comms.partwise ~bcast_parent:bfs_parent ~op:Prim.Max
       ~parts:(Array.make n 0) [| candidate |]).(0)
  in
  if elected.(root) < 0 then None
  else begin
    let u = elected.(root) / n and v = elected.(root) mod n in
    let tk = tk_of_view lv in
    let marked, _ = mark_path_core comms n tk ~u ~v ~extra:[||] in
    Some ((u, v), marked)
  end

let separator_phase3 g ~rot_orders ~parent ~depth ~root =
  with_batched g ~parent ~root (fun comms ->
      separator_phase3_core comms g ~rot_orders ~parent ~depth ~root)

(* ------------------------------------------------------------------ *)
(* JOIN iteration (Lemma 2), executed.                                  *)
(*                                                                      *)
(* One halving iteration of JOIN needs, per active component: the       *)
(* anchor edge (the partial-tree endpoint of maximum DFS depth with an  *)
(* unvisited neighbour in the component), whether the component holds   *)
(* any still-marked node, and — once the preferring forest is rooted    *)
(* at the anchors — the attach target (the deepest marked node of the   *)
(* component's tree).  The per-component scalars for ALL components     *)
(* ride slot-batched part-wise MAX aggregations over the component      *)
(* partition: one two-slot batch for anchor + marked, then (after the   *)
(* host-side forest rooting, which the charged model bills as Lemmas 9  *)
(* and 11) a one-slot batch for the targets, and finally a two-slot     *)
(* whole-graph SUM carrying the post-attach bookkeeping (surviving      *)
(* marked nodes, surviving unvisited nodes).  Four engine runs per      *)
(* iteration, where the serial choreography pays one run per part-wise  *)
(* slot and a convergecast + broadcast pair per global sum.             *)
(*                                                                      *)
(* Candidate codes are computed node-locally after a single one-round   *)
(* exchange (visited nodes tell their neighbours their partial-tree     *)
(* depth); MAX over the codes then realises exactly the host            *)
(* tie-breaks: anchor = deepest visited endpoint, ties to the           *)
(* lexicographically smallest (u, v); target = deepest marked node,     *)
(* ties to the first in component order.  Codes are O(n^3) and so stay  *)
(* within the O(log n)-bit message budget.                              *)
(*                                                                      *)
(* [forest] and [attach] are host callbacks between the batches: the    *)
(* first decodes the elected anchors, roots the preferring forests and  *)
(* returns the node-local target codes; the second decodes the elected  *)
(* targets, activates the paths and returns the node-local bookkeeping  *)
(* bits.                                                                *)
(* ------------------------------------------------------------------ *)

let join_elections_core comms g ~bcast_parent ~parts ~visited_depth ~marked
    ~forest ~attach =
  let n = Graph.n g in
  let sends =
    Array.init n (fun u ->
        if visited_depth.(u) >= 0 then
          Array.to_list
            (Array.map (fun v -> (v, visited_depth.(u))) (Graph.neighbors g u))
        else [])
  in
  let heard = comms.exchange sends in
  let anchor_code = Array.make n 0 in
  let marked_flag = Array.make n 0 in
  for v = 0 to n - 1 do
    (* Candidates exist only at unvisited nodes; nodes outside the active
       components sit in a dummy part whose aggregates nobody reads. *)
    if visited_depth.(v) < 0 then begin
      List.iter
        (fun (u, du) ->
          let code = 1 + (du * n * n) + ((n * n) - 1 - ((u * n) + v)) in
          if code > anchor_code.(v) then anchor_code.(v) <- code)
        heard.(v);
      if marked.(v) then marked_flag.(v) <- 1
    end
  done;
  let a =
    comms.partwise ~bcast_parent ~op:Prim.Max ~parts
      [| anchor_code; marked_flag |]
  in
  let target_code = forest a in
  let b =
    (comms.partwise ~bcast_parent ~op:Prim.Max ~parts [| target_code |]).(0)
  in
  let remaining_flag, unvisited_flag = attach b in
  let t = comms.agg_batch ~op:Prim.Sum [| remaining_flag; unvisited_flag |] in
  (a, b, t)

let join_elections g ~bcast_parent ~root ~parts ~visited_depth ~marked
    ~forest ~attach =
  with_batched g ~parent:bcast_parent ~root (fun comms ->
      join_elections_core comms g ~bcast_parent ~parts ~visited_depth ~marked
        ~forest ~attach)

(* ------------------------------------------------------------------ *)
(* Spanning forests by Borůvka (Lemma 9), executed.                     *)
(*                                                                      *)
(* Each phase: every node learns its neighbours' fragment ids (one      *)
(* exchange), proposes its cheapest outgoing edge, the fragment elects  *)
(* the minimum with one part-wise aggregation (parts = fragments), and  *)
(* the merged fragment ids are broadcast (one more part-wise            *)
(* aggregation).  With Lemma 9's 0/1 weights — 0 inside a part of the   *)
(* input partition, 1 across — stopping as soon as every cheapest       *)
(* outgoing edge has weight 1 yields a spanning tree of every part, in  *)
(* parallel.                                                            *)
(*                                                                      *)
(* Chain resolution inside a phase (fragments whose chosen edges form   *)
(* merge trees) is computed from the elected edges, which every node    *)
(* already holds — the classic pointer-halving rounds are elided and    *)
(* their O(log n) factor is part of the charged model.                  *)
(* ------------------------------------------------------------------ *)

let spanning_forest_core comms g ~parts =
  let n = Graph.n g in
  let frag = Array.init n Fun.id in
  let chosen = Hashtbl.create n in
  let encode u v = if u < v then (u * n) + v else (v * n) + u in
  (* One communication tree for all the part-wise aggregations. *)
  let bcast_parent, _ = comms.bfs ~root:0 in
  let continue_ = ref (n > 1) in
  let phases = ref 0 in
  while !continue_ do
    incr phases;
    if !phases > 64 then invalid_arg "Composed.spanning_forest: too many phases";
    (* 1. Learn neighbour fragment ids. *)
    let sends =
      Array.init n (fun v ->
          Graph.neighbors g v |> Array.to_list |> List.map (fun u -> (u, frag.(v))))
    in
    let nbr_frags = comms.exchange sends in
    (* 2. Local cheapest outgoing edge: weight 0 inside the input part,
       weight 1 across parts (Lemma 9's function). *)
    (* The sentinel must still fit the O(log n) message budget. *)
    let sentinel = n * n in
    let candidate =
      Array.init n (fun v ->
          List.fold_left
            (fun acc (u, fu) ->
              if fu = frag.(v) then acc
              else begin
                let w = if parts.(u) = parts.(v) then 0 else 1 in
                (* Lemma 9 stops before crossing parts. *)
                if w = 1 then acc
                else min acc (encode u v)
              end)
            sentinel nbr_frags.(v))
    in
    (* 3. Fragment-wide minimum (part-wise aggregation over fragments). *)
    let elected =
      (comms.partwise ~bcast_parent ~op:Prim.Min ~parts:frag [| candidate |]).(0)
    in
    (* 4. Record the elected edges and inform the far endpoints. *)
    let uf = Repro_util.Union_find.create n in
    Array.iteri (fun v f -> ignore (Repro_util.Union_find.union uf v f)) frag;
    let merged = ref false in
    Array.iteri
      (fun v e ->
        if v = frag.(v) && e <> sentinel then begin
          let a = e / n and b = e mod n in
          if Repro_util.Union_find.union uf a b then begin
            merged := true;
            Hashtbl.replace chosen (encode a b) ()
          end
        end)
      elected;
    if not !merged then continue_ := false
    else begin
      (* 5. Broadcast the new fragment ids (canonical representative). *)
      for v = 0 to n - 1 do
        frag.(v) <- Repro_util.Union_find.find uf v
      done;
      (* The id refresh costs one more part-wise broadcast. *)
      let _ =
        comms.partwise ~bcast_parent ~op:Prim.Min ~parts:frag
          [| Array.init n Fun.id |]
      in
      ()
    end
  done;
  (* Root every fragment at its representative and orient by flooding over
     the chosen edges only. *)
  let forest_edges =
    Hashtbl.fold (fun e () acc -> (e / n, e mod n) :: acc) chosen []
  in
  let forest = Graph.of_edges ~n forest_edges in
  let roots = Array.init n (fun v -> frag.(v) = v) in
  let parent, depth = comms.bfs_forest forest ~roots in
  ((parent, depth, frag), !phases)

let spanning_forest g ?parts () =
  let n = Graph.n g in
  let parts = match parts with Some p -> p | None -> Array.make n 0 in
  (* No spanning tree exists yet, so the ctx carries no communication
     tree: Borůvka only issues exchanges, part-wise pipelines and BFS
     floods, which are tree-free — the ctx is just the tally. *)
  let (out, phases), st =
    with_batched g ~parent:(Array.make n (-1)) ~root:0 (fun comms ->
        spanning_forest_core comms g ~parts)
  in
  (out, phases, st)

(* ------------------------------------------------------------------ *)
(* SCREENING TALLY: the executed side of the input screen (one-sided   *)
(* property testing in the Levi–Medina–Ron spirit).  One BFS flood     *)
(* doubles as the connectivity probe and the communication tree; the   *)
(* per-vertex tallies the host prepared (degree, face leadership,      *)
(* minimal violating-edge code) then ride the slots of one part-wise   *)
(* pipeline each for Sum and Min: Õ(D) total, like every other         *)
(* collective here.  On a disconnected input the aggregation is        *)
(* skipped — the reach count already decides the verdict.              *)
(* ------------------------------------------------------------------ *)

let screen_tally_core comms g ~root ~sums ~mins =
  let n = Graph.n g in
  let bfs_parent, dist = comms.bfs ~root in
  let reached =
    Array.fold_left (fun a d -> if d >= 0 then a + 1 else a) 0 dist
  in
  if reached < n then
    (Array.map (fun _ -> 0) sums, Array.map (fun _ -> 0) mins, reached)
  else begin
    (* Whole graph = one part; results read off at the root. *)
    let parts = Array.make n 0 in
    let slot op rows =
      if Array.length rows = 0 then [||]
      else
        comms.partwise ~bcast_parent:bfs_parent ~op ~parts rows
        |> Array.map (fun res -> res.(root))
    in
    (slot Prim.Sum sums, slot Prim.Min mins, reached)
  end

let screen_tally g ~root ~sums ~mins =
  let n = Graph.n g in
  let (s, m, reached), st =
    with_batched g ~parent:(Array.make n (-1)) ~root (fun comms ->
        screen_tally_core comms g ~root ~sums ~mins)
  in
  (s, m, reached, st)

(* ------------------------------------------------------------------ *)
(* RE-ROOT-PROBLEM (Lemma 19), executed: same tree edges, new root.     *)
(*                                                                      *)
(* One two-slot batched learn (the new root's LEFT position and depth)  *)
(* plus one ancestor-MAX aggregation (Proposition 5) so every node      *)
(* learns the depth of its LCA with the new root; then all updates are  *)
(* local.  Note: Lemma 19's printed update for nodes that are neither   *)
(* ancestors nor descendants of the new root (d(v) + d(v0)) omits the   *)
(* -2*d(LCA) term; the implementation computes the true distance and    *)
(* the suite checks it against centralized re-rooting.                  *)
(* ------------------------------------------------------------------ *)

let reroot_core comms n (lv : local_view) ~new_root =
  let got =
    comms.learn_batch
      [| (new_root, lv.lpi_l.(new_root)); (new_root, lv.ldepth.(new_root)) |]
  in
  let pi_r0 = got.(0) and d_r0 = got.(1) in
  (* Depth of every node's LCA with the new root: the deepest of its own
     ancestors (itself included) that is also an ancestor of the new
     root — one executed ancestor-MAX aggregation. *)
  let anc_values =
    Array.init n (fun a ->
        if pi_r0 >= lv.lpi_l.(a) && pi_r0 < lv.lpi_l.(a) + lv.lsize.(a) then
          lv.ldepth.(a) + 1
        else 0)
  in
  let lca_depth1 = comms.ancestor ~op:Prim.Max anc_values in
  let parent' = Array.make n (-1) in
  let depth' = Array.make n 0 in
  for v = 0 to n - 1 do
    let is_anc = pi_r0 >= lv.lpi_l.(v) && pi_r0 < lv.lpi_l.(v) + lv.lsize.(v) in
    if v = new_root then begin
      parent'.(v) <- -1;
      depth'.(v) <- 0
    end
    else begin
      let d_lca = lca_depth1.(v) - 1 in
      depth'.(v) <- lv.ldepth.(v) + d_r0 - (2 * d_lca);
      if is_anc then
        (* Flip towards the new root: the child whose interval holds it. *)
        parent'.(v) <- lchild_toward lv v pi_r0
      else parent'.(v) <- lv.lparent.(v)
    end
  done;
  (parent', depth')

let reroot g (lv : local_view) ~new_root =
  let tk = tk_of_view lv in
  with_batched g ~parent:tk.parent ~root:tk.root (fun comms ->
      reroot_core comms (Graph.n g) lv ~new_root)

(* ------------------------------------------------------------------ *)
(* HIDDEN-PROBLEM (Lemma 16), executed: given the fundamental edge e    *)
(* and a T-leaf t inside its face, every node learns which of its own   *)
(* incident real fundamental edges hide t (Definition 4).               *)
(*                                                                      *)
(* After DETECT-FACE (with t's LEFT and RIGHT positions riding its      *)
(* batch), the verdict for an edge f = ab is computed at its pi-smaller  *)
(* endpoint from node-local data plus one-round exchanges across f       *)
(* itself (positions, sizes, membership, the far side's t-verdict and    *)
(* inside-interval lengths, and — for Definition 4's condition 2 — the   *)
(* escape verdict evaluated at u itself).  A leaf can only lie on the    *)
(* border of F_f as one of f's endpoints, which keeps every interior     *)
(* test a pure interval comparison.                                      *)
(* ------------------------------------------------------------------ *)

let hidden_core comms g (lv : local_view) ~u ~v ~t =
  let n = Graph.n g in
  let u, v = if lv.lpi_l.(u) < lv.lpi_l.(v) then (u, v) else (v, u) in
  (* t's positions ride the detect-face batch. *)
  let fm, got_t =
    detect_face_core comms n lv ~u ~v
      ~extra:[| (t, lv.lpi_l.(t)); (t, lv.lpi_r.(t)) |]
  in
  let pi_t_l = got_t.(0) and pi_t_r = got_t.(1) in
  let fundamental x =
    Graph.neighbors g x |> Array.to_list
    |> List.filter (fun y -> lv.lparent.(x) <> y && lv.lparent.(y) <> x)
  in
  let swap field =
    let sends =
      Array.init n (fun x -> List.map (fun y -> (y, field x y)) (fundamental x))
    in
    comms.exchange sends
  in
  let member_state x = if fm.inside.(x) then 2 else if fm.border.(x) then 1 else 0 in
  (* Per-edge exchanged data (the sender is the field's first argument). *)
  let got_pl = swap (fun x _ -> lv.lpi_l.(x)) in
  let got_pr = swap (fun x _ -> lv.lpi_r.(x)) in
  let got_sz = swap (fun x _ -> lv.lsize.(x)) in
  let got_mem = swap (fun x _ -> member_state x) in
  let look got x y = List.assoc y got.(x) in
  (* t-verdict at an endpoint x for the edge towards y, as a bitfield:
     bit0 = t lies in my strict subtree; bit1 = inside under the ">"
     (unrelated / anc-right) rule; bit2 = inside under the "<" (anc-left)
     rule.  Only the non-ancestor-end rules are needed from the far side. *)
  let t_verdict x y =
    if not (pi_t_l > lv.lpi_l.(x) && pi_t_l < lv.lpi_l.(x) + lv.lsize.(x)) then 0
    else begin
      let c = lchild_toward lv x pi_t_l in
      let gt = lnpos lv x c > lnpos lv x y in
      1 + (if gt then 2 else 0) + if not gt then 4 else 0
    end
  in
  let got_tv = swap t_verdict in
  (* Inside-interval lengths at an endpoint x for the edge to y, under both
     non-ancestor-end rules (the far side cannot know f's orientation). *)
  let inside_len x y ~rule_gt =
    Array.fold_left
      (fun acc c ->
        let inside =
          if rule_gt then lnpos lv x c > lnpos lv x y
          else lnpos lv x c < lnpos lv x y
        in
        if inside then acc + lv.lsize.(c) else acc)
      0 lv.lchildren.(x)
  in
  let got_len_gt = swap (fun x y -> inside_len x y ~rule_gt:true) in
  let got_len_lt = swap (fun x y -> inside_len x y ~rule_gt:false) in
  (* Orientation of f, sent from the ancestor end (only it can tell):
     0 = not my call, 1 = anc-right, 2 = anc-left. *)
  let got_orient =
    swap (fun x y ->
        let x_anc_y =
          lv.lpi_l.(y) >= lv.lpi_l.(x) && lv.lpi_l.(y) < lv.lpi_l.(x) + lv.lsize.(x)
        in
        if not x_anc_y then 0
        else begin
          let w1 = lchild_toward lv x lv.lpi_l.(y) in
          if lnpos lv x y > lnpos lv x w1 then 1 else 2
        end)
  in
  (* Definition 4 condition-2 verdict, evaluated at u itself for each of its
     incident fundamental edges f = (u, other): does some part of
     T_u ∩ F̊_e escape the closed region of F_f?  Everything u needs about
     the far endpoint has been exchanged above. *)
  let e_w1 =
    let anc =
      lv.lpi_l.(v) >= lv.lpi_l.(u) && lv.lpi_l.(v) < lv.lpi_l.(u) + lv.lsize.(u)
    in
    if anc then lchild_toward lv u lv.lpi_l.(v) else -1
  in
  let e_case =
    if e_w1 < 0 then case_unrelated
    else if lnpos lv u v > lnpos lv u e_w1 then case_anc_right
    else case_anc_left
  in
  let e_inside_child c =
    let p = lnpos lv u c in
    if e_case = case_unrelated then p < lnpos lv u v
    else begin
      let pv = lnpos lv u v and pw = lnpos lv u e_w1 in
      if e_case = case_anc_right then pw < p && p < pv else pv < p && p < pw
    end
  in
  let escape_verdict x other =
    if x <> u then 0
    else begin
      (* f's shape at u: u may be the ancestor end, the descendant end, or
         unrelated to [other]; the descendant end learns the orientation
         from the exchange above. *)
      let u_anc_other =
        lv.lpi_l.(other) >= lv.lpi_l.(u)
        && lv.lpi_l.(other) < lv.lpi_l.(u) + lv.lsize.(u)
      in
      let other_anc_u =
        lv.lpi_l.(u) >= look got_pl u other
        && lv.lpi_l.(u) < look got_pl u other + look got_sz u other
      in
      let f_w1 = if u_anc_other then lchild_toward lv u lv.lpi_l.(other) else -1 in
      let f_case =
        if u_anc_other then
          if lnpos lv u other > lnpos lv u f_w1 then case_anc_right
          else case_anc_left
        else if other_anc_u then
          if look got_orient u other = 1 then case_anc_right else case_anc_left
        else case_unrelated
      in
      let f_inside_child c =
        let p = lnpos lv u c in
        if f_case = case_unrelated then
          (* u is an endpoint of the unrelated edge; the interior side at u
             follows u's role under the normalization. *)
          if lv.lpi_l.(u) < look got_pl u other then p < lnpos lv u other
          else p > lnpos lv u other
        else if other_anc_u then
          (* u is the descendant end: Claim 4 (ii) and its mirror. *)
          if f_case = case_anc_right then p > lnpos lv u other
          else p < lnpos lv u other
        else begin
          let pv = lnpos lv u other and pw = lnpos lv u f_w1 in
          if f_case = case_anc_right then pw < p && p < pv else pv < p && p < pw
        end
      in
      let branch_escapes () =
        (* T_{f_w1}'s face-of-e part versus F_f's window (Claim 5 with the
           corrected orientation pairing) plus the far subtree. *)
        let cpi, far_len =
          if f_case = case_anc_right then
            (child_pi_left lv u f_w1, look got_len_gt u other)
          else (child_pi_right lv u f_w1, look got_len_lt u other)
        in
        let p_other =
          if f_case = case_anc_right then look got_pl u other
          else look got_pr u other
        in
        let sz_other = look got_sz u other in
        (* Tail beyond the far subtree, or far-subtree members outside the
           far inside-interval. *)
        cpi + lv.lsize.(f_w1) > p_other + sz_other || sz_other - 1 > far_len
      in
      let escapes =
        List.exists
          (fun c ->
            if not (e_inside_child c) then false
            else if c = f_w1 then branch_escapes ()
            else not (f_inside_child c))
          (Array.to_list lv.lchildren.(u))
      in
      if escapes then 1 else 0
    end
  in
  let got_escape = swap escape_verdict in
  (* The final verdict, at the pi-smaller endpoint a of f = ab. *)
  let hides a b =
    if (a, b) = (u, v) || (b, a) = (u, v) then false
    else begin
      let mem_a = member_state a and mem_b = look got_mem a b in
      if mem_a = 0 || mem_b = 0 then false
      else begin
        (* Containment of f in F_e. *)
        let contained =
          mem_a = 2 || mem_b = 2
          ||
          (* both endpoints on e's border: the dart a->b must leave into the
             interior arc — the same rule as Faces.child_inside, a-local. *)
          let x = a and c = b in
          if e_case = case_unrelated then begin
            if x = u then lnpos lv x c < lnpos lv x v
            else if x = v then lnpos lv x c > lnpos lv x u
            else begin
              let anc_of_u =
                lv.lpi_l.(u) >= lv.lpi_l.(x)
                && lv.lpi_l.(u) < lv.lpi_l.(x) + lv.lsize.(x)
              in
              let anc_of_v =
                lv.lpi_l.(v) >= lv.lpi_l.(x)
                && lv.lpi_l.(v) < lv.lpi_l.(x) + lv.lsize.(x)
              in
              if anc_of_u && anc_of_v then begin
                let u1 = lchild_toward lv x lv.lpi_l.(u) in
                let v1 = lchild_toward lv x lv.lpi_l.(v) in
                lnpos lv x v1 < lnpos lv x c && lnpos lv x c < lnpos lv x u1
              end
              else if anc_of_u then
                lnpos lv x c < lnpos lv x (lchild_toward lv x lv.lpi_l.(u))
              else lnpos lv x c > lnpos lv x (lchild_toward lv x lv.lpi_l.(v))
            end
          end
          else begin
            if x = u then begin
              let pc = lnpos lv x c and pv = lnpos lv x v and pw = lnpos lv x e_w1 in
              if e_case = case_anc_right then pw < pc && pc < pv
              else pv < pc && pc < pw
            end
            else if x = v then
              if e_case = case_anc_right then lnpos lv x c > lnpos lv x u
              else lnpos lv x c < lnpos lv x u
            else begin
              let next = lchild_toward lv x lv.lpi_l.(v) in
              if e_case = case_anc_right then lnpos lv x c > lnpos lv x next
              else lnpos lv x c < lnpos lv x next
            end
          end
        in
        if not contained then false
        else begin
          (* t strictly inside F_f?  (A leaf is on F_f's border only as an
             endpoint.) *)
          let pl_b = look got_pl a b in
          let a_anc_b = pl_b >= lv.lpi_l.(a) && pl_b < lv.lpi_l.(a) + lv.lsize.(a) in
          let f_w1 = if a_anc_b then lchild_toward lv a pl_b else -1 in
          let f_case =
            if not a_anc_b then case_unrelated
            else if lnpos lv a b > lnpos lv a f_w1 then case_anc_right
            else case_anc_left
          in
          let t_under_a =
            pi_t_l > lv.lpi_l.(a) && pi_t_l < lv.lpi_l.(a) + lv.lsize.(a)
          in
          let t_inside =
            if t = a || t = b then false
            else if t_under_a then begin
              let c = lchild_toward lv a pi_t_l in
              if a_anc_b && c = f_w1 then begin
                (* Under the path branch: the far side or the Claim-5
                   window in the orientation-matched order. *)
                let far = look got_tv a b in
                if far land 1 = 1 then
                  if f_case = case_anc_right then far land 2 > 0
                  else far land 4 > 0
                else if f_case = case_anc_right then
                  child_pi_left lv a f_w1 <= pi_t_l && pi_t_l < pl_b
                else
                  child_pi_right lv a f_w1 <= pi_t_r
                  && pi_t_r < look got_pr a b
              end
              else begin
                (* Hanging at a: classify c against f's arc at a. *)
                let p = lnpos lv a c in
                if f_case = case_unrelated then p < lnpos lv a b
                else begin
                  let pv = lnpos lv a b and pw = lnpos lv a f_w1 in
                  if f_case = case_anc_right then pw < p && p < pv
                  else pv < p && p < pw
                end
              end
            end
            else if not a_anc_b then begin
              (* Unrelated f: the far subtree, or the middle window. *)
              let far = look got_tv a b in
              if far land 1 = 1 then far land 2 > 0
              else pi_t_l > lv.lpi_l.(a) + lv.lsize.(a) - 1 && pi_t_l < pl_b
            end
            else false
          in
          if not t_inside then false
          else if a <> u && b <> u then true
          else begin
            let got = look got_escape a b in
            if a = u then escape_verdict u b = 1 else got = 1
          end
        end
      end
    end
  in
  let verdicts =
    Array.init n (fun a ->
        List.filter_map
          (fun b ->
            if lv.lpi_l.(a) < look got_pl a b && hides a b then Some (a, b)
            else None)
          (fundamental a))
  in
  (* Share each verdict across its edge so both endpoints know. *)
  let shared =
    let sends =
      Array.init n (fun a -> List.map (fun (_, b) -> (b, a)) verdicts.(a))
    in
    comms.exchange sends
  in
  Array.init n (fun x -> verdicts.(x) @ List.map (fun (b, _) -> (b, x)) shared.(x))

let hidden g (lv : local_view) ~u ~v ~t =
  let tk = tk_of_view lv in
  with_batched g ~parent:tk.parent ~root:tk.root (fun comms ->
      hidden_core comms g lv ~u ~v ~t)

(* ------------------------------------------------------------------ *)
(* The serial oracle: the identical subroutine cores bound to the       *)
(* pre-refactor one-run-per-scalar choreography.                        *)
(* ------------------------------------------------------------------ *)

module Reference = struct
  let dfs_orders g ~children ~parent ~depth ~root =
    let (orders, phases), st =
      with_serial g ~parent ~root (fun comms ->
          dfs_orders_run comms g ~children ~parent ~depth ~root)
    in
    (orders, phases, st)

  let phase1 g ~rot_orders ~parent ~depth ~root =
    let (lv, _), st =
      with_serial g ~parent ~root (fun comms ->
          phase1_core comms g ~rot_orders ~parent ~depth ~root)
    in
    (lv, st)

  let separator_phase3 g ~rot_orders ~parent ~depth ~root =
    with_serial g ~parent ~root (fun comms ->
        separator_phase3_core comms g ~rot_orders ~parent ~depth ~root)

  let join_elections g ~bcast_parent ~root ~parts ~visited_depth ~marked
      ~forest ~attach =
    with_serial g ~parent:bcast_parent ~root (fun comms ->
        join_elections_core comms g ~bcast_parent ~parts ~visited_depth ~marked
          ~forest ~attach)

  let weights g lv =
    let tk = tk_of_view lv in
    with_serial g ~parent:tk.parent ~root:tk.root (fun comms ->
        weights_core comms g lv)

  let lca g (tk : tree_knowledge) ~u ~v =
    with_serial g ~parent:tk.parent ~root:tk.root (fun comms ->
        let w, _, _ = lca_core comms (Graph.n g) tk ~u ~v in
        w)

  let mark_path g (tk : tree_knowledge) ~u ~v =
    with_serial g ~parent:tk.parent ~root:tk.root (fun comms ->
        fst (mark_path_core comms (Graph.n g) tk ~u ~v ~extra:[||]))

  let detect_face g lv ~u ~v =
    let tk = tk_of_view lv in
    with_serial g ~parent:tk.parent ~root:tk.root (fun comms ->
        fst (detect_face_core comms (Graph.n g) lv ~u ~v ~extra:[||]))

  let spanning_forest g ?parts () =
    let n = Graph.n g in
    let parts = match parts with Some p -> p | None -> Array.make n 0 in
    let (out, phases), st =
      with_serial g ~parent:(Array.make n (-1)) ~root:0 (fun comms ->
          spanning_forest_core comms g ~parts)
    in
    (out, phases, st)

  let screen_tally g ~root ~sums ~mins =
    let n = Graph.n g in
    let (s, m, reached), st =
      with_serial g ~parent:(Array.make n (-1)) ~root (fun comms ->
          screen_tally_core comms g ~root ~sums ~mins)
    in
    (s, m, reached, st)

  let reroot g lv ~new_root =
    let tk = tk_of_view lv in
    with_serial g ~parent:tk.parent ~root:tk.root (fun comms ->
        reroot_core comms (Graph.n g) lv ~new_root)

  let hidden g lv ~u ~v ~t =
    let tk = tk_of_view lv in
    with_serial g ~parent:tk.parent ~root:tk.root (fun comms ->
        hidden_core comms g lv ~u ~v ~t)
end
