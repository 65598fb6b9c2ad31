(* The differential oracles: every oracle checks one slice of the
   paper's correctness story on an arbitrary fuzzed instance, by comparing
   an executed computation against an independent reference AND asserting a
   pinned Õ(depth) round budget.  The budgets are deliberately generous
   (constants pinned ~4x above the observed ceiling across the seeded fuzz
   corpus) — they exist to catch asymptotic regressions (an O(n)-round
   schedule, an O(n)-candidate loop), not constant-factor drift, which the
   benchmarks track. *)

open Repro_util
open Repro_graph
open Repro_embedding
open Repro_tree
open Repro_congest
open Repro_core

type report = {
  oracle : string;
  ok : bool;
  detail : string;
  rounds : int;
  budget : int;
  checks : int;
}

type t = { name : string; guards : string; run : Instance.t -> report }

(* ------------------------------------------------------------------ *)
(* Check accumulation.                                                 *)
(* ------------------------------------------------------------------ *)

type ctx = {
  mutable fails : string list;
  mutable checks : int;
  mutable max_rounds : int;
  mutable max_budget : int;  (* budget paired with max_rounds *)
}

let ctx_create () =
  { fails = []; checks = 0; max_rounds = 0; max_budget = max_int }

let ck ctx label cond =
  ctx.checks <- ctx.checks + 1;
  if not cond then ctx.fails <- label :: ctx.fails

(* Round-budget assertion: also feeds the report's (rounds, budget) pair
   with the heaviest observed execution. *)
let bud ctx label rounds budget =
  if rounds > ctx.max_rounds then begin
    ctx.max_rounds <- rounds;
    ctx.max_budget <- budget
  end;
  ck ctx (Printf.sprintf "%s: %d rounds exceed budget %d" label rounds budget)
    (rounds <= budget)

let finish ~name ctx =
  {
    oracle = name;
    ok = ctx.fails = [];
    detail =
      (match ctx.fails with
      | [] -> Printf.sprintf "ok (%d checks)" ctx.checks
      | fs -> String.concat "; " (List.rev fs));
    rounds = ctx.max_rounds;
    budget = (if ctx.max_budget = max_int then max_int else ctx.max_budget);
    checks = ctx.checks;
  }

(* ------------------------------------------------------------------ *)
(* Shared instance views.                                              *)
(* ------------------------------------------------------------------ *)

let log2ceil n = int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.0))

let knowledge_of tree =
  let n = Rooted.n tree in
  Composed.
    {
      parent = Array.init n (Rooted.parent tree);
      depth = Array.init n (Rooted.depth tree);
      pi_left = Array.init n (Rooted.pi_left tree);
      size = Array.init n (Rooted.size tree);
      root = Rooted.root tree;
    }

let local_view_of rot tree =
  let n = Rooted.n tree in
  Composed.
    {
      lparent = Array.init n (Rooted.parent tree);
      ldepth = Array.init n (Rooted.depth tree);
      lsize = Array.init n (Rooted.size tree);
      lrot = Array.init n (Rotation.order rot);
      lchildren = Array.init n (Rooted.children tree);
      lpi_l = Array.init n (Rooted.pi_left tree);
      lpi_r = Array.init n (Rooted.pi_right tree);
    }

let tree_depth tree =
  let d = ref 0 in
  for v = 0 to Rooted.n tree - 1 do
    if Rooted.depth tree v > !d then d := Rooted.depth tree v
  done;
  !d

let take k xs = List.filteri (fun i _ -> i < k) xs

(* The real fundamental edges by a scan of its own: every non-tree edge of
   [cfg]'s tree, oriented so that pi_left u < pi_left v, last
   [Graph.iter_edges] edge first.  Ground truth for the edge list of
   [Weights.all_weights], the only one the library keeps. *)
let fundamental_reference cfg =
  let tree = Config.tree cfg in
  let acc = ref [] in
  Graph.iter_edges (Config.graph cfg) (fun a b ->
      if Rooted.parent tree a <> b && Rooted.parent tree b <> a then
        acc :=
          (if Rooted.pi_left tree a < Rooted.pi_left tree b then (a, b)
           else (b, a))
          :: !acc);
  !acc

(* Largest component of G minus [removed], counted by BFS over
   [Algo.restricted_components]: the independent count that
   [Check.max_component_without]'s union-find is cross-checked against. *)
let max_component_bfs g removed =
  let dead = Array.make (Graph.n g) false in
  List.iter (fun v -> dead.(v) <- true) removed;
  Algo.restricted_components g
    ~members:(Array.init (Graph.n g) Fun.id)
    ~skip:(Array.get dead)
  |> List.fold_left (fun acc c -> max acc (Array.length c)) 0

(* ------------------------------------------------------------------ *)
(* 0. "graph": the flat CSR store = a retained reference adjacency-list *)
(*    build (the pre-CSR representation), plus the induced-subgraph map  *)
(*    contracts every hot path relies on.                               *)
(* ------------------------------------------------------------------ *)

let run_graph (inst : Instance.t) =
  let ctx = ctx_create () in
  let g = Config.graph inst.config in
  let n = Graph.n g in
  let rng = Rng.create ((2 * inst.spec.Instance.seed) + 9) in
  let edge_list = Graph.edges g in
  (* Reference build: hash-table membership + per-vertex list adjacency,
     exactly the shape the pre-CSR core used. *)
  let ref_mem = Hashtbl.create (4 * Graph.m g) in
  let ref_adj = Array.make (max 1 n) [] in
  List.iter
    (fun (u, v) ->
      Hashtbl.replace ref_mem (min u v, max u v) ();
      ref_adj.(u) <- v :: ref_adj.(u);
      ref_adj.(v) <- u :: ref_adj.(v))
    edge_list;
  let ref_sorted = Array.map (List.sort_uniq compare) ref_adj in
  (* n / m / degree / neighbour rows (contents AND order: rows are sorted
     ascending by construction). *)
  ck ctx "m = |edges|" (Graph.m g = List.length edge_list);
  ck ctx "sum of degrees = 2m"
    (let s = ref 0 in
     for v = 0 to n - 1 do
       s := !s + Graph.degree g v
     done;
     !s = 2 * Graph.m g);
  let rows_ok = ref true and iter_ok = ref true in
  for v = 0 to n - 1 do
    let row = Graph.neighbors g v in
    if Array.to_list row <> ref_sorted.(v) then rows_ok := false;
    let seen = ref [] in
    Graph.iter_neighbors g v (fun u -> seen := u :: !seen);
    if List.rev !seen <> Array.to_list row then iter_ok := false;
    Array.iteri (fun i u -> if Graph.nth_neighbor g v i <> u then iter_ok := false) row
  done;
  ck ctx "neighbour rows = reference sets, ascending" !rows_ok;
  ck ctx "iter_neighbors/nth_neighbor = neighbors" !iter_ok;
  (* Membership: every reference edge present (both directions), sampled
     non-edges absent. *)
  ck ctx "mem_edge covers reference edges"
    (List.for_all (fun (u, v) -> Graph.mem_edge g u v && Graph.mem_edge g v u) edge_list);
  let neg_ok = ref true in
  for _ = 1 to 32 do
    let u = Rng.int rng n and v = Rng.int rng n in
    let reference = u <> v && Hashtbl.mem ref_mem (min u v, max u v) in
    if Graph.mem_edge g u v <> reference then neg_ok := false
  done;
  ck ctx "mem_edge = reference membership on random pairs" !neg_ok;
  (* edge_array is the primitive: u < v, lexicographically ascending, and
     [edges] derives from it unchanged. *)
  let ea = Graph.edge_array g in
  ck ctx "edges = Array.to_list edge_array" (edge_list = Array.to_list ea);
  ck ctx "edge_array normalized ascending"
    (let ok = ref true in
     Array.iteri
       (fun i (u, v) ->
         if u >= v then ok := false;
         if i > 0 && ea.(i - 1) >= (u, v) then ok := false)
       ea;
     !ok);
  (* Construction round-trip: flipped orientations and duplicates must
     normalize to the identical structure. *)
  let noisy =
    List.concat_map (fun (u, v) -> [ (v, u); (u, v) ]) edge_list
  in
  let g2 = Graph.of_edges ~n noisy in
  ck ctx "of_edges normalizes duplicates/orientation"
    (Graph.m g2 = Graph.m g
    && (let same = ref true in
        for v = 0 to n - 1 do
          if Graph.neighbors g2 v <> Graph.neighbors g v then same := false
        done;
        !same));
  (* Induced subgraphs: keep-array and member-array forms agree with each
     other and with a naive reference, and the scratch-backed form resets
     correctly across reuse. *)
  let scratch = Graph.Scratch.create () in
  let check_induced tag members =
    let keep = Array.make n false in
    Array.iter (fun v -> keep.(v) <- true) members;
    let sub_k, old2new_k, new2old_k = Graph.induced g keep in
    let sub_m, old2new_m, new2old_m = Graph.induced_members ~scratch g members in
    ck ctx (tag ^ ": members = keep (new->old map)") (new2old_m = new2old_k);
    ck ctx (tag ^ ": members = keep (old->new map)")
      (Array.for_all
         (fun v -> old2new_m.(v) = old2new_k.(v))
         (Array.init n Fun.id));
    ck ctx (tag ^ ": members = keep (graph)")
      (Graph.n sub_m = Graph.n sub_k
      && Graph.m sub_m = Graph.m sub_k
      && (let same = ref true in
          for v = 0 to Graph.n sub_k - 1 do
            if Graph.neighbors sub_m v <> Graph.neighbors sub_k v then
              same := false
          done;
          !same));
    (* New ids follow increasing old id; maps are mutual inverses. *)
    ck ctx (tag ^ ": new ids ascend in old id")
      (let ok = ref true in
       Array.iteri (fun i v -> if i > 0 && new2old_k.(i - 1) >= v then ok := false)
         new2old_k;
       !ok);
    ck ctx (tag ^ ": maps inverse")
      (Array.for_all (fun i -> old2new_k.(new2old_k.(i)) = i)
         (Array.init (Graph.n sub_k) Fun.id));
    (* Sub-edges = reference edges with both endpoints kept. *)
    let expect =
      List.filter (fun (u, v) -> keep.(u) && keep.(v)) edge_list
      |> List.map (fun (u, v) ->
             let a = old2new_k.(u) and b = old2new_k.(v) in
             (min a b, max a b))
      |> List.sort compare
    in
    ck ctx (tag ^ ": sub-edges = filtered reference edges")
      (List.sort compare (Graph.edges sub_k) = expect)
  in
  if n > 0 then begin
    let subset bound =
      let marks = Array.init n (fun _ -> Rng.int rng bound = 0) in
      let members = ref [] in
      Array.iteri (fun v m -> if m then members := v :: !members) marks;
      Array.of_list !members
    in
    let m1 = subset 2 in
    if Array.length m1 > 0 then check_induced "induced#1" m1;
    (* Reusing the same scratch on a different member set exercises the
       un-mark pass between calls. *)
    let m2 = subset 3 in
    if Array.length m2 > 0 then check_induced "induced#2 (scratch reuse)" m2
  end;
  finish ~name:"graph" ctx

(* ------------------------------------------------------------------ *)
(* 1. "engine": event-driven scheduler = dense reference scheduler      *)
(*    (bit-identical outputs AND statistics on every program).          *)
(* ------------------------------------------------------------------ *)

module Diff (P : Engine.PROGRAM) = struct
  module Fast = Engine.Make (P)
  module Ref = Reference.Engine.Make (P)

  let check g ~input =
    let out_r, st_r = Ref.run g ~input in
    let out_f, st_f = Fast.run g ~input in
    let err =
      if out_r <> out_f then Some "outputs diverge"
      else if st_r <> st_f then
        Some
          (Format.asprintf "stats diverge (ref %a, fast %a)" Engine.pp_stats
             st_r Engine.pp_stats st_f)
      else None
    in
    (st_f.Engine.rounds, err)
end

module Bfs_diff = Diff (Prim.Bfs_program)
module Subtree_diff = Diff (Prim.Subtree_program)
module Ancestor_diff = Diff (Prim.Ancestor_program)
module Exchange_diff = Diff (Prim.Exchange_program)
module Partwise_diff = Diff (Prim.Partwise_program)
module Collect_diff = Diff (Collective.Collect_program)

let run_engine (inst : Instance.t) =
  let ctx = ctx_create () in
  let g = Config.graph inst.config in
  let tree = Config.tree inst.config in
  let n = Graph.n g in
  let root = Rooted.root tree in
  let parent = Array.init n (Rooted.parent tree) in
  let rng = Rng.create ((2 * inst.spec.Instance.seed) + 1) in
  let diam = Algo.diameter g in
  let budget = (4 * (diam + tree_depth tree + 8)) + 16 in
  let diff name (rounds, err) =
    ck ctx
      (Printf.sprintf "%s: %s" name
         (match err with Some e -> e | None -> "engines agree"))
      (err = None);
    bud ctx name rounds budget
  in
  (* BFS from one root and from a seeded multi-root forest. *)
  diff "bfs" (Bfs_diff.check g ~input:(Array.init n (fun v -> v = root)));
  let multi = Array.init n (fun _ -> Rng.int rng 8 = 0) in
  multi.(root) <- true;
  diff "bfs-forest" (Bfs_diff.check g ~input:multi);
  (* Tree aggregations over the instance's own (possibly adversarial)
     spanning tree. *)
  let values = Array.init n (fun _ -> Rng.int rng 10_000) in
  let op = Rng.pick rng [| Prim.Sum; Prim.Min; Prim.Max |] in
  diff "subtree"
    (Subtree_diff.check g
       ~input:
         (Array.init n (fun v ->
              { Prim.Subtree_program.parent = parent.(v); value = values.(v); op })));
  diff "ancestor"
    (Ancestor_diff.check g
       ~input:
         (Array.init n (fun v ->
              { Prim.Ancestor_program.parent = parent.(v); value = values.(v); op })));
  (* A broadcast is the ancestor sum of a root-only value. *)
  diff "broadcast"
    (Ancestor_diff.check g
       ~input:
         (Array.init n (fun v ->
              {
                Prim.Ancestor_program.parent = parent.(v);
                value = (if v = root then 4242 else 0);
                op = Prim.Sum;
              })));
  (* One-round neighbourhood exchange with random payloads. *)
  diff "exchange"
    (Exchange_diff.check g
       ~input:
         (Array.init n (fun v ->
              Graph.neighbors g v |> Array.to_seq
              |> Seq.filter_map (fun u ->
                     if Rng.int rng 2 = 0 then Some (u, Rng.int rng 100)
                     else None)
              |> List.of_seq)));
  (* The k-slot programs (convergecast, part-wise) — the layer the
     composed subroutines ride on. *)
  let k = 3 in
  let ops = Array.init k (fun j -> [| Prim.Sum; Prim.Min; Prim.Max |].(j mod 3)) in
  diff "collect-batch"
    (Collect_diff.check g
       ~input:
         (Array.init n (fun v ->
              {
                Collective.Collect_program.parent = parent.(v);
                slots = Array.init k (fun _ -> Rng.int rng 1000);
                ops;
              })));
  let part = Array.init n (fun _ -> Rng.int rng 5) in
  part.(root) <- 0;
  diff "partwise-batch"
    (Partwise_diff.check g
       ~input:
         (Array.init n (fun v ->
              {
                Prim.Partwise_program.parent = parent.(v);
                part = part.(v);
                values = Array.init k (fun _ -> Rng.int rng 1000);
                ops;
              })));
  finish ~name:"engine" ctx

(* ------------------------------------------------------------------ *)
(* 2. "orders": Lemma 11 — distributed LEFT/RIGHT orders = Rooted's     *)
(*    recursive precomputation = the brute-force face walk.             *)
(* ------------------------------------------------------------------ *)

let run_orders (inst : Instance.t) =
  let ctx = ctx_create () in
  let g = Config.graph inst.config in
  let tree = Config.tree inst.config in
  let n = Graph.n g in
  let root = Rooted.root tree in
  let parent = Array.init n (Rooted.parent tree) in
  let depth = Array.init n (Rooted.depth tree) in
  let children = Array.init n (Rooted.children tree) in
  let pi_l = Array.init n (Rooted.pi_left tree) in
  let pi_r = Array.init n (Rooted.pi_right tree) in
  (* Independent geometric reference: first-visit orders along the face of
     the tree. *)
  let walk_l, walk_r =
    Facewalk.orders
      ~rot:(Config.rot inst.config)
      ~parent ~root
      ?root_first:(Config.root_first inst.config)
      ()
  in
  ck ctx "face-walk LEFT = Rooted pi_left" (walk_l = pi_l);
  ck ctx "face-walk RIGHT = Rooted pi_right" (walk_r = pi_r);
  (* Distributed fragment merging (the executed Lemma 11). *)
  let orders, phases, st = Composed.dfs_orders g ~children ~parent ~depth ~root in
  ck ctx "executed pi_left = Rooted" (orders.Composed.pi_left = pi_l);
  ck ctx "executed pi_right = Rooted" (orders.Composed.pi_right = pi_r);
  let d = tree_depth tree in
  let phase_bound = log2ceil (max 2 d) + 2 in
  ck ctx
    (Printf.sprintf "merging phases %d <= %d" phases phase_bound)
    (phases <= phase_bound);
  (* Executed rounds: the per-phase part-wise broadcast is pipelined over
     the fragments, so a phase with p fragments costs O(depth + p) rounds
     — linear in n at the first phases (observed ceiling ~12n; the engine
     has no shortcuts).  The Õ(depth) claim is asserted on the charged
     ledger by the separator/dfs oracles instead. *)
  bud ctx "dfs-orders" st.Composed.rounds
    ((20 * (n + (phase_bound * (d + 8)))) + 64);
  finish ~name:"orders" ctx

(* ------------------------------------------------------------------ *)
(* 3. "collective": batched tree subroutines = serial oracle =          *)
(*    centralized truth (Lemmas 12, 13, 14, 19).                        *)
(* ------------------------------------------------------------------ *)

let run_collective (inst : Instance.t) =
  let ctx = ctx_create () in
  let g = Config.graph inst.config in
  let tree = Config.tree inst.config in
  let rot = Config.rot inst.config in
  let n = Graph.n g in
  let tk = knowledge_of tree in
  let lv = local_view_of rot tree in
  let d = tree_depth tree in
  let rng = Rng.create ((2 * inst.spec.Instance.seed) + 3) in
  for _ = 1 to 3 do
    let u = Rng.int rng n and v = Rng.int rng n in
    let w, _ = Composed.lca g tk ~u ~v in
    let w', _ = Composed.Reference.lca g tk ~u ~v in
    ck ctx (Printf.sprintf "lca(%d,%d) = serial oracle" u v) (w = w');
    ck ctx
      (Printf.sprintf "lca(%d,%d) = centralized" u v)
      (w = Rooted.lca tree u v);
    let marked, st = Composed.mark_path g tk ~u ~v in
    let marked', st' = Composed.Reference.mark_path g tk ~u ~v in
    ck ctx "mark-path = serial oracle" (marked = marked');
    let path = Rooted.path tree u v in
    ck ctx "mark-path = centralized path"
      (List.for_all (fun x -> marked.(x)) path
      && Array.fold_left (fun a m -> if m then a + 1 else a) 0 marked
         = List.length path);
    (* The batching win must not silently erode. *)
    ck ctx
      (Printf.sprintf "mark-path batching: serial %d runs >= 3x batched %d"
         st'.Composed.engine_runs st.Composed.engine_runs)
      (st'.Composed.engine_runs >= 3 * st.Composed.engine_runs);
    bud ctx "mark-path" st.Composed.rounds ((16 * (d + 3)) + 16)
  done;
  let new_root = Rng.int rng n in
  let (p', d'), str = Composed.reroot g lv ~new_root in
  let (p'', d''), _ = Composed.Reference.reroot g lv ~new_root in
  ck ctx "reroot = serial oracle" (p' = p'' && d' = d'');
  let tree' = Rooted.reroot ~rot tree new_root in
  ck ctx "reroot = centralized"
    (p' = Array.init n (Rooted.parent tree')
    && d' = Array.init n (Rooted.depth tree'));
  bud ctx "reroot" str.Composed.rounds ((8 * (d + 3)) + 24);
  let ws, stw = Composed.weights g lv in
  let ws', _ = Composed.Reference.weights g lv in
  ck ctx "weights = serial oracle" (ws = ws');
  ck ctx "weights cover all fundamental edges"
    (List.length ws = List.length (fundamental_reference inst.config));
  ck ctx "weights = centralized Definition 2"
    (List.for_all
       (fun ((u, v), w) -> w = Weights.weight inst.config ~u ~v)
       (take 6 ws));
  (* Lemma 12: constant executed rounds once Phase-1 data is local. *)
  bud ctx "weights" stw.Composed.rounds 8;
  finish ~name:"collective" ctx

(* ------------------------------------------------------------------ *)
(* 4. "faces": DETECT-FACE and HIDDEN (Lemmas 15, 16) = serial oracle   *)
(*    = centralized face traversal.                                     *)
(* ------------------------------------------------------------------ *)

(* p_{F_e}(x) by per-child enumeration: scan every tree child of border
   node [x], keep those off the border that [Faces.child_inside] puts
   inside F_e, and sum their subtree sizes.  O(deg(x) log n) — ground
   truth for the row-interval [Weights.p_term]. *)
let p_term_reference cfg ~u ~v ~case x =
  let tree = Config.tree cfg in
  Rooted.fold_children tree x
    (fun acc c ->
      if (not (Faces.on_border cfg ~u ~v c)) && Faces.child_inside cfg ~u ~v ~case x c
      then acc + Rooted.size tree c
      else acc)
    0

(* Claim 6's fallback rule with per-edge Definition 2 weights: of the
   hiding edges not strictly contained in another, the heaviest, ties to
   the smaller edge.  Ground truth for [Hidden.maximal_hiding_edge], which
   reads the weights off Phase 1's table. *)
let maximal_hiding_edge_reference cfg ws ~e ~t =
  match Hidden.hiding_edges cfg ws ~e ~t with
  | [] -> None
  | edges ->
    let strictly_contained f f' =
      f <> f'
      && Faces.edge_in_face cfg ~e:f' ~f
      && not (Faces.edge_in_face cfg ~e:f ~f:f')
    in
    let maximal =
      List.filter (fun f -> not (List.exists (strictly_contained f) edges)) edges
    in
    let weighted =
      List.map
        (fun (a, b) -> (Weights.weight cfg ~u:a ~v:b, (a, b)))
        (if maximal = [] then edges else maximal)
    in
    let heavier (w, f) (w', f') = w > w' || (w = w' && f < f') in
    Some
      (snd
         (List.fold_left
            (fun b c -> if heavier c b then c else b)
            (List.hd weighted) weighted))

let run_faces (inst : Instance.t) =
  let ctx = ctx_create () in
  let g = Config.graph inst.config in
  let tree = Config.tree inst.config in
  let ws = Weights.all_weights inst.config in
  let lv = local_view_of (Config.rot inst.config) tree in
  let d = tree_depth tree in
  List.iter
    (fun (u, v) ->
      let fm, st = Composed.detect_face g lv ~u ~v in
      let fm', _ = Composed.Reference.detect_face g lv ~u ~v in
      ck ctx
        (Printf.sprintf "detect-face(%d,%d) = serial oracle" u v)
        (fm.Composed.border = fm'.Composed.border
        && fm.Composed.inside = fm'.Composed.inside);
      let inside_ref = Faces.interior_reference inst.config ~u ~v in
      let border_ref = Faces.border inst.config ~u ~v in
      let as_marks xs =
        let m = Array.make (Graph.n g) false in
        List.iter (fun x -> m.(x) <- true) xs;
        m
      in
      ck ctx "detect-face interior = centralized face traversal"
        (fm.Composed.inside = as_marks inside_ref);
      ck ctx "detect-face border = centralized border path"
        (fm.Composed.border = as_marks border_ref);
      (* The separator's host-side face machinery: the local interior rule
         and the row-interval p-terms against their ground truths. *)
      ck ctx
        (Printf.sprintf "local interior(%d,%d) = centralized face traversal" u v)
        (List.sort compare (Faces.interior inst.config ~u ~v)
        = List.sort compare inside_ref);
      let case = Faces.classify inst.config ~u ~v in
      List.iter
        (fun x ->
          ck ctx
            (Printf.sprintf "p-term(%d) of (%d,%d) = per-child enumeration" x u v)
            (Weights.p_term inst.config ~u ~v ~case x
            = p_term_reference inst.config ~u ~v ~case x))
        border_ref;
      bud ctx "detect-face" st.Composed.rounds ((16 * (d + 3)) + 64);
      (* HIDDEN on the first interior T-leaf, when the face has one. *)
      match List.filter (Rooted.is_leaf tree) inside_ref with
      | [] -> ()
      | t :: _ ->
        let h, sth = Composed.hidden g lv ~u ~v ~t in
        let h', _ = Composed.Reference.hidden g lv ~u ~v ~t in
        ck ctx (Printf.sprintf "hidden(t=%d) = serial oracle" t) (h = h');
        ck ctx "hidden = centralized Definition 4"
          (Array.to_list h |> List.concat |> List.sort_uniq compare
          = (Hidden.hiding_edges inst.config ws ~e:(u, v) ~t
            |> List.sort compare));
        ck ctx
          (Printf.sprintf "maximal hiding edge(t=%d) = per-edge weight rule" t)
          (Hidden.maximal_hiding_edge inst.config ws ~e:(u, v) ~t
          = maximal_hiding_edge_reference inst.config ws ~e:(u, v) ~t);
        bud ctx "hidden" sth.Composed.rounds ((10 * (d + 3)) + 160))
    (take 3 (Weights.edges ws));
  (* Phase 1's table lists exactly the real fundamental edges, in the
     reference scan's order, and its one-pass weights equal per-edge
     Definition 2: of the instance's configuration, and of the whole graph
     as a part rooted at the seeded random root the "dfs" oracle draws
     ([root_first] = None: the DFS-component case). *)
  let check_table label cfg =
    let ws = Weights.all_weights cfg in
    ck ctx ("table = non-tree edge scan" ^ label)
      (Weights.edges ws = fundamental_reference cfg);
    ck ctx ("one-pass weights = per-edge Definition 2" ^ label)
      (List.for_all
         (fun ((u, v), w) -> w = Weights.weight cfg ~u ~v)
         (Weights.to_list ws))
  in
  check_table "" inst.config;
  let n = Graph.n g in
  let root = Rng.int (Rng.create inst.spec.Instance.seed) n in
  check_table
    (Printf.sprintf " (part, root %d)" root)
    (Config.of_part ~spanning:inst.spec.Instance.spanning
       ~members:(Array.init n Fun.id) ~root inst.emb);
  finish ~name:"faces" ctx

(* ------------------------------------------------------------------ *)
(* 5. "pipeline": Phase 1, the Phase-3 separator election, Lemma 9      *)
(*    forests — batched = serial oracle, and valid.                     *)
(* ------------------------------------------------------------------ *)

let run_pipeline (inst : Instance.t) =
  let ctx = ctx_create () in
  let g = Config.graph inst.config in
  let tree = Config.tree inst.config in
  let n = Graph.n g in
  let root = Rooted.root tree in
  let rot = Config.rot inst.config in
  let rot_orders = Array.init n (Rotation.order rot) in
  let parent = Array.init n (Rooted.parent tree) in
  let depth = Array.init n (Rooted.depth tree) in
  let d = tree_depth tree in
  let lg = log2ceil n in
  let lv, st1 = Composed.phase1 g ~rot_orders ~parent ~depth ~root in
  let lv', _ = Composed.Reference.phase1 g ~rot_orders ~parent ~depth ~root in
  ck ctx "phase1 = serial oracle"
    (lv.Composed.lsize = lv'.Composed.lsize
    && lv.Composed.lpi_l = lv'.Composed.lpi_l
    && lv.Composed.lpi_r = lv'.Composed.lpi_r);
  ck ctx "phase1 = centralized tree data"
    (lv.Composed.lsize = Array.init n (Rooted.size tree)
    && lv.Composed.lpi_l = Array.init n (Rooted.pi_left tree)
    && lv.Composed.lpi_r = Array.init n (Rooted.pi_right tree));
  (* Observed ceiling ~7·n (fragment-pipelined part-wise, see "orders"). *)
  bud ctx "phase1" st1.Composed.rounds ((12 * (n + ((lg + 2) * (d + 8)))) + 64);
  let sep, st = Composed.separator_phase3 g ~rot_orders ~parent ~depth ~root in
  let sep', st' =
    Composed.Reference.separator_phase3 g ~rot_orders ~parent ~depth ~root
  in
  ck ctx "phase-3 election = serial oracle" (sep = sep');
  ck ctx
    (Printf.sprintf "batched %d rounds <= serial %d" st.Composed.rounds
       st'.Composed.rounds)
    (st.Composed.rounds <= st'.Composed.rounds);
  (match sep with
  | None -> ()
  | Some (_, marked) ->
    ck ctx
      (Printf.sprintf "batched %d rounds < serial %d" st.Composed.rounds
         st'.Composed.rounds)
      (st.Composed.rounds < st'.Composed.rounds);
    let s = ref [] in
    Array.iteri (fun x m -> if m then s := x :: !s) marked;
    ck ctx "phase-3 separator valid (Check)"
      (Check.check_separator inst.config !s).Check.valid);
  let (fp, fd, ffrag), phases, stf = Composed.spanning_forest g () in
  let reference = Composed.Reference.spanning_forest g () in
  let (fp', fd', ffrag'), phases', _ = reference in
  ck ctx "Lemma-9 forest = serial oracle"
    (fp = fp' && fd = fd' && ffrag = ffrag' && phases = phases');
  let roots = ref 0 in
  let well_formed = ref true in
  for v = 0 to n - 1 do
    if fp.(v) = -1 then incr roots
    else if not (Graph.mem_edge g v fp.(v)) || fd.(v) <> fd.(fp.(v)) + 1 then
      well_formed := false
  done;
  ck ctx "forest is a single well-formed tree" (!well_formed && !roots = 1);
  ck ctx
    (Printf.sprintf "Boruvka phases %d <= %d" phases (lg + 2))
    (phases <= lg + 2);
  (* Observed ceiling ~3.2·(n + phases·diam): fragment leaders flood their
     fragments, whose diameter approaches the graph's. *)
  bud ctx "spanning-forest" stf.Composed.rounds
    ((8 * (n + ((lg + 2) * (Algo.diameter g + 8)))) + 64);
  finish ~name:"pipeline" ctx

(* ------------------------------------------------------------------ *)
(* 6. "separator": Theorem 1's six-phase algorithm, certified by the    *)
(*    centralized Check side and a BFS component count.                 *)
(* ------------------------------------------------------------------ *)

(* The balanced trim as the modelled CONGEST algorithm runs it: a binary
   search per end of the path, each probe one union-find over G
   ([Check.max_component_without]) after moving the window's boundary
   marks, and one [Shrink_balance] charge.  Ground truth for the one-pass
   [Separator.shrink], path and ledger alike. *)
let shrink_reference ?rounds cfg path =
  let arr = Array.of_list path in
  let k = Array.length arr in
  let n = Config.n cfg in
  let removed = Array.make n false in
  Array.iter (fun v -> removed.(v) <- true) arr;
  let lo = ref 0 and hi = ref (k - 1) in
  let set_window i j =
    for x = !lo to !hi do
      if x < i || x > j then removed.(arr.(x)) <- false
    done;
    for x = i to j do
      if x < !lo || x > !hi then removed.(arr.(x)) <- true
    done;
    lo := i;
    hi := j
  in
  let balanced_sub i j =
    Rounds.span rounds "sep.shrink-probe" (fun () ->
        Rounds.charge rounds Shrink_balance);
    set_window i j;
    Check.max_component_without (Config.graph cfg) removed
    <= Check.balance_limit n
  in
  if k <= 1 then path
  else begin
    (* Largest i such that [i .. k-1] stays balanced. *)
    let rec search_lo lo hi =
      (* invariant: [lo .. k-1] balanced, [hi .. k-1] not (or hi = k). *)
      if hi - lo <= 1 then lo
      else begin
        let mid = (lo + hi) / 2 in
        if balanced_sub mid (k - 1) then search_lo mid hi else search_lo lo mid
      end
    in
    let i = search_lo 0 k in
    (* Smallest j such that [i .. j] stays balanced. *)
    let rec search_hi lo hi =
      (* invariant: [i .. hi] balanced, [i .. lo] not (or lo = i - 1). *)
      if hi - lo <= 1 then hi
      else begin
        let mid = (lo + hi) / 2 in
        if balanced_sub i mid then search_hi lo mid else search_hi mid hi
      end
    in
    let j = search_hi (i - 1) (k - 1) in
    Array.to_list (Array.sub arr i (j - i + 1))
  end

(* [Separator.shrink] against [shrink_reference] on fresh ledgers: the same
   trimmed path and the same number of charged probes.  Returns the trimmed
   path. *)
let check_shrink ctx ~label ~d cfg path =
  let fresh () = Rounds.create ~n:(Config.n cfg) ~d:(max 1 d) () in
  let l = fresh () and l' = fresh () in
  let s = Separator.shrink ~rounds:l cfg path in
  let s' = shrink_reference ~rounds:l' cfg path in
  ck ctx (label "shrink = binary-search reference") (s = s');
  let probes l = Rounds.label_invocations l Shrink_balance in
  ck ctx
    (label
       (Printf.sprintf "trim balance probes %d = reference %d" (probes l)
          (probes l')))
    (probes l = probes l');
  s

let run_separator (inst : Instance.t) =
  let ctx = ctx_create () in
  let g = Config.graph inst.config in
  let n = Graph.n g in
  let d = Algo.diameter g in
  let ledger = Rounds.create ~n ~d:(max 1 d) () in
  let r = Separator.find ~rounds:ledger inst.config in
  let verdict = Check.check_separator inst.config r.Separator.separator in
  ck ctx
    (Format.asprintf "separator valid (%a) via phase %s" Check.pp_verdict
       verdict r.Separator.phase)
    verdict.Check.valid;
  (* Cross-validate the component computation: Check counts with a
     union-find, the reference with BFS. *)
  ck ctx "Check max-component = BFS max-component"
    (verdict.Check.max_component = max_component_bfs g r.Separator.separator);
  (match r.Separator.endpoints with
  | None -> ()
  | Some e ->
    ck ctx "closing edge certifiable (DMP)"
      (Check.cycle_closable inst.config ~endpoints:e));
  (* Shrinking matches its reference, keeps balance and never grows. *)
  let shrunk =
    check_shrink ctx ~label:Fun.id ~d inst.config r.Separator.separator
  in
  ck ctx "shrunk separator still balanced" (Check.balanced inst.config shrunk);
  ck ctx "shrink never grows"
    (List.length shrunk <= List.length r.Separator.separator);
  (* Amortized verification: the phase groups are tree, or phase3 followed
     by phase4 or phase5, each maintaining one running balance aggregate —
     so a find charges at most two [Verify_balance] batches, however many
     candidates it probes, and the retired per-candidate mark-path walks
     must stay retired. *)
  let batches = Rounds.label_invocations ledger Verify_balance in
  ck ctx (Printf.sprintf "balance batches %d <= 2" batches) (batches <= 2);
  ck ctx "no per-candidate mark-path walks"
    (Rounds.label_invocations ledger Mark_path = 0);
  (* Charged-model budget: the candidate loop stays polylog, and the total
     stays a polylog multiple of one part-wise aggregation (Õ(D)). *)
  let lg = log2ceil n in
  let inv_budget = (16 * lg) + 48 in
  ck ctx
    (Printf.sprintf "ledger invocations %d <= %d" (Rounds.invocations ledger)
       inv_budget)
    (Rounds.invocations ledger <= inv_budget);
  bud ctx "charged rounds"
    (int_of_float (Rounds.total ledger))
    (int_of_float
       (float_of_int (inv_budget * lg * lg) *. Rounds.pa_cost ledger));
  finish ~name:"separator" ctx

(* ------------------------------------------------------------------ *)
(* 6b. "join": Lemma 2's batched election choreography = the serial     *)
(*     reference, bit-identically, and strictly cheaper.                *)
(* ------------------------------------------------------------------ *)

let run_join (inst : Instance.t) =
  let ctx = ctx_create () in
  let g = Config.graph inst.config in
  let n = Graph.n g in
  let d = Algo.diameter g in
  let root = Rooted.root (Config.tree inst.config) in
  let members = Array.init n Fun.id in
  let separator = (Separator.find inst.config).Separator.separator in
  let run_join ledger reference =
    let st = Join.create g ~root in
    let iters =
      if reference then Reference.Join.join ~rounds:ledger st ~members ~separator
      else Join.join ~rounds:ledger st ~members ~separator
    in
    (st, iters)
  in
  let fresh () = Rounds.create ~n ~d:(max 1 d) () in
  let lb = fresh () and lr = fresh () in
  let stb, ib = run_join lb false in
  let str_, ir = run_join lr true in
  (* Bit-identity of the resulting partial tree and iteration count. *)
  ck ctx "batched parent array = reference" (stb.Join.parent = str_.Join.parent);
  ck ctx "batched depth array = reference" (stb.Join.depth = str_.Join.depth);
  ck ctx
    (Printf.sprintf "iteration count identical (%d vs %d)" ib ir)
    (ib = ir);
  (* The charged win must not silently erode: per iteration the batched
     schedule costs 2*lg + 3 PA units against the serial lg^2 + lg + 2, so
     it is never dearer, and from lg >= 4 (n >= 9) at least 2x cheaper. *)
  ck ctx
    (Printf.sprintf "charged rounds never dearer (%.0f vs %.0f)"
       (Rounds.total lb) (Rounds.total lr))
    (Rounds.total lb <= Rounds.total lr);
  if log2ceil n >= 4 then
    ck ctx
      (Printf.sprintf "charged rounds halved (%.0f vs %.0f)" (Rounds.total lb)
         (Rounds.total lr))
      (2.0 *. Rounds.total lb <= Rounds.total lr);
  ck ctx "batched join never charges mark-path"
    (Rounds.label_invocations lb Mark_path = 0);
  (* Executed elections: batched and serial bindings agree bit-identically
     with the host-side choreography, and the slot batching keeps a >= 2x
     engine-run advantage (the Collect/Partwise-batch economics). *)
  let exec_run serial =
    let st = Join.create g ~root in
    let iters, stats =
      Reference.Join.executed ~serial st ~root ~members ~separator
    in
    (st, iters, stats)
  in
  let stb2, ib2, sb = exec_run false in
  let sts2, is2, ss = exec_run true in
  ck ctx "executed batched elections = host choreography"
    (stb2.Join.parent = stb.Join.parent
    && stb2.Join.depth = stb.Join.depth
    && ib2 = ib);
  ck ctx "executed serial elections = host choreography"
    (sts2.Join.parent = stb.Join.parent
    && sts2.Join.depth = stb.Join.depth
    && is2 = ib);
  ck ctx
    (Printf.sprintf "join batching: serial %d runs >= 2x batched %d"
       ss.Composed.engine_runs sb.Composed.engine_runs)
    (ss.Composed.engine_runs >= 2 * sb.Composed.engine_runs);
  bud ctx "join elections" sb.Composed.rounds
    (((ib + 1) * 24 * (n + d + 8)) + 64);
  (* Later phases: the DFS from the "dfs" oracle's seeded root, phase by
     phase as [Dfs.run] runs it, so most joins grow a partial tree that
     earlier phases built.  Each component is joined by [Join.join] on one
     state and by [Reference.Join.join] on another; after every join the
     two trees and iteration counts must agree.  The replay's loop is its
     own, so [Dfs.run] from the same root must then build the same tree. *)
  let spanning = inst.spec.Instance.spanning in
  let root = Rng.int (Rng.create inst.spec.Instance.seed) n in
  let st = Join.create g ~root and st' = Join.create g ~root in
  let all = Array.init n Fun.id in
  let phases = ref 0 and mismatch = ref None in
  let pending = ref (Join.unvisited_components st all) in
  while !mismatch = None && !pending <> [] && !phases <= n do
    incr phases;
    List.iter
      (fun members ->
        if !mismatch = None then begin
          let separator =
            if Array.length members <= 3 then Array.to_list members
            else begin
              let part_root =
                match Join.component_anchor st members with
                | Some (v, _) -> v
                | None -> members.(0)
              in
              let cfg =
                Config.of_part ~spanning ~members ~root:part_root inst.emb
              in
              List.map (Config.to_global cfg)
                (Separator.find cfg).Separator.separator
            end
          in
          let i = Join.join st ~members ~separator in
          let i' = Reference.Join.join st' ~members ~separator in
          if
            i <> i'
            || st.Join.parent <> st'.Join.parent
            || st.Join.depth <> st'.Join.depth
          then mismatch := Some (!phases, members.(0), i, i')
        end)
      !pending;
    pending := Join.unvisited_components st all
  done;
  ck ctx
    (match !mismatch with
    | None -> "phase-by-phase joins ended with unvisited nodes"
    | Some (phase, v, i, i') ->
      Printf.sprintf
        "phase %d from root %d: the join of the component of %d differs \
         from the reference (iterations %d vs %d)"
        phase root v i i')
    (!mismatch = None && !pending = []);
  ck ctx
    (Printf.sprintf "phase-by-phase joins from root %d build a DFS tree" root)
    (Algo.is_dfs_tree g ~root ~parent:st.Join.parent);
  ck ctx
    (Printf.sprintf "Dfs.run from root %d builds the replayed tree" root)
    ((Dfs.run ~spanning inst.emb ~root).Dfs.parent = st.Join.parent);
  finish ~name:"join" ctx

(* ------------------------------------------------------------------ *)
(* 7. "dfs": Theorem 2 end to end, against the centralized DFS          *)
(*    characterization (every non-tree edge ancestor–descendant).       *)
(* ------------------------------------------------------------------ *)

let run_dfs (inst : Instance.t) =
  let ctx = ctx_create () in
  let g = Config.graph inst.config in
  let n = Graph.n g in
  let root = Embedded.outer inst.emb in
  let d = Algo.diameter g in
  let ledger = Rounds.create ~n ~d:(max 1 d) () in
  let r = Dfs.run ~rounds:ledger inst.emb ~root in
  ck ctx "Dfs.verify" (Dfs.verify inst.emb ~root r);
  ck ctx "distributed tree satisfies the DFS-tree characterization"
    (Algo.is_dfs_tree g ~root ~parent:r.Dfs.parent);
  (* The sequential oracle must satisfy the same characterization — if it
     does not, the characterization itself regressed. *)
  ck ctx "sequential DFS satisfies the characterization"
    (Algo.is_dfs_tree g ~root ~parent:(Algo.dfs_parents g root));
  let wf = ref true in
  for v = 0 to n - 1 do
    if r.Dfs.parent.(v) >= 0 && r.Dfs.depth.(v) <> r.Dfs.depth.(r.Dfs.parent.(v)) + 1
    then wf := false
  done;
  ck ctx "depth array consistent with parent chains" !wf;
  (* The run above uses a BFS tree from the hull vertex.  Run again with
     the instance's own spanning kind from a seeded root anywhere in the
     graph, as callers of [Dfs.run] may. *)
  let root' = Rng.int (Rng.create inst.spec.Instance.seed) n in
  ck ctx
    (Printf.sprintf "Dfs.verify (%s tree, root %d)"
       (Instance.spanning_name inst.spec.Instance.spanning)
       root')
    (Dfs.verify inst.emb ~root:root'
       (Dfs.run ~spanning:inst.spec.Instance.spanning inst.emb ~root:root'));
  let lg = log2ceil n in
  ck ctx
    (Printf.sprintf "recursion phases %d <= %d" r.Dfs.phases ((2 * lg) + 8))
    (r.Dfs.phases <= (2 * lg) + 8);
  let inv_budget = 64 * (lg + 2) * (lg + 2) in
  ck ctx
    (Printf.sprintf "ledger invocations %d <= %d" (Rounds.invocations ledger)
       inv_budget)
    (Rounds.invocations ledger <= inv_budget);
  bud ctx "charged rounds"
    (int_of_float (Rounds.total ledger))
    (int_of_float
       (float_of_int (inv_budget * lg * lg) *. Rounds.pa_cost ledger));
  finish ~name:"dfs" ctx

(* ------------------------------------------------------------------ *)
(* 8. "forest": Lemma 9 over a fuzzed partition into connected parts.   *)
(* ------------------------------------------------------------------ *)

let parts_array n parts =
  let a = Array.make n (-1) in
  List.iteri (fun i members -> List.iter (fun v -> a.(v) <- i) members) parts;
  a

let run_forest (inst : Instance.t) =
  let ctx = ctx_create () in
  let g = Config.graph inst.config in
  let n = Graph.n g in
  let rng = Rng.create ((2 * inst.spec.Instance.seed) + 5) in
  let parts = Generator.connected_parts g ~parts:(1 + Rng.int rng 4) rng in
  ck ctx "generated partition is connected (Check)"
    (Check.connected_partition g parts);
  let pa = parts_array n parts in
  let (fp, fd, _), phases, st = Composed.spanning_forest g ~parts:pa () in
  let (fp', fd', _), phases', _ =
    Composed.Reference.spanning_forest g ~parts:pa ()
  in
  ck ctx "per-part forest = serial oracle"
    (fp = fp' && fd = fd' && phases = phases');
  let roots = ref 0 and wf = ref true in
  for v = 0 to n - 1 do
    if fp.(v) = -1 then incr roots
    else begin
      if not (Graph.mem_edge g v fp.(v)) || fd.(v) <> fd.(fp.(v)) + 1 then
        wf := false;
      (* Lemma 9 stops before any cross-part edge. *)
      if pa.(v) <> pa.(fp.(v)) then wf := false
    end
  done;
  ck ctx
    (Printf.sprintf "one tree per part (%d roots, %d parts)" !roots
       (List.length parts))
    (!roots = List.length parts);
  ck ctx "per-part trees well-formed" !wf;
  let lg = log2ceil n in
  ck ctx
    (Printf.sprintf "Boruvka phases %d <= %d" phases (lg + 2))
    (phases <= lg + 2);
  bud ctx "per-part forest" st.Composed.rounds
    ((8 * (n + ((lg + 2) * (Algo.diameter g + 8)))) + 64);
  finish ~name:"forest" ctx

(* ------------------------------------------------------------------ *)
(* 9. "pool": jobs=1 and jobs=N produce bit-identical separators and    *)
(*    charged ledgers over a fuzzed partition (Theorem 1 parallelism),  *)
(*    and bit-identical, valid recursive decompositions.                *)
(* ------------------------------------------------------------------ *)

let run_pool (inst : Instance.t) =
  let ctx = ctx_create () in
  let g = Config.graph inst.config in
  let n = Graph.n g in
  let d = Algo.diameter g in
  let rng = Rng.create ((2 * inst.spec.Instance.seed) + 7) in
  let parts = Generator.connected_parts g ~parts:(2 + Rng.int rng 3) rng in
  ck ctx "generated partition is connected (Check)"
    (Check.connected_partition g parts);
  let run pool =
    let ledger = Rounds.create ~n ~d:(max 1 d) () in
    let results = Separator.find_partition ~rounds:ledger ?pool inst.emb ~parts in
    ( List.map
        (fun (_, r) ->
          (r.Separator.separator, r.Separator.endpoints, r.Separator.phase))
        results,
      Rounds.total ledger )
  in
  (* Decomposition.build, the recursion over Theorem 1's level batches. *)
  let piece_target = 20 in
  let decompose pool =
    let ledger = Rounds.create ~n ~d:(max 1 d) () in
    let dec = Decomposition.build ~rounds:ledger ?pool ~piece_target inst.emb in
    (dec, Rounds.total ledger)
  in
  let seq_results, seq_total = run None in
  let seq_dec, seq_dec_total = decompose None in
  (* seq_grain 0 forces the batch onto the domains even at fuzz sizes. *)
  let (par_results, par_total), (par_dec, par_dec_total) =
    Repro_util.Pool.with_pool ~seq_grain:0 ~jobs:3 (fun pool ->
        (run (Some pool), decompose (Some pool)))
  in
  ck ctx "separators bit-identical across pool sizes"
    (seq_results = par_results);
  ck ctx
    (Printf.sprintf "charged rounds identical (%.1f vs %.1f)" seq_total
       par_total)
    (seq_total = par_total);
  ck ctx "decomposition pieces, separator marks and levels identical"
    (seq_dec.Decomposition.pieces = par_dec.Decomposition.pieces
    && seq_dec.Decomposition.separator = par_dec.Decomposition.separator
    && seq_dec.Decomposition.levels = par_dec.Decomposition.levels);
  ck ctx
    (Printf.sprintf "decomposition charged rounds identical (%.1f vs %.1f)"
       seq_dec_total par_dec_total)
    (seq_dec_total = par_dec_total);
  ck ctx "decomposition valid (Decomposition.check)"
    (Decomposition.check inst.emb ~piece_target seq_dec);
  finish ~name:"pool" ctx

(* ------------------------------------------------------------------ *)
(* 10. "backend": separator-backend conformance — every selected       *)
(*     backend balances (cross-checked by two independent component     *)
(*     computations), certificates hold, the uniform trim post-pass     *)
(*     behaves, and the charge discipline matches the kind.             *)
(* ------------------------------------------------------------------ *)

(* The backends checked, by name: all of them unless
   [restrict_backends] (bin/fuzz --backend) narrows the set. *)
let backend_filter = ref (List.map (fun b -> b.Backend.name) Backend.all)
let restrict_backends names = backend_filter := names

let run_backend (inst : Instance.t) =
  let ctx = ctx_create () in
  let g = Config.graph inst.config in
  let n = Graph.n g in
  let d = Algo.diameter g in
  let lg = log2ceil n in
  let limit = Check.balance_limit n in
  let selected =
    List.filter (fun b -> List.mem b.Backend.name !backend_filter) Backend.all
  in
  ck ctx "backend filter selects at least one backend" (selected <> []);
  List.iter
    (fun b ->
      let name = b.Backend.name in
      let lbl s = Printf.sprintf "%s[%s]" s name in
      let ledger = Rounds.create ~n ~d:(max 1 d) () in
      let r = b.Backend.find ~rounds:ledger inst.config in
      let sep = r.Separator.separator in
      ck ctx (lbl "separator nonempty") (sep <> []);
      ck ctx (lbl "separator vertices in range")
        (List.for_all (fun v -> v >= 0 && v < n) sep);
      (* Balance, cross-validated: Check counts with a union-find, the
         reference with BFS. *)
      let mc = max_component_bfs g sep in
      ck ctx (Printf.sprintf "%s: max component %d <= %d" name mc limit)
        (mc <= limit);
      let removed = Array.make n false in
      List.iter (fun v -> removed.(v) <- true) sep;
      ck ctx (lbl "Check = BFS max-component")
        (Check.max_component_without g removed = mc);
      (* Determinism: a second find is bit-identical. *)
      let r2 = b.Backend.find inst.config in
      ck ctx (lbl "find deterministic")
        (r2.Separator.separator = sep && r2.Separator.phase = r.Separator.phase);
      (* Certificate discipline: endpoints only from the distributed
         backend, and the closing edge must be DMP-certifiable. *)
      (match r.Separator.endpoints with
      | None -> ()
      | Some e ->
        ck ctx (lbl "endpoints imply distributed")
          (b.Backend.kind = Backend.Distributed);
        ck ctx (lbl "closing edge certifiable (DMP)")
          (Check.cycle_closable inst.config ~endpoints:e));
      (* The uniform trim post-pass matches its reference on this
         backend's output, keeps balance and never grows. *)
      ignore (check_shrink ctx ~label:lbl ~d inst.config sep);
      let trimmed = b.Backend.trim inst.config sep in
      ck ctx (lbl "trim never grows")
        (List.length trimmed <= List.length sep);
      ck ctx (lbl "trimmed separator still balanced")
        (max_component_bfs g trimmed <= limit);
      (* Size-vs-sqrt(n) tripwire: vacuous at fuzz sizes, catches only a
         catastrophic quality regression on the big suite instances. *)
      let sqrt_n = int_of_float (ceil (sqrt (float_of_int n))) in
      ck ctx (lbl "trimmed size within 4*sqrt(n)*lg + 8")
        (List.length trimmed <= (4 * sqrt_n * lg) + 8);
      (* Charge discipline per kind: distributed backends stay within the
         Õ(D) budget; centralized ones charge exactly one O(part)
         collect. *)
      match b.Backend.kind with
      | Backend.Distributed ->
        let inv_budget = (16 * lg) + 48 in
        ck ctx
          (Printf.sprintf "%s: ledger invocations %d <= %d" name
             (Rounds.invocations ledger)
             inv_budget)
          (Rounds.invocations ledger <= inv_budget);
        bud ctx (lbl "charged rounds")
          (int_of_float (Rounds.total ledger))
          (int_of_float
             (float_of_int (inv_budget * lg * lg) *. Rounds.pa_cost ledger))
      | Backend.Centralized ->
        ck ctx (lbl "collect charged exactly once")
          (Rounds.label_invocations ledger Backend_collect = 1);
        ck ctx (lbl "collect charge covers the part")
          (Rounds.total ledger >= float_of_int n))
    selected;
  finish ~name:"backend" ctx

(* ------------------------------------------------------------------ *)
(* 11. "screen": hostile-input screening — clean instances Accepted    *)
(*     with the executed CONGEST tally agreeing with the host census   *)
(*     and the charges pinned Õ(D); hostile instances (fuzzed directly *)
(*     or derived here from the spec seed) Rejected/Flagged with an    *)
(*     independently verified witness before any separator phase runs. *)
(* ------------------------------------------------------------------ *)

let screen_hostile ctx ~tag emb =
  let verdict = Screen.check emb in
  ck ctx (tag ^ ": hostile verdict is not Accepted")
    (not (Screen.accepted verdict));
  (match verdict with
  | Screen.Flagged w ->
    ck ctx (tag ^ ": flag witness certifies") (Screen.witness_certifies emb w)
  | _ -> ());
  (* The entry guard dies before any separator phase: Decomposition.build
     must raise the typed rejection, never reach No_separator_found. *)
  ck ctx (tag ^ ": entry guard raises before separator phases")
    (match Decomposition.build emb with
    | _ -> false
    | exception Screen.Rejected_input { verdict = v; _ } -> v = verdict
    | exception _ -> false);
  (* The verdict line is the replay handle: stable and non-empty. *)
  ck ctx (tag ^ ": verdict prints")
    (String.length (Screen.verdict_to_string verdict) > 0)

let run_screen (inst : Instance.t) =
  let ctx = ctx_create () in
  let emb = inst.Instance.emb in
  let g = Embedded.graph emb in
  let n = Graph.n g in
  let spec = inst.spec in
  (* Every instance — clean or hostile — replays from its one-line spec. *)
  ck ctx "spec round-trips"
    (Instance.of_string (Instance.to_string spec) = spec);
  if Instance.is_hostile spec.Instance.family then begin
    screen_hostile ctx ~tag:spec.Instance.family emb;
    (* The hostile build is deterministic: replaying the spec reproduces
       the embedding bit-identically. *)
    let e2 = Instance.hostile_embedded spec in
    ck ctx "hostile build deterministic"
      (Graph.edges (Embedded.graph e2) = Graph.edges g
      && Array.for_all
           (fun v ->
             Rotation.order (Embedded.rot e2) v = Rotation.order (Embedded.rot emb) v)
           (Array.init n Fun.id))
  end
  else begin
    let d = max 1 (Algo.diameter g) in
    let ledger = Rounds.create ~n ~d () in
    let verdict = Screen.check ~rounds:ledger emb in
    ck ctx
      (Printf.sprintf "clean instance accepted (%s)"
         (Screen.verdict_to_string verdict))
      (Screen.accepted verdict);
    ck ctx "verdict deterministic" (Screen.check emb = verdict);
    (* Charge pins: one structure aggregate, one embedding broadcast, one
       planarity aggregate — flat Õ(D), independent of n. *)
    ck ctx "structure aggregate charged exactly once"
      (Rounds.label_invocations ledger Screen_structure = 1);
    ck ctx "planarity aggregate charged exactly once"
      (Rounds.label_invocations ledger Screen_planarity = 1);
    ck ctx
      (Printf.sprintf "ledger invocations %d <= 4" (Rounds.invocations ledger))
      (Rounds.invocations ledger <= 4);
    bud ctx "charged rounds"
      (int_of_float (Rounds.total ledger))
      (int_of_float (4.0 *. Rounds.pa_cost ledger));
    (* Executed differential: the CONGEST tally must reproduce the host
       census — reach all of the graph, sum the degrees to 2m, count the
       faces, and elect no violating edge. *)
    let sums, mins = Screen.local_tallies emb in
    let s, mn, reached, st =
      Composed.screen_tally g ~root:(Embedded.outer emb) ~sums ~mins
    in
    ck ctx "tally reaches the whole graph" (reached = n);
    ck ctx "degree census = 2m" (s.(0) = 2 * Graph.m g);
    ck ctx "face-leader census = face count"
      (s.(1) = Rotation.count_faces g (Embedded.rot emb));
    ck ctx "no violating edge elected" (mn.(0) = Screen.no_violation emb);
    bud ctx "screen tally" st.Composed.rounds ((16 * (d + 8)) + 64);
    (* Derived hostile variants from the same seed: the default fuzz pool
       is all-clean, so each clean case also proves the screen rejects
       its own corrupted siblings. *)
    if n >= 9 then begin
      let seed = spec.Instance.seed in
      screen_hostile ctx ~tag:"derived xchords1"
        (Instance.planar_plus_chords ~seed ~n ~k:1);
      screen_hostile ctx ~tag:"derived xrot"
        (Instance.corrupted_rotation ~seed ~n);
      screen_hostile ctx ~tag:"derived xunion"
        (Instance.disconnected_union ~seed ~n)
    end
  end;
  finish ~name:"screen" ctx

let run_protected o inst =
  try o.run inst
  with e ->
    {
      oracle = o.name;
      ok = false;
      detail = "exception: " ^ Printexc.to_string e;
      rounds = 0;
      budget = max_int;
      checks = 0;
    }

let sabotage ~threshold =
  {
    name = "sabotage";
    guards = "none (deliberately injected bug for the self-check drill)";
    run =
      (fun inst ->
        let n = Embedded.n inst.Instance.emb in
        let ok = n < threshold in
        {
          oracle = "sabotage";
          ok;
          detail =
            (if ok then "ok (1 checks)"
             else Printf.sprintf "injected bug fires: n = %d >= %d" n threshold);
          rounds = 0;
          budget = max_int;
          checks = 1;
        });
  }

(* ------------------------------------------------------------------ *)
(* The oracles, in the order every runner reports them.               *)
(* ------------------------------------------------------------------ *)

let all =
  [
    {
      name = "graph";
      guards = "flat CSR store (vs reference adjacency-list build)";
      run = run_graph;
    };
    {
      name = "engine";
      guards = "engine equivalence (event-driven = dense scheduler)";
      run = run_engine;
    };
    { name = "orders"; guards = "Lemma 11 (DFS-ORDER)"; run = run_orders };
    {
      name = "collective";
      guards = "Lemmas 12/13/14/19 (WEIGHTS, MARK-PATH, LCA, RE-ROOT)";
      run = run_collective;
    };
    {
      name = "faces";
      guards = "Lemmas 15/16 (DETECT-FACE, HIDDEN)";
      run = run_faces;
    };
    {
      name = "pipeline";
      guards = "Lemmas 5/9 + Phase 1 (election pipeline, forests)";
      run = run_pipeline;
    };
    {
      name = "separator";
      guards = "Theorem 1 (cycle separator, all phases)";
      run = run_separator;
    };
    {
      name = "join";
      guards = "Lemma 2 (batched JOIN = serial choreography)";
      run = run_join;
    };
    { name = "dfs"; guards = "Theorem 2 (distributed DFS)"; run = run_dfs };
    {
      name = "forest";
      guards = "Lemma 9 (per-part spanning forests)";
      run = run_forest;
    };
    {
      name = "pool";
      guards = "Theorem 1 parallelism (pool determinism, decomposition)";
      run = run_pool;
    };
    {
      name = "backend";
      guards = "separator backend conformance (congest / lt-level)";
      run = run_backend;
    };
    {
      name = "screen";
      guards = "hostile-input screening (verdicts, witnesses, entry guards)";
      run = run_screen;
    };
  ]

let find name =
  match List.find_opt (fun o -> o.name = name) all with
  | Some o -> o
  | None ->
    failwith
      (Printf.sprintf "unknown oracle %s (known: %s)" name
         (String.concat ", " (List.map (fun o -> o.name) all)))
