(* Deterministic distributed DFS (Theorem 2, Section 6.2).

   Each phase computes, in parallel over the connected components of the
   unvisited region, a cycle separator (Theorem 1) and joins it to the
   partial DFS tree with the DFS-RULE (Lemma 2).  Because each component
   loses a separator, component sizes drop by a constant factor per phase,
   so there are O(log n) phases, each costing Õ(D) rounds.

   The host-side execution mirrors the paper's part-parallelism: both
   per-phase batches (separators, then joins) are distributed over an
   optional domain pool.  Every task meters its rounds into a private
   ledger; ledgers are merged on the calling domain in part-index order and
   the batch is charged its heaviest part — so charged totals and the
   resulting tree are independent of how the pool schedules the parts, and
   running without a pool (or with jobs = 1) is bit-identical. *)

open Repro_graph
open Repro_embedding
open Repro_congest

type result = {
  parent : int array; (* -1 at the root *)
  depth : int array;
  phases : int;
  max_join_iterations : int;
  phase_log : (int * int * int) list;
      (* per phase: #components, largest component, max join iterations *)
  separator_phases : (string * int) list; (* separator phase histogram *)
}

let absorb_heaviest rounds locals =
  match rounds with None -> () | Some g -> Rounds.absorb_heaviest g locals

(* Per-phase and per-batch spans ride the tracer attached to the caller's
   [Rounds.t] (see Separator): the phase span wraps the batch *and* its
   absorb, so the heaviest part's spliced sub-tree lands inside it. *)
let tracer rounds = Option.bind rounds Rounds.tracer

let span rounds name f = Repro_trace.Trace.within (tracer rounds) name f

let run ?rounds ?(spanning = Repro_tree.Spanning.Bfs) ?pool ?backend
    ?small_part_cutoff emb ~root =
  let g = Embedded.graph emb in
  let n = Graph.n g in
  Graph.check_vertex g root;
  Screen.require ?rounds ~entry:"Dfs.run" emb;
  (match rounds with Some r -> Rounds.charge_embedding r | None -> ());
  let pmap ~label ~cost f arr =
    match pool with
    | Some p -> Repro_util.Pool.map ?trace:(tracer rounds) ~label ~cost p f arr
    | None -> Array.map f arr
  in
  let st = Join.create g ~root in
  let phases = ref 0 in
  let max_join = ref 0 in
  let phase_log = ref [] in
  let sep_phases = Hashtbl.create 8 in
  let bump k =
    Hashtbl.replace sep_phases k
      (1 + Option.value ~default:0 (Hashtbl.find_opt sep_phases k))
  in
  let all_members = Array.init n Fun.id in
  while Join.unvisited st > 0 do
    incr phases;
    if !phases > n + 1 then invalid_arg "Dfs.run: too many phases";
    span rounds (Printf.sprintf "dfs.phase%d" !phases) @@ fun () ->
    (match rounds with
    | Some r -> Rounds.charge_aggregate r "components[Phase]"
    | None -> ());
    let comps = Array.of_list (Join.unvisited_components st all_members) in
    let largest = Array.fold_left (fun a c -> max a (Array.length c)) 0 comps in
    (* Theorem 1 on the node-disjoint collection of components: compute all
       separators; parts run in parallel, so the batch costs the rounds of
       its heaviest part.  Components are node-disjoint, so the batch's
       work estimate is simply the number of still-unvisited nodes. *)
    let cost = Array.fold_left (fun a c -> a + Array.length c) 0 comps in
    let separators =
      pmap ~label:"pool.separators" ~cost
        (fun members ->
          if Array.length members <= 3 then
            (* Trivial components: every node is its own separator; skip the
               induced-configuration machinery. *)
            (members, Array.to_list members, "trivial", None)
          else begin
            let part_root =
              match Join.component_anchor st members with
              | Some (v, _) -> v
              | None -> members.(0)
            in
            let cfg = Config.of_part ~spanning ~members ~root:part_root emb in
            let local = Option.map Rounds.like rounds in
            let b = Backend.for_part ?backend ?small_part_cutoff members in
            let r = b.Backend.find ?rounds:local cfg in
            let separator_global =
              List.map (Config.to_global cfg) r.Separator.separator
            in
            (members, separator_global, r.Separator.phase, local)
          end)
        comps
    in
    Array.iter (fun (_, _, phase, _) -> bump phase) separators;
    absorb_heaviest rounds (Array.map (fun (_, _, _, l) -> l) separators);
    (* JOIN runs in parallel over components as well: charge the deepest
       iteration count once. *)
    let joins =
      pmap ~label:"pool.joins" ~cost
        (fun (members, separator, _, _) ->
          let local = Option.map Rounds.like rounds in
          let iters = Join.join ?rounds:local st ~members ~separator in
          (iters, local))
        separators
    in
    let phase_join = Array.fold_left (fun acc (it, _) -> max acc it) 0 joins in
    absorb_heaviest rounds (Array.map snd joins);
    max_join := max !max_join phase_join;
    phase_log := (Array.length comps, largest, phase_join) :: !phase_log
  done;
  {
    parent = Array.copy st.Join.parent;
    depth = Array.copy st.Join.depth;
    phases = !phases;
    max_join_iterations = !max_join;
    phase_log = List.rev !phase_log;
    separator_phases =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) sep_phases []
      |> List.sort compare;
  }

let verify emb ~root result =
  Algo.is_dfs_tree (Embedded.graph emb) ~root ~parent:result.parent
