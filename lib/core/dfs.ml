(* Deterministic distributed DFS (Theorem 2, Section 6.2).

   Each phase computes, in parallel over the connected components of the
   unvisited region, a cycle separator (Theorem 1) and joins it to the
   partial DFS tree with the DFS-RULE (Lemma 2).  Because each component
   loses a separator, component sizes drop by a constant factor per phase,
   so there are O(log n) phases, each costing Õ(D) rounds.

   Both per-phase batches (separators, then joins) run their components
   as the parts of one [Rounds.map_parts] batch: over an optional domain
   pool, each charged as its heaviest part (the parallel-parts rule is
   stated there), so charged totals and the resulting tree are independent
   of how the pool schedules the parts. *)

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

let run ?rounds ?(spanning = Repro_tree.Spanning.Bfs) ?pool
    ?(backend = Backend.default ()) emb ~root =
  let g = Embedded.graph emb in
  let n = Graph.n g in
  Graph.check_vertex g root;
  Screen.require ?rounds ~entry:"Dfs.run" emb;
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
  let pending = ref (Join.unvisited_components st all_members) in
  while !pending <> [] do
    incr phases;
    if !phases > n + 1 then invalid_arg "Dfs.run: too many phases";
    (* The phase span wraps both batches and their absorbs, so the
       heaviest parts' spliced sub-trees land inside it. *)
    Rounds.span rounds (Printf.sprintf "dfs.phase%d" !phases) @@ fun () ->
    Rounds.charge rounds Components;
    let comps = Array.of_list !pending in
    let largest = Array.fold_left (fun a c -> max a (Array.length c)) 0 comps in
    (* Theorem 1 on the node-disjoint collection of components: compute all
       separators.  Components are node-disjoint, so the batch's work
       estimate is simply the number of still-unvisited nodes. *)
    let cost = Array.fold_left (fun a c -> a + Array.length c) 0 comps in
    let separators =
      Rounds.map_parts ?rounds ?pool ~label:"pool.separators" ~cost
        (fun ?rounds members ->
          if Array.length members <= 3 then
            (* Trivial components: every node is its own separator; skip the
               induced-configuration machinery. *)
            (members, Array.to_list members, "trivial")
          else begin
            let part_root =
              match Join.component_anchor st members with
              | Some (v, _) -> v
              | None -> members.(0)
            in
            let cfg = Config.of_part ~spanning ~members ~root:part_root emb in
            let r = backend.Backend.find ?rounds cfg in
            (members, List.map (Config.to_global cfg) r.Separator.separator,
             r.Separator.phase)
          end)
        comps
    in
    Array.iter (fun (_, _, phase) -> bump phase) separators;
    (* JOIN runs in parallel over components as well. *)
    let joins =
      Rounds.map_parts ?rounds ?pool ~label:"pool.joins" ~cost
        (fun ?rounds (members, separator, _) ->
          Join.join ?rounds st ~members ~separator)
        separators
    in
    let phase_join = Array.fold_left max 0 joins in
    max_join := max !max_join phase_join;
    phase_log := (Array.length comps, largest, phase_join) :: !phase_log;
    pending := Join.unvisited_components st all_members
  done;
  {
    parent = st.Join.parent;
    depth = st.Join.depth;
    phases = !phases;
    max_join_iterations = !max_join;
    phase_log = List.rev !phase_log;
    separator_phases =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) sep_phases []
      |> List.sort compare;
  }

let verify emb ~root result =
  Algo.is_dfs_tree (Embedded.graph emb) ~root ~parent:result.parent
