(* Centralized backends for the separator registry.

   Both backends run on the host against the full (sub)graph, so their
   native cost is wall-clock; the charged ledger gets the CONGEST cost of
   using them as a fast path: collecting the part's topology to one node
   over a pipelined BFS tree costs O(part size) rounds, charged under
   "backend-collect[<name>]" so the testkit can pin it and the trace
   layer shows the fast path as its own span. *)

open Repro_tree
open Repro_congest
open Repro_core

let span rounds name f =
  Repro_trace.Trace.within (Option.bind rounds Rounds.tracer) name f

(* O(part) rounds to ship the part to one node (and broadcast the answer
   back, same order). *)
let charge_collect rounds ~name n =
  match rounds with
  | Some r ->
    Rounds.charge_exact r ~label:(Printf.sprintf "backend-collect[%s]" name) n
  | None -> ()

let trivial_result root =
  Separator.
    {
      separator = [ root ];
      endpoints = None;
      phase = "trivial";
      candidates_tried = 0;
      weights_computed = 0;
    }

(* ------------------------------------------------------------------ *)
(* lt-level: one balanced BFS level.                                   *)
(* ------------------------------------------------------------------ *)

let lt_level_find ?rounds cfg =
  let g = Config.graph cfg in
  let n = Config.n cfg in
  let root = Rooted.root (Config.tree cfg) in
  span rounds "backend.lt-level" @@ fun () ->
  charge_collect rounds ~name:"lt-level" n;
  if n <= 3 then trivial_result root
  else
    Separator.
      {
        separator = Lipton_tarjan.level_separator g ~root;
        endpoints = None;
        phase = "lt-level";
        candidates_tried = 1;
        weights_computed = 0;
      }

let lt_level =
  Backend.
    {
      name = "lt-level";
      description = "centralized Lipton-Tarjan BFS-level separator";
      kind = Centralized;
      certificate = Balance_only;
      cost_model = "O(n + m) centralized wall; ledger charged O(part) collect";
      find = lt_level_find;
      trim = Separator.shrink;
    }

(* ------------------------------------------------------------------ *)
(* hn-cycle: simple cycle separators on the embedding layers.          *)
(* ------------------------------------------------------------------ *)

(* Candidate cap for each of the bounded searches, and the size above
   which the fundamental-cycle sweep (near-linear typical, quadratic
   worst case) is skipped in favour of the level fallback. *)
let max_weight_candidates = 24
let max_cycle_sweep_n = 4096

let hn_cycle_find ?rounds cfg =
  let g = Config.graph cfg in
  let n = Config.n cfg in
  let tree = Config.tree cfg in
  let root = Rooted.root tree in
  span rounds "backend.hn-cycle" @@ fun () ->
  charge_collect rounds ~name:"hn-cycle" n;
  if n <= 3 then trivial_result root
  else begin
    let limit = Check.balance_limit n in
    let tried = ref 0 in
    let balanced sep = Lipton_tarjan.max_component_after g sep <= limit in
    (* Stage 1: fundamental-face weights (Definition 2 on the config's own
       embedding) rank the real fundamental edges by how close their face
       weight is to n/2; each candidate cycle is the tree path between the
       edge's endpoints closed by the edge itself. *)
    let weights = Weights.all_weights cfg in
    let ordered =
      List.stable_sort
        (fun (_, w1) (_, w2) ->
          compare (abs ((2 * w1) - n)) (abs ((2 * w2) - n)))
        weights
      |> List.filteri (fun i _ -> i < max_weight_candidates)
    in
    let from_weights =
      List.fold_left
        (fun acc ((u, v), _) ->
          match acc with
          | Some _ -> acc
          | None ->
            incr tried;
            let path = Rooted.path tree u v in
            if balanced path then
              Some
                Separator.
                  {
                    separator = path;
                    endpoints = Some (u, v);
                    phase = "hn-weight";
                    candidates_tried = !tried;
                    weights_computed = List.length weights;
                  }
            else None)
        None ordered
    in
    match from_weights with
    | Some r -> r
    | None -> (
      (* Stage 2: bounded sweep over the fundamental cycles of a fresh BFS
         tree, stopping at the first balanced cycle.  The list returned by
         the sweep runs endpoint to endpoint, so its ends are the closing
         non-tree edge. *)
      let from_cycle =
        if n > max_cycle_sweep_n then None
        else
          match Lipton_tarjan.best_fundamental_cycle ~stop_at:limit g ~root with
          | Some (cycle, mc) when mc <= limit ->
            incr tried;
            let closing =
              match cycle with
              | first :: _ :: _ ->
                let rec last = function
                  | [ x ] -> x
                  | _ :: rest -> last rest
                  | [] -> assert false
                in
                Some (first, last cycle)
              | _ -> None
            in
            Some
              Separator.
                {
                  separator = cycle;
                  endpoints = closing;
                  phase = "hn-bfs-cycle";
                  candidates_tried = !tried;
                  weights_computed = List.length weights;
                }
          | _ -> None
      in
      match from_cycle with
      | Some r -> r
      | None ->
        (* Stage 3: the BFS level always balances. *)
        incr tried;
        Separator.
          {
            separator = Lipton_tarjan.level_separator g ~root;
            endpoints = None;
            phase = "hn-fallback-level";
            candidates_tried = !tried;
            weights_computed = List.length weights;
          })
  end

let hn_cycle =
  Backend.
    {
      name = "hn-cycle";
      description =
        "centralized simple cycle separator (Har-Peled-Nayyeri-inspired, \
         weight-guided with balance fallback)";
      kind = Centralized;
      certificate = Cycle_certified;
      cost_model =
        "O(m + k*(n + m)) centralized wall; ledger charged O(part) collect";
      find = hn_cycle_find;
      trim = Separator.shrink;
    }

let registered =
  lazy
    (Backend.register lt_level;
     Backend.register hn_cycle)

let ensure () = Lazy.force registered
let () = ensure ()
