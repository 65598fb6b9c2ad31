(* Round accounting for the charged-cost execution mode.

   The paper builds everything from a small set of black-box primitives
   (planar embedding [4], deterministic low-congestion shortcuts and
   part-wise aggregation [10], ancestor/descendant sums [8]).  We charge each
   primitive its published round bound and count invocations, so experiments
   can report total rounds and a per-subroutine breakdown.  The list of
   subroutines is the closed type [label], and [row] below is the whole
   cost model.

   The unit cost of one part-wise aggregation (PA) over an arbitrary
   partition is modelled as

       pa_cost = c_pa * D * (ceil(log2 n))^2

   which matches the deterministic shortcut guarantee of
   Haeupler–Hershkowitz–Wajc (PODC 2018) up to the polylog exponent; the
   constant and exponent are configurable so sensitivity can be explored.
   A host-side solver's collect is charged the exact rounds of its
   pipelined BFS-tree transfer instead. *)

type params = { c_pa : float; log_exponent : int }

let default_params = { c_pa = 1.0; log_exponent = 2 }

type label =
  | Embedding
  | Spanning_forest
  | Dfs_order
  | Weights
  | Mark_path
  | Detect_face
  | Hidden
  | Not_contained
  | Re_root
  | Components
  | Verify_balance
  | Range_subtree
  | Range_weights
  | Full_augmentation
  | Outside_sweep
  | Outside_split
  | Shrink_balance
  | Screen_structure
  | Screen_planarity
  | Join_elections
  | Join_target
  | Join_attach
  | Join_anchor
  | Backend_collect

(* A label's cost per charge: 1, ceil(lg n) or ceil(lg n)^2 PA units, or
   the exact rounds the caller passes to [charge_rounds]. *)
type cost = Pa_1 | Pa_lg | Pa_lg2 | Exact

(* The cost table: each label's slot in the ledger arrays, printed name and
   cost.  The paper's black boxes carry their lemma; the rest are single
   aggregations over the current partition (Section 6.1's elections, the
   phases' range problems, the balance probes, the screen). *)
let row = function
  | Embedding -> (0, "embedding[Prop1]", Pa_1)
  | Spanning_forest -> (1, "spanning-forest[Lem9]", Pa_lg)
  | Dfs_order -> (2, "dfs-order[Lem11]", Pa_lg)
  | Weights -> (3, "weights[Lem12]", Pa_1)
  | Mark_path -> (4, "mark-path[Lem13]", Pa_lg2)
  | Detect_face -> (5, "detect-face[Lem15]", Pa_1)
  | Hidden -> (6, "hidden[Lem16]", Pa_1)
  | Not_contained -> (7, "not-contained[Lem17]", Pa_1)
  | Re_root -> (8, "re-root[Lem19]", Pa_1)
  | Components -> (9, "components[Phase]", Pa_1)
  | Verify_balance -> (10, "verify-balance", Pa_1)
  | Range_subtree -> (11, "range-subtree", Pa_1)
  | Range_weights -> (12, "range-weights[Phase3]", Pa_1)
  | Full_augmentation -> (13, "full-augmentation[Phase4]", Pa_1)
  | Outside_sweep -> (14, "outside-sweep[Phase5]", Pa_1)
  | Outside_split -> (15, "outside-split[Phase5]", Pa_1)
  | Shrink_balance -> (16, "shrink-balance", Pa_1)
  | Screen_structure -> (17, "screen-structure", Pa_1)
  | Screen_planarity -> (18, "screen-planarity", Pa_1)
  | Join_elections -> (19, "join-elections", Pa_1)
  | Join_target -> (20, "join-target", Pa_1)
  | Join_attach -> (21, "join-attach", Pa_1)
  | Join_anchor -> (22, "join-anchor", Pa_1)
  | Backend_collect -> (23, "backend-collect[lt-level]", Exact)

let labels =
  [
    Embedding; Spanning_forest; Dfs_order; Weights; Mark_path; Detect_face;
    Hidden; Not_contained; Re_root; Components; Verify_balance; Range_subtree;
    Range_weights; Full_augmentation; Outside_sweep; Outside_split;
    Shrink_balance; Screen_structure; Screen_planarity; Join_elections;
    Join_target; Join_attach; Join_anchor; Backend_collect;
  ]

let slots = List.length labels
let slot label = match row label with i, _, _ -> i
let label_name label = match row label with _, name, _ -> name

type t = {
  lg : int; (* ceil(log2 n) *)
  pa_cost : float;
  total : float array; (* one flat slot, so a charge allocates nothing *)
  sums : float array; (* rounds per label slot *)
  counts : int array; (* charges per label slot *)
  (* Optional span tracer riding the accountant: every charge attributes
     to the tracer's innermost open span.  [None] is the zero-cost path. *)
  trace : Repro_trace.Trace.t option;
}

let create ?(params = default_params) ?trace ~n ~d () =
  let lg = ceil (log (float_of_int (max n 2)) /. log 2.0) in
  {
    lg = int_of_float lg;
    pa_cost =
      params.c_pa *. float_of_int (max d 1)
      *. (lg ** float_of_int params.log_exponent);
    total = [| 0.0 |];
    sums = Array.make slots 0.0;
    counts = Array.make slots 0;
    trace;
  }

let tracer t = t.trace
let log2n t = float_of_int t.lg
let pa_cost t = t.pa_cost

(* Inlined into [charge] and [charge_rounds]: a float passed to a call is
   boxed, and an untraced charge must allocate nothing. *)
let[@inline] add t i ~pa_units rounds =
  t.total.(0) <- t.total.(0) +. rounds;
  t.sums.(i) <- t.sums.(i) +. rounds;
  t.counts.(i) <- t.counts.(i) + 1;
  match t.trace with
  | Some tr -> Repro_trace.Trace.note_charge tr ~pa_units rounds
  | None -> ()

(* A PA label's charge is one part-wise aggregation (or a polylog batch of
   them) executed in parallel over every part of the current partition —
   the parallelism is exactly what the shortcut framework provides, so the
   charge does not scale with the number of parts. *)
let charge rounds label =
  match rounds with
  | None -> ()
  | Some t ->
    let i, name, cost = row label in
    let units =
      match cost with
      | Pa_1 -> 1
      | Pa_lg -> t.lg
      | Pa_lg2 -> t.lg * t.lg
      | Exact -> invalid_arg ("Rounds.charge: " ^ name ^ " costs exact rounds")
    in
    add t i ~pa_units:units (float_of_int units *. t.pa_cost)

let charge_rounds rounds label exact =
  match rounds with
  | None -> ()
  | Some t -> add t (slot label) ~pa_units:0 (float_of_int exact)

let total t = t.total.(0)

(* Fresh accountant with the same network parameters — used to meter the
   parts of a partition independently before taking the parallel maximum. *)
let like t =
  {
    t with
    total = [| 0.0 |];
    sums = Array.make slots 0.0;
    counts = Array.make slots 0;
    (* A fresh tracer per part: parts mutate only their own span tree, so
       pool tasks stay data-race free; the caller splices the heaviest
       part's tree back in via [absorb]. *)
    trace =
      Option.map (fun _ -> Repro_trace.Trace.create ~root:"part" ()) t.trace;
  }

(* Merge another accountant's charges into this one (used to absorb the
   heaviest part of a parallel batch: rounds of concurrent executions are
   the maximum, not the sum). *)
let absorb t other =
  t.total.(0) <- t.total.(0) +. other.total.(0);
  (match (t.trace, other.trace) with
  | Some tr, Some tr' -> Repro_trace.Trace.absorb tr tr'
  | _ -> ());
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        t.sums.(i) <- t.sums.(i) +. other.sums.(i);
        t.counts.(i) <- t.counts.(i) + c
      end)
    other.counts

(* Theorem 1's parallel-parts charge, stated once: every part runs on a
   fresh ledger (over the pool when one is given, under a [label] span on
   the calling domain's tracer), and the batch is charged its heaviest
   part — concurrent parts cost the maximum, not the sum.  Ties resolve to
   the lowest part index and results come back in part order, so neither
   depends on how the pool scheduled the parts. *)
let map_parts ?rounds ?pool ~label ~cost (f : ?rounds:t -> 'a -> 'b) parts =
  let pmap task =
    match pool with
    | Some p ->
      Repro_util.Pool.map
        ?trace:(Option.bind rounds tracer)
        ~label ~cost p task parts
    | None -> Array.map task parts
  in
  match rounds with
  | None -> pmap (fun part -> f part)
  | Some g ->
    let results =
      pmap (fun part ->
          let local = like g in
          (f ~rounds:local part, local))
    in
    let heaviest best (_, l) = if total l > total best then l else best in
    if Array.length results > 0 then
      absorb g (Array.fold_left heaviest (snd results.(0)) results);
    Array.map fst results

let span rounds name f =
  Repro_trace.Trace.within (Option.bind rounds tracer) name f

(* Ties keep table order. *)
let breakdown t =
  List.filter_map
    (fun label ->
      let i = slot label in
      if t.counts.(i) > 0 then Some (label, t.sums.(i), t.counts.(i)) else None)
    labels
  |> List.stable_sort (fun (_, r1, _) (_, r2, _) -> compare r2 r1)

let invocations t = Array.fold_left ( + ) 0 t.counts
let label_invocations t label = t.counts.(slot label)
