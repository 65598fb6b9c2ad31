(* Round accounting for the charged-cost execution mode.

   The paper builds everything from a small set of black-box primitives
   (planar embedding [4], deterministic low-congestion shortcuts and
   part-wise aggregation [10], ancestor/descendant sums [8]).  We charge each
   primitive its published round bound and count invocations, so experiments
   can report total rounds and a per-subroutine breakdown.

   The unit cost of one part-wise aggregation (PA) over an arbitrary
   partition is modelled as

       pa_cost = c_pa * D * (ceil(log2 n))^2

   which matches the deterministic shortcut guarantee of
   Haeupler–Hershkowitz–Wajc (PODC 2018) up to the polylog exponent; the
   constant and exponent are configurable so sensitivity can be explored.
   Primitives whose exact executed cost we also implement message-level
   (BFS, broadcast, convergecast) are charged their exact bounds. *)

type params = { c_pa : float; log_exponent : int }

let default_params = { c_pa = 1.0; log_exponent = 2 }

type t = {
  n : int;
  d : int;
  params : params;
  mutable total : float;
  breakdown : (string, float * int) Hashtbl.t;
  (* Optional span tracer riding the accountant: every charge attributes
     to the tracer's innermost open span.  [None] is the zero-cost path. *)
  trace : Repro_trace.Trace.t option;
}

let create ?(params = default_params) ?trace ~n ~d () =
  {
    n = max n 2;
    d = max d 1;
    params;
    total = 0.0;
    breakdown = Hashtbl.create 32;
    trace;
  }

let tracer t = t.trace

let log2n t = ceil (log (float_of_int t.n) /. log 2.0)

let pa_cost t =
  let lg = log2n t in
  t.params.c_pa *. float_of_int t.d *. (lg ** float_of_int t.params.log_exponent)

let charge t ~label rounds =
  t.total <- t.total +. rounds;
  let prev_r, prev_c =
    match Hashtbl.find_opt t.breakdown label with Some x -> x | None -> (0.0, 0)
  in
  Hashtbl.replace t.breakdown label (prev_r +. rounds, prev_c + 1);
  match t.trace with
  | Some tr -> Repro_trace.Trace.note_charge tr rounds
  | None -> ()

(* One part-wise aggregation, executed in parallel over every part of the
   current partition — the parallelism is exactly what the shortcut
   framework provides, so the charge does not scale with the number of
   parts. *)
let charge_pa ?(units = 1) t ~label =
  charge t ~label (float_of_int units *. pa_cost t);
  match t.trace with
  | Some tr -> Repro_trace.Trace.note_pa tr units
  | None -> ()

(* Published bounds of the paper's named subroutines, in PA units. *)
let charge_embedding t = charge_pa t ~label:"embedding[Prop1]" ~units:1
let charge_spanning_forest t =
  charge_pa t ~label:"spanning-forest[Lem9]" ~units:(int_of_float (log2n t))
let charge_dfs_order t =
  charge_pa t ~label:"dfs-order[Lem11]" ~units:(int_of_float (log2n t))
let charge_weights t = charge_pa t ~label:"weights[Lem12]" ~units:1
let charge_mark_path t =
  let lg = int_of_float (log2n t) in
  charge_pa t ~label:"mark-path[Lem13]" ~units:(lg * lg)
let charge_detect_face t = charge_pa t ~label:"detect-face[Lem15]" ~units:1
let charge_hidden t = charge_pa t ~label:"hidden[Lem16]" ~units:1
let charge_not_contained t = charge_pa t ~label:"not-contained[Lem17]" ~units:1
let charge_aggregate t label = charge_pa t ~label ~units:1
let charge_reroot t = charge_pa t ~label:"re-root[Lem19]" ~units:1
let charge_exact t ~label rounds = charge t ~label (float_of_int rounds)

let total t = t.total

(* Fresh accountant with the same network parameters — used to meter the
   parts of a partition independently before taking the parallel maximum. *)
let like t =
  {
    t with
    total = 0.0;
    breakdown = Hashtbl.create 32;
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
  t.total <- t.total +. other.total;
  (match (t.trace, other.trace) with
  | Some tr, Some tr' -> Repro_trace.Trace.absorb tr tr'
  | _ -> ());
  Hashtbl.iter
    (fun label (r, c) ->
      let prev_r, prev_c =
        match Hashtbl.find_opt t.breakdown label with
        | Some x -> x
        | None -> (0.0, 0)
      in
      Hashtbl.replace t.breakdown label (prev_r +. r, prev_c + c))
    other.breakdown

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

let breakdown t =
  Hashtbl.fold (fun label (r, c) acc -> (label, r, c) :: acc) t.breakdown []
  |> List.sort (fun (_, r1, _) (_, r2, _) -> compare r2 r1)

let invocations t =
  Hashtbl.fold (fun _ (_, c) acc -> acc + c) t.breakdown 0

let label_invocations t label =
  match Hashtbl.find_opt t.breakdown label with Some (_, c) -> c | None -> 0

let pp fmt t =
  Fmt.pf fmt "rounds=%.0f (n=%d, D=%d, PA=%.0f)@." t.total t.n t.d (pa_cost t);
  List.iter
    (fun (label, r, c) -> Fmt.pf fmt "  %-26s %10.0f rounds %6d calls@." label r c)
    (breakdown t)
