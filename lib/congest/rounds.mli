(** Round accounting for the charged-cost execution mode.

    Each of the paper's black-box primitives is charged its published round
    bound; the accountant tracks the total and a per-subroutine breakdown.
    One part-wise aggregation (PA) costs [c_pa * D * log2(n)^e] rounds
    (default [e = 2]), matching the deterministic low-congestion shortcut
    guarantee used by the paper. *)

type params = { c_pa : float; log_exponent : int }

val default_params : params

type t

val create : ?params:params -> ?trace:Repro_trace.Trace.t -> n:int -> d:int -> unit -> t
(** [?trace] attaches a span tracer: every [charge_*] attributes its cost
    to the tracer's innermost open span.  Omitting it keeps the accountant
    exactly as before (no tracing work at all). *)

val tracer : t -> Repro_trace.Trace.t option

val pa_cost : t -> float
(** Cost in rounds of a single part-wise aggregation. *)

val log2n : t -> float

val charge : t -> label:string -> float -> unit
(** Charge raw rounds under a label. *)

val charge_pa : ?units:int -> t -> label:string -> unit

(** Published bounds of the paper's named subroutines: *)

val charge_embedding : t -> unit
val charge_spanning_forest : t -> unit
val charge_dfs_order : t -> unit
val charge_weights : t -> unit
val charge_mark_path : t -> unit
val charge_detect_face : t -> unit
val charge_hidden : t -> unit
val charge_not_contained : t -> unit
val charge_aggregate : t -> string -> unit
val charge_reroot : t -> unit
val charge_exact : t -> label:string -> int -> unit

val total : t -> float

val like : t -> t
(** Fresh accountant with the same network parameters.  If the original
    carries a tracer, the copy gets a fresh private tracer (parts of a
    parallel batch never share span state); [absorb] splices it back. *)

val absorb : t -> t -> unit
(** Merge the other accountant's charges into the first (e.g. the heaviest
    part of a batch executed in parallel). *)

val map_parts :
  ?rounds:t ->
  ?pool:Repro_util.Pool.t ->
  label:string ->
  cost:int ->
  (?rounds:t -> 'a -> 'b) ->
  'a array ->
  'b array
(** [map_parts ?rounds ?pool ~label ~cost f parts] runs [f] on every part
    of a partition — Theorem 1's parts run in parallel — and returns the
    results in part order.  Each task gets a fresh ledger ({!like}) when
    [rounds] is given, and the batch is charged its heaviest part (ties:
    lowest part index), so the charge and the spliced trace do not depend
    on scheduling.  With [pool], the tasks are distributed by
    {!Repro_util.Pool.map} under a [label] span of estimated [cost];
    without, they run in order and no pool span is opened. *)

val span : t option -> string -> (unit -> 'a) -> 'a
(** [span rounds name f] runs [f] under a span [name] on the ledger's
    tracer; without a ledger or a tracer it is [f ()].  Spans ride the
    ledger, so phase attribution needs no plumbing of its own. *)

val breakdown : t -> (string * float * int) list
(** [(label, rounds, invocations)], heaviest first. *)

val invocations : t -> int

val label_invocations : t -> string -> int
(** Invocation count charged under one label (0 if the label never
    charged) — lets oracles pin amortization guarantees, e.g. "verify
    balance aggregates at most once per phase". *)

val pp : Format.formatter -> t -> unit
