(** Round accounting for the charged-cost execution mode.

    The paper's bounds are sums over a fixed list of black-box subroutines.
    Each is a {!label}; {!charge} charges one invocation its published
    bound and the ledger keeps the total plus a per-label breakdown.  One
    part-wise aggregation (PA) costs [pa_cost = c_pa * D * ceil(lg n)^e]
    rounds (default [e = 2]), matching the deterministic low-congestion
    shortcut guarantee the paper uses.  A label costs 1, [ceil(lg n)] or
    [ceil(lg n)^2] PA units per charge, except the centralized backend's
    collect, which {!charge_rounds} charges exact rounds.  An untraced
    charge allocates nothing. *)

type params = { c_pa : float; log_exponent : int }

val default_params : params

(** Printed name, then cost per charge.  Unless noted, a label is one
    aggregation over the current partition: 1 PA unit. *)
type label =
  | Embedding  (** embedding[Prop1]: the planar embedding (Proposition 1) *)
  | Spanning_forest  (** spanning-forest[Lem9]: [ceil(lg n)] units *)
  | Dfs_order  (** dfs-order[Lem11]: [ceil(lg n)] units *)
  | Weights  (** weights[Lem12]: every fundamental face's weight *)
  | Mark_path  (** mark-path[Lem13]: [ceil(lg n)^2] units *)
  | Detect_face  (** detect-face[Lem15] *)
  | Hidden  (** hidden[Lem16] *)
  | Not_contained  (** not-contained[Lem17]: Lemmas 17 and 18 *)
  | Re_root  (** re-root[Lem19] *)
  | Components  (** components[Phase]: a DFS phase's component split *)
  | Verify_balance  (** verify-balance: one phase group's balance batch *)
  | Range_subtree  (** range-subtree: Phase 2's RANGE-PROBLEM *)
  | Range_weights  (** range-weights[Phase3] *)
  | Full_augmentation  (** full-augmentation[Phase4] *)
  | Outside_sweep  (** outside-sweep[Phase5] *)
  | Outside_split  (** outside-split[Phase5] *)
  | Shrink_balance  (** shrink-balance: one balanced-trim probe *)
  | Screen_structure  (** screen-structure *)
  | Screen_planarity  (** screen-planarity *)
  | Join_elections  (** join-elections: JOIN's anchor/marked election *)
  | Join_target  (** join-target *)
  | Join_attach  (** join-attach *)
  | Join_anchor  (** join-anchor: the reference JOIN's aggregation *)
  | Backend_collect
      (** backend-collect[lt-level]: a part collected to one node, exact
          rounds *)

val labels : label list
(** Every label, in table order. *)

val label_name : label -> string
(** The printed name, e.g. ["mark-path[Lem13]"]. *)

type t

val create : ?params:params -> ?trace:Repro_trace.Trace.t -> n:int -> d:int -> unit -> t
(** [?trace] attaches a span tracer: every charge attributes its cost to
    the tracer's innermost open span.  Omitting it keeps the accountant
    exactly as before (no tracing work at all). *)

val tracer : t -> Repro_trace.Trace.t option

val pa_cost : t -> float
(** Cost in rounds of a single part-wise aggregation. *)

val log2n : t -> float

val charge : t option -> label -> unit
(** One invocation of a PA label at its table cost; nothing without a
    ledger.  Raises [Invalid_argument] on [Backend_collect], whose cost is
    exact rounds. *)

val charge_rounds : t option -> label -> int -> unit
(** One invocation charged the given exact rounds (no PA units); nothing
    without a ledger. *)

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

val breakdown : t -> (label * float * int) list
(** [(label, rounds, invocations)] of every charged label, heaviest first;
    ties in table order. *)

val invocations : t -> int

val label_invocations : t -> label -> int
(** Invocation count charged under one label (0 if the label never
    charged) — lets oracles pin amortization guarantees, e.g. "verify
    balance aggregates at most once per phase". *)
