(** The deterministic cycle-separator algorithm (Theorem 1, Section 5.3).

    [find] runs the paper's six-phase algorithm on one planar configuration.
    Phases 2 and 3 return their candidate on the count (subtree sizes,
    Lemma 5); every Phase 4/5 candidate path is verified with a balance
    probe before being returned (see DESIGN.md, deviations 1 and 2).
    Verification is amortized: one shared handle (BFS marks and queue,
    allocated at the first probe, + the phase-1 tree) serves every probe
    of a [find], and each phase group
    charges a single running balance aggregate — the Lemma 18/19 balance
    check maintained incrementally — however many candidates the group
    tries.  [find_partition] is
    Theorem 1 proper: separators for all parts of a partition, charged as
    a parallel batch. *)

open Repro_embedding
open Repro_congest

type result = {
  separator : int list; (** vertices of the separator (a tree path) *)
  endpoints : (int * int) option;
      (** the certified closing edge of the cycle: a real fundamental edge,
          or a virtual edge whose planar insertability follows from the
          producing lemma (5, 6 or 8).  [None] for tree-phase and sweep
          outputs, which are balanced tree-path separators without a
          closing-edge certificate ([Check.cycle_closable] re-checks any
          reported edge with the DMP tester). *)
  phase : string; (** which phase/candidate produced the separator *)
  candidates_tried : int;
}

exception No_separator_found of string

val find : ?rounds:Rounds.t -> Config.t -> result
(** Raises [No_separator_found] when every Phase 4/5 candidate fails;
    nothing runs below the phases. *)

val shrink : ?rounds:Rounds.t -> Config.t -> int list -> int list
(** Trim a separator path from both ends while it stays balanced.  Balance
    is monotone under path inclusion, so each end has one threshold; the
    host finds it with one reverse pass per end (a BFS labelling of G
    minus the path's tail, then a union-find over its components and the
    path vertices added back: O(n + m) each), and the ledger charges the
    O(log n) probes of the binary search the modelled CONGEST algorithm
    runs.  A path with no balanced window comes
    back unchanged.  The result remains a balanced tree-path separator but
    may lose the cycle-closing property; use for applications that only
    need balance. *)

val find_partition :
  ?rounds:Rounds.t ->
  ?pool:Repro_util.Pool.t ->
  Embedded.t ->
  parts:int list list ->
  (Config.t * result) list
(** Separator of [G[P_i]] for every part; each part must induce a connected
    subgraph.  Results are in part order, paired with the (renumbered)
    per-part configuration.  Parts are computed concurrently over [pool]
    when given, mirroring Theorem 1's partition parallelism; results and
    charged rounds do not depend on the pool size. *)
