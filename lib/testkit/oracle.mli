(** The differential oracles.

    One oracle = one invariant family of the paper, checked on an arbitrary
    fuzzed instance by comparing an executed (distributed) computation
    against an independent reference — the dense engine scheduler, the
    serial collective choreography, or a centralized algorithm — plus a
    pinned round budget (rounds = Õ(depth)) so an asymptotic regression
    fails the check even when outputs still agree.

    The list unifies what used to be three hand-rolled differential
    suites (engine_equiv, test_collective, test_composed): those suites are
    now thin property declarations over these oracles, and [bin/fuzz] runs
    the same oracles over a seed-driven instance stream. *)

type report = {
  oracle : string;
  ok : bool;
  detail : string;  (** failure reasons, or "ok (N checks)" *)
  rounds : int;  (** observed rounds (0 when not applicable) *)
  budget : int;  (** asserted round budget ([max_int] when not applicable) *)
  checks : int;  (** individual comparisons performed *)
}

type t = {
  name : string;
  guards : string;  (** the lemma/theorem this oracle guards *)
  run : Instance.t -> report;
}

(** Engine differential driver: one program through both schedulers.
    Exposed so the engine-equiv suite can keep its deterministic tiny-graph
    edge cases (n = 1, n = 2) next to the fuzzed property. *)
module Diff (P : Repro_congest.Engine.PROGRAM) : sig
  val check : Repro_graph.Graph.t -> input:P.input array -> int * string option
  (** (event-driven engine rounds, divergence description if any);
      divergence covers outputs and all four statistics. *)
end

val p_term_reference :
  Repro_core.Config.t ->
  u:int ->
  v:int ->
  case:Repro_core.Faces.edge_case ->
  int ->
  int
(** p_{F_e}(x) by per-child enumeration: every tree child of border node
    [x] tested with {!Repro_core.Faces.child_inside}.  Ground truth for the
    row-interval {!Repro_core.Weights.p_term} in the ["faces"] oracle and
    the weight tests. *)

val shrink_reference :
  ?rounds:Repro_congest.Rounds.t -> Repro_core.Config.t -> int list -> int list
(** The balanced trim by binary search per end, one union-find over G per
    probe and one [Shrink_balance] charge per probe: ground truth for the
    one-pass {!Repro_core.Separator.shrink}, whose path and probe count the
    ["separator"] and ["backend"] oracles and the separator tests check
    against it. *)

val restrict_backends : string list -> unit
(** Narrow the separator backends the ["backend"] oracle
    conformance-checks, by name; defaults to every entry of
    {!Repro_core.Backend.all}.  Used by [bin/fuzz --backend]. *)

val all : t list
(** Every oracle, names distinct, in the order runners report them. *)

val find : string -> t
(** Raises [Failure] with the known names on an unknown oracle. *)

val run_protected : t -> Instance.t -> report
(** [run] with exceptions captured as failing reports. *)

val sabotage : threshold:int -> t
(** Deliberately broken oracle (fails on any instance with at least
    [threshold] vertices): the injected-bug drill used by
    [bin/fuzz --self-check] and the testkit's own suite to prove that the
    fuzzer catches, shrinks and replays a failure.  Not in {!all}. *)
