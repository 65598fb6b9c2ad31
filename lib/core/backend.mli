(** Pluggable separator backends.

    A backend is one way of producing a balanced separator for a planar
    configuration, packaged behind a first-class record so the vertical
    stack ({!Decomposition}, {!Dfs}, the CLIs and the bench harness) can
    dispatch by name instead of hard-wiring the six-phase algorithm.
    Capability metadata travels with the implementation: whether it runs
    in the charged CONGEST model or centrally on the host, whether its
    output carries a cycle-closing certificate, and the cost model its
    charges follow — so callers (and the testkit's [backend] oracle) know
    what each backend guarantees without inspecting its results.

    The registry is name-keyed and append-only.  The paper's six-phase
    algorithm registers here as ["congest"] at module load and is the
    default; centralized baselines register from [Repro_baseline.Backends]
    (the library dependency points that way), which exposes an [ensure]
    hook the executables call to force linkage. *)

open Repro_congest

type kind =
  | Distributed
      (** runs in the charged CONGEST model: cost is Õ(D) rounds in the
          [Rounds] ledger, every subroutine charged its published bound *)
  | Centralized
      (** runs on the host against the full graph: cost is wall-clock;
          the ledger is charged the collect-and-solve round cost of
          shipping the part to one node (O(part size) rounds) *)

type certificate =
  | Cycle_certified
      (** may report [endpoints] closing the separator path into a simple
          cycle (a real edge, or a virtual edge certified insertable) *)
  | Balance_only
      (** never reports [endpoints]: the separator is only guaranteed to
          be balanced (max remaining component ≤ 2n/3) *)

type t = {
  name : string;
  description : string;
  kind : kind;
  certificate : certificate;
  cost_model : string;
      (** human-readable cost statement, e.g. ["O~(D) charged rounds"] or
          ["O(n + m) centralized; ledger charged O(part) collect"] *)
  find : ?rounds:Rounds.t -> Config.t -> Separator.result;
  trim : ?rounds:Rounds.t -> Config.t -> int list -> int list;
      (** balanced-trim post-pass applied by [Decomposition.build];
          every built-in backend uses {!Separator.shrink}, which only
          relies on balance monotonicity and so works on any separator
          vertex list, path-shaped or not *)
}

exception Duplicate_backend of string

val register : t -> unit
(** Raises {!Duplicate_backend} if the name is taken. *)

val lookup : string -> t
(** Raises [Failure] listing the known names on an unknown backend. *)

val lookup_opt : string -> t option

val all : unit -> t list
(** Registration order; ["congest"] is registered at module load. *)

val names : unit -> string list

val default : unit -> t
(** The behavior-preserving default: ["congest"], the six-phase algorithm
    of Theorem 1 ([find = Separator.find], [trim = Separator.shrink]). *)

val centralized_default : unit -> t option
(** First registered [Centralized] backend (the small-part fast path used
    when a cutoff is given without an explicit backend), if any centralized
    backend has been registered. *)
