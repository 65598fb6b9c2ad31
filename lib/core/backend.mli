(** Separator backends.

    A backend is one way of producing a balanced separator for a planar
    configuration, packaged as a record so the vertical stack
    ({!Decomposition}, {!Dfs}, the serving engine, the CLIs and the bench
    harness) can take it as an argument.  There are two:

    - ["congest"]: the paper's six-phase algorithm (Theorem 1), charged in
      the CONGEST model.  The default everywhere.
    - ["lt-level"]: the Lipton–Tarjan BFS-level separator, computed on the
      host in O(n + m).  It is always balanced, never cycle-shaped, and
      carries no size guarantee.  It serves the small-part fast path
      ({!fast_path}) and E17's comparison with an O(n) baseline. *)

open Repro_congest

type kind =
  | Distributed
      (** runs in the charged CONGEST model: cost is Õ(D) rounds in the
          [Rounds] ledger, every subroutine charged its published bound *)
  | Centralized
      (** runs on the host against the full graph: cost is wall-clock;
          the ledger is charged the collect-and-solve round cost of
          shipping the part to one node (O(part size) rounds, label
          ["backend-collect[<name>]"]), and the work runs under a
          ["backend.<name>"] trace span *)

type t = {
  name : string;
  kind : kind;
      (** only a [Distributed] backend reports [endpoints] (a cycle-closing
          certificate); a [Centralized] one is judged on balance alone *)
  find : ?rounds:Rounds.t -> Config.t -> Separator.result;
  trim : ?rounds:Rounds.t -> Config.t -> int list -> int list;
      (** balanced-trim post-pass applied by [Decomposition.build]; both
          backends use {!Separator.shrink}, which only relies on balance
          monotonicity and so works on any separator vertex list,
          path-shaped or not *)
}

val all : t list
(** [congest], then [lt-level]. *)

val lookup : string -> t option

val default : unit -> t
(** ["congest"]: [find = Separator.find], [trim = Separator.shrink]. *)

val fast_path : cutoff:int -> t -> t
(** The small-part fast path: a backend whose [find] and [trim] send a
    configuration of at most [cutoff] vertices to ["lt-level"] and every
    other one to the given backend, whose [name] and [kind] it keeps. *)
