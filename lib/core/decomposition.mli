(** Recursive cycle-separator decomposition and the Lipton–Tarjan
    divide-and-conquer application (approximate maximum independent set). *)

open Repro_graph
open Repro_embedding
open Repro_congest

type t = {
  pieces : int list list; (** ≤ piece_target vertices each *)
  separator : bool array; (** removed separator nodes *)
  levels : int; (** recursion depth *)
  separator_count : int;
}

val build :
  ?rounds:Rounds.t ->
  ?pool:Repro_util.Pool.t ->
  ?piece_target:int ->
  ?backend:Backend.t ->
  Embedded.t ->
  t
(** Recursively split until every piece has at most [piece_target]
    (default 20) vertices.  Each part is split by [backend.find] (default
    ["congest"], the six-phase algorithm), and [backend.trim]'s
    balanced-trim post-pass applies to every separator.
    {!Backend.fast_path} sends the small parts that dominate deep
    recursion levels to ["lt-level"], charged their O(part) collect cost
    in the ledger and visible as a [backend.lt-level] trace span.  The
    recursion runs level-synchronously: each level's node-disjoint parts
    form one batch distributed over [pool] when given; the output and the
    charged rounds (max over each level's parts) are independent of the
    pool size. *)

val check : Embedded.t -> piece_target:int -> t -> bool
(** Pieces + separator partition V, pieces respect the target, and no edge
    joins two distinct pieces. *)

val exact_mis : Graph.t -> bool array -> int list
(** Exact maximum independent set of the alive subgraph (exponential;
    intended for tiny pieces). *)

val independent_set : Embedded.t -> t -> int list
(** Exact MIS per piece; the union is independent in the whole graph. *)

val is_independent : Graph.t -> int list -> bool

val bounded_diameter :
  ?rounds:Repro_congest.Rounds.t ->
  ?pool:Repro_util.Pool.t ->
  ?backend:Backend.t ->
  diameter_target:int ->
  Embedded.t ->
  t
(** Bounded-diameter decomposition (the BDD application of Section 1.2):
    recursively split with Theorem-1 separators until every piece's hop
    diameter is at most the target. *)

val check_bounded_diameter : Embedded.t -> diameter_target:int -> t -> bool
