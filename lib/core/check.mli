(** Separator validation: tree-path shape and 2n/3 balance. *)

open Repro_tree

type verdict = {
  valid : bool;
  is_tree_path : bool;
  max_component : int;
  limit : int;
  size : int;
}

val balance_limit : int -> int
(** ceil(2n/3). *)

val max_component_without : Repro_graph.Graph.t -> bool array -> int
(** Largest component after removing the marked vertices. *)

val is_tree_path : Rooted.t -> int list -> bool
(** Does the set equal the vertex set of a path of the tree? *)

val connected_partition : Repro_graph.Graph.t -> int list list -> bool
(** Do the parts partition the whole vertex set into non-empty connected
    parts (no overlap, no vertex missing)?  The precondition of
    [Separator.find_partition] and of Lemma 9's per-part forests. *)

val check_separator : Config.t -> int list -> verdict

val balanced : Config.t -> int list -> bool
(** Balance-only probe (the candidate-verification step). *)

val balanced_with :
  scratch:bool array -> queue:int array -> Config.t -> int list -> bool
(** [balanced_with ~scratch ~queue cfg s] = [balanced cfg s], decided by
    BFS on caller-owned buffers of at least [Config.n cfg] entries — the
    shared-handle path of the incremental candidate verification.
    [scratch] must be all-false on entry and is all-false again on exit;
    [queue]'s contents are ignored.  A vertex listed twice in [s] counts
    once.  The search returns [false] at the first component of G - S
    above [balance_limit n], and [true] once the vertices not yet reached
    cannot form one, so a probe allocates nothing and often visits only
    part of the graph. *)

val pp_verdict : Format.formatter -> verdict -> unit

val cycle_closable : Config.t -> endpoints:int * int -> bool
(** Certificate for the full cycle-separator definition: the closing edge is
    a graph edge, or inserting it keeps the graph planar (checked with the
    DMP tester; test/reporting use). *)
