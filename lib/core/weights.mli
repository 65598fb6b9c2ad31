(** Deterministic face weights (Definition 2; Lemmas 3 and 4).

    {!all_weights} weighs every real fundamental edge in one O(m) pass over
    the rotation system, and its table is the only list of those edges;
    {!weight} is the per-edge statement of Definition 2, the reference the
    one-pass weights must equal.

    Note: Definition 2's case labels pair the orientations with the wrong
    DFS orders; this implementation follows the (consistent) convention of
    the Lemma 4 proof, validated against the exact reference. *)

val p_term :
  Config.t -> u:int -> v:int -> case:Faces.edge_case -> int -> int
(** p_{F_e}(x): number of nodes of F_e in the strict subtree of border node
    [x] — locally computable from the rotation.  The inside children are
    one row interval ({!Faces.inside_range}, O(log deg(x))), summed one
    child at a time. *)

val weight : Config.t -> u:int -> v:int -> int
(** Definition 2 for the real fundamental edge (u, v) (normalized), as
    written: O(deg(u) + deg(v)) per edge.  The reference for
    {!all_weights}; the algorithms read the table. *)

val count_reference : Config.t -> u:int -> v:int -> int
(** What Lemmas 3/4 prove [weight] counts, measured from the exact
    face-traversal interior (ground truth for tests and experiment E6). *)

type t = { u : int array; v : int array; w : int array }
(** The real fundamental edges [(u.(i), v.(i))], normalized so that
    [pi_left u < pi_left v], with their weights [w.(i)]: three int arrays
    of exactly [m - n + 1] entries, one per non-tree edge. *)

val edges : t -> (int * int) list
(** [(u.(i), v.(i))] in index order. *)

val to_list : t -> ((int * int) * int) list
(** [((u.(i), v.(i)), w.(i))] in index order. *)

val all_weights : Config.t -> t
(** Weights of every real fundamental edge (Lemma 12): one clockwise walk
    of each rotation records the child-size sums the p-terms are
    differences of, then each edge is O(1) plus, when u is an ancestor of
    v, one [child_toward].  Index order is decreasing in (smaller
    endpoint, larger endpoint).  Equal to {!weight} on every edge. *)

val outside_split :
  Config.t -> u:int -> v:int -> int * int * ([ `Left | `Right ] -> int list)
(** [(|F_l|, |F_r|, region)] for the sets F_l and F_r of Lemma 8: the
    nodes outside F_e, split by LEFT position relative to the face.  The
    two sizes are counted from the face alone (its interior by the local
    rule, {!Faces.interior}, and its border); [region side] builds that
    side's node list, in decreasing node order, only when called. *)
