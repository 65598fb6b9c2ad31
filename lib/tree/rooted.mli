(** Rooted spanning trees with embedding-ordered children.

    Children of each node are stored clockwise starting right after the
    parent edge, realizing the paper's convention [t_v(parent) = 0].
    A tree holds only node-local DFS data, the data the paper's tree
    subroutines read (Section 5.1): parents, depths, subtree sizes, the
    LEFT/RIGHT DFS positions and the clockwise child rows.  Ancestor
    queries are interval tests, the child towards a descendant is a binary
    search over one child row, and the LCA climbs parents under the
    interval test. *)

open Repro_embedding

type t

val build : ?root_first:int -> rot:Rotation.t -> root:int -> int array -> t
(** [build ~rot ~root parent] packages the parent array (root has [-1]) into
    a rooted tree.  The tree keeps [parent] itself, not a copy, so the
    array is read-only from then on.  [root_first] selects which neighbour
    of the root comes first in its rotation — i.e. where the virtual root
    edge is inserted (paper, Section 4); defaults to the rotation's own
    starting point. *)

val n : t -> int
val root : t -> int

val parent : t -> int -> int
(** Parent of a vertex; [-1] at the root. *)

val depth : t -> int -> int

val children : t -> int -> int array
(** Children in clockwise rotation order.  Allocates a fresh array — hot
    paths use {!children_count} / {!child} / {!fold_children}. *)

val children_count : t -> int -> int

val child : t -> int -> int -> int
(** [child t v i] is the [i]-th clockwise child of [v] (unchecked:
    [0 <= i < children_count t v]), without allocating. *)

val fold_children : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val size : t -> int -> int
(** [n_T(v)]: number of nodes in the subtree rooted at [v]. *)

val children_size_between : t -> int -> int -> int -> int
(** [children_size_between t v i j] is the summed subtree size of the
    children of [v] at clockwise row indices [i .. j - 1] (unchecked:
    [0 <= i <= j <= children_count t v]), in O(j - i).  Children are laid
    out in clockwise order from the parent edge, so any angular range of
    children is one such row interval. *)

val is_leaf : t -> int -> bool

val pi_left : t -> int -> int
(** LEFT-DFS-ORDER position (0-based). *)

val pi_right : t -> int -> int
(** RIGHT-DFS-ORDER position (0-based): the pre-order that visits each
    node's children clockwise.  RIGHT mirrors LEFT, so it is LEFT's
    post-order reversed, and no array holds it:
    [pi_right v = n - pi_left v + depth v - size v]. *)

val node_at_left : t -> int -> int
(** Inverse of [pi_left]. *)

val is_ancestor : t -> anc:int -> desc:int -> bool
(** Reflexive ancestor test via DFS intervals. *)

val child_toward : t -> int -> int -> int
(** [child_toward t x z] is the child of [x] on the tree path to its
    strict descendant [z] (unchecked), by binary search over the child row
    of [x]: O(log deg(x)). *)

val lca : t -> int -> int -> int
(** Climbs parents from the first node until its DFS interval holds the
    second: O(depth a - depth (lca a b)). *)

val path : t -> int -> int -> int list
(** Vertices of the tree path between two nodes, endpoints included. *)

val centroid : t -> int
(** A vertex whose removal leaves components of size at most [n/2]. *)

val reroot : rot:Rotation.t -> t -> int -> t
(** Same tree edges, new root (RE-ROOT-PROBLEM, Lemma 19). *)

val edges : t -> (int * int) list
