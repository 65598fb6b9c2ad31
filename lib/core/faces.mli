(** Fundamental faces of a planar configuration (Sections 2 and 4).

    For a real fundamental edge e = uv (normalized so that
    [pi_left u < pi_left v]), the fundamental face F_e is the face of T + e
    not containing the virtual root.  The module provides both the paper's
    O(log n) local characterization (Claims 1/3/4/5, Remark 1) — which the
    production separator uses — and an exact O(n) face-traversal reference,
    kept as ground truth for tests and fuzz oracles only; the test suite
    enforces their agreement.

    The local rule relies on the configuration's tree laying each child row
    out clockwise from the node's {!anchor}, i.e. the tree was built with
    the configuration's own [root_first]. *)

type edge_case =
  | Unrelated  (** neither endpoint is an ancestor of the other *)
  | Anc_left  (** u ancestor of v, edge E-left oriented (Definition 1) *)
  | Anc_right

val classify : Config.t -> u:int -> v:int -> edge_case

val anchor : Config.t -> int -> int
(** Rotation index of the node's parent edge, or of the virtual root edge
    at the root ([Config.root_first], else 0): where normalized rotation
    positions start and where [Rooted.build] starts the node's clockwise
    child row. *)

val child_toward : Config.t -> int -> int -> int
(** Child of the first node on the tree path towards its strict
    descendant ({!Repro_tree.Rooted.child_toward}). *)

val on_border : Config.t -> u:int -> v:int -> int -> bool
(** Is the node on the tree path between u and v?  Two interval tests and,
    above both endpoints, one child-row search each. *)

val border : Config.t -> u:int -> v:int -> int list
(** The border path C_e, from u to v. *)

val child_inside : Config.t -> u:int -> v:int -> case:edge_case -> int -> int -> bool
(** [child_inside cfg ~u ~v ~case x c]: is the tree child [c] of border node
    [x] inside F_e?  (Claims 1 and 4.) *)

val inside_range : Config.t -> u:int -> v:int -> case:edge_case -> int -> int * int
(** [inside_range cfg ~u ~v ~case x] = [(lo, hi)]: the children of border
    node [x] hanging inside F_e are exactly those at clockwise row indices
    [lo .. hi - 1] (see {!Repro_tree.Rooted.child}).  Binary searches
    over the row, O(log deg(x)). *)

val inside_children : Config.t -> u:int -> v:int -> case:edge_case -> int -> int list
(** Children of a border node hanging inside F_e, in rotation order. *)

val is_inside : Config.t -> u:int -> v:int -> int -> bool
(** O(log n) interior membership (Remark 1 / Claims 3 and 5). *)

val interior : Config.t -> u:int -> v:int -> int list
(** All interior members, via the local characterization, in
    O(|border| log n + |interior|).  The separator's Phases 4 and 5 use
    this. *)

val interior_reference : Config.t -> u:int -> v:int -> int list
(** Exact interior by traversing the two faces of T + e and discarding the
    one holding the virtual root corner.  O(n) per call; ground truth for
    tests and oracles, not used by the separator. *)

val edge_in_face : Config.t -> e:int * int -> f:int * int -> bool
(** Is the real fundamental edge [f] contained in (the closed region of)
    F_e? *)
