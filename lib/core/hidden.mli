(** Hidden nodes and (T, F_e)-compatibility (Definition 4, Lemma 6). *)

val subtree_part_in_face : Config.t -> e:int * int -> f:int * int -> bool
(** Is every node of F_e ∩ T_u (u the first endpoint of [e]) also inside
    the closed region of F_f? *)

(** The functions below range over the real fundamental edges of Phase 1's
    table ({!Weights.all_weights} of the same configuration). *)

val hiding_edges :
  Config.t -> Weights.t -> e:int * int -> t:int -> (int * int) list
(** Real fundamental edges hiding node [t] in F_e, in table order. *)

val is_hidden : Config.t -> Weights.t -> e:int * int -> t:int -> bool
(** A leaf inside F_e is (T, F_e)-compatible with u iff not hidden. *)

val maximal_hiding_edge :
  Config.t -> Weights.t -> e:int * int -> t:int -> (int * int) option
(** A hiding edge not contained in any other hiding edge (the fallback
    candidate of Lemma 7 / Claim 6): of those, the heaviest by the table's
    weights, ties to the smaller edge. *)
