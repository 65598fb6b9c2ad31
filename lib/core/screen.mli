(** Hostile-input screening: a pre-flight validation front-end.

    Everything downstream of [Config.of_part] assumes a promised-planar,
    well-formed instance; this module is the layer that turns that
    promise into a checked contract.  Every entry point ([Dfs.run],
    [Decomposition.build], [Separator.find_partition], the CLI commands)
    calls {!require} before trusting an embedding, so hostile input dies
    here with a typed verdict and a replayable witness instead of
    corrupting the six-phase pipeline or surfacing as a deep-phase
    [No_separator_found].

    Two tiers, each under its own [screen.*] trace span and charged
    O(D) / Õ(D) on the ledger:

    - {b structure} ([screen.structure], one aggregate): rotation-system
      consistency (permutation closure of every rotation against its CSR
      row), the Euler bound [m <= 3n - 6], and connectivity.
    - {b planarity} ([screen.planarity], one embedding broadcast plus one
      aggregate): face-count vs Euler's formula via
      [Rotation.dart_faces], and — when the genus check fails — a
      one-sided witness election in the spirit of Levi–Medina–Ron
      (arXiv 1805.10657): the minimal non-bridge edge whose two darts lie
      on the same face walk certifies non-planarity of the rotation
      system. *)

open Repro_embedding
open Repro_congest

(** Why an instance was rejected outright (no single-edge witness). *)
type reason =
  | Disconnected of { components : int; witness : int }
      (** [witness] is the smallest vertex outside the outer vertex's
          component. *)
  | Euler_bound of { n : int; m : int }  (** [m > 3n - 6] with [n >= 3]. *)
  | Rotation_inconsistent of { vertex : int }
      (** The rotation at [vertex] is not a permutation of its
          adjacency row. *)
  | Genus of { faces : int; expected : int }
      (** Euler's formula fails but no single-edge witness certifies it
          (e.g. every same-face repeated edge is a bridge). *)

(** A single violating edge certifying non-planarity: both darts of
    [edge] lie on the same face walk (of length [face_len]) yet the edge
    is not a bridge — impossible in a plane graph. *)
type witness = { edge : int * int; face_len : int }

type verdict =
  | Accepted
  | Rejected of reason
  | Flagged of witness
      (** One-sided detection: the instance is certainly not a planar
          embedding, and [witness] is the proof. *)

exception
  Rejected_input of { entry : string; verdict : verdict; spec : string }
(** Raised by {!require}.  [entry] names the screened entry point,
    [spec] is a one-line replay handle (the embedding's name — for
    testkit instances this is a [family:n:seed] spec). *)

val check : ?rounds:Rounds.t -> Embedded.t -> verdict
(** Run both screening tiers.  Deterministic: the same embedding always
    yields the same verdict (witnesses are elected by minimal dart id). *)

val require : ?rounds:Rounds.t -> entry:string -> Embedded.t -> unit
(** [check] and raise {!Rejected_input} on anything but [Accepted], with
    the embedding's name as [spec]. *)

val accepted : verdict -> bool

val witness_certifies : Embedded.t -> witness -> bool
(** Recheck a witness from scratch: both darts of the edge on one face
    walk, and the edge is not a bridge.  Used by the [screen] oracle and
    the shrinker tests to validate flags independently of {!check}. *)

val local_tallies : Embedded.t -> int array array * int array array
(** Per-vertex inputs for the CONGEST screening collective
    ([Composed.screen_tally]): [(sums, mins)] where [sums.(0)] is the
    degree (sums to [2m]), [sums.(1)] the number of face walks whose
    minimal dart starts at the vertex (sums to the face count), and
    [mins.(0)] the smallest violating-edge code held at the edge's lower
    endpoint ([2m] — one past the last dart id — when the vertex sees no
    violation). *)

val no_violation : Embedded.t -> int
(** The sentinel code ([2m]) meaning "no violating edge" in
    [local_tallies] mins — kept [O(log n)] bits so the Min fits the
    CONGEST bandwidth. *)

val verdict_to_string : verdict -> string
(** One line, stable across runs; witnesses print their edge so a
    failure is replayable from the message alone. *)
