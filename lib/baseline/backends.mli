(** Centralized separator backends, registered into {!Repro_core.Backend}.

    - ["lt-level"]: the Lipton–Tarjan BFS-level separator — always
      balanced, never cycle-shaped, O(n + m) on the host.
    - ["hn-cycle"]: a simple cycle separator in the spirit of
      Har-Peled–Nayyeri (arXiv 1709.08122), built on the existing
      Rotation/Faces/Weights layers: fundamental-face weights pick a
      balanced tree-path-plus-closing-edge cycle when one exists, a
      bounded fundamental-cycle search over a BFS tree covers the rest,
      and the BFS-level separator guarantees balance as a last resort.
      The full HN triangulation machinery is not reproduced; the backend
      is an honest centralized cycle-separator heuristic with a balance
      guarantee, not a size guarantee.

    Registration happens at module load, but OCaml links a library module
    only when something references it — call {!ensure} from executables
    before resolving backend names. *)

val lt_level : Repro_core.Backend.t
val hn_cycle : Repro_core.Backend.t

val ensure : unit -> unit
(** Force this module (and therefore both registrations); idempotent. *)
