(** Minimal JSON tree, printer and parser.

    The repo deliberately avoids external JSON dependencies; this module is
    shared by the trace exporters (Chrome-trace, metrics), the bench
    emitter and the bench-diff regression gate, so emitted documents can be
    parsed back losslessly.  Integers and floats are kept distinct so exact
    counters survive a round trip; a float prints in the shortest of 15, 16
    or 17 significant digits that reads back as the same value, so
    [of_string (to_string j)] reproduces it. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

val of_string : string -> t
(** Raises [Failure] with a position-annotated message on malformed
    input. *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]; [None] otherwise. *)

val equal : t -> t -> bool
(** Structural equality ([Obj] key order significant). *)
