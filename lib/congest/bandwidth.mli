(** Bit-size accounting for CONGEST messages. *)

val bits_for_int : int -> int
(** Bits to encode a signed integer. *)

val default : n:int -> int
(** Default per-edge per-round bandwidth, Θ(log n). *)
