(** Synchronous CONGEST execution engine.

    Nodes execute in lock step; per round, each node may send at most one
    message per incident edge, and every message must fit in the per-edge
    bandwidth (Θ(log n) bits by default).  The engine runs until every node
    has finished and no message is in flight.

    [Make] is the event-driven scheduler: it keeps an explicit worklist of
    active nodes (nodes holding a message or not yet finished), so a round
    costs O(active nodes + messages in flight) rather than O(n).  The
    original dense scheduler is the testkit's [Reference.Engine.Make], the
    oracle of the differential suite: both must produce bit-identical
    outputs and statistics on every program. *)

open Repro_graph

module type PROGRAM = sig
  type input
  type state
  type msg
  type output

  val msg_bits : msg -> int

  val init : n:int -> id:int -> neighbors:int array -> input -> state * (int * msg) list
  (** Initial state and round-0 outbox as [(destination, message)] pairs. *)

  val step : round:int -> id:int -> state -> inbox:(int * msg) list -> state * (int * msg) list
  (** One synchronous round. *)

  val finished : state -> bool
  (** Quiescence predicate: [true] when the node will take no action on an
      empty inbox (an incoming message may still wake it up).  Nodes
      reporting [false] are stepped every round even without messages. *)

  val output : state -> output
end

type stats = {
  rounds : int;
  messages : int;
  max_edge_bits : int;
  total_bits : int;
}

val pp_stats : Format.formatter -> stats -> unit
(** One-line rendering (differential-failure reports). *)

exception Bandwidth_exceeded of { src : int; dst : int; bits : int; limit : int }
exception Duplicate_message of { src : int; dst : int }
exception Did_not_terminate of { max_rounds : int }

module Make (P : PROGRAM) : sig
  val run :
    ?max_rounds:int ->
    ?bandwidth:int ->
    Graph.t ->
    input:P.input array ->
    P.output array * stats
end
