(** The pre-optimisation twins of two production modules, kept verbatim
    as differential oracles, and the engine-executed JOIN elections.  Each
    twin has the signature of the module it checks and uses only that
    module's public interface. *)

module Engine : sig
  (** The original dense CONGEST scheduler: every round scans all n nodes.
      {!Repro_congest.Engine.Make} must produce bit-identical outputs and
      statistics on every program (the ["engine"] oracle, bench E12). *)
  module Make (P : Repro_congest.Engine.PROGRAM) : sig
    val run :
      ?max_rounds:int ->
      ?bandwidth:int ->
      Repro_graph.Graph.t ->
      input:P.input array ->
      P.output array * Repro_congest.Engine.stats
  end
end

module Join : sig
  (** The pre-batching JOIN choreography (per-component hash index,
      per-iteration anchor aggregation + re-root + mark-path):
      {!Repro_core.Join.join} must be bit-identical to it in resulting
      tree and iteration count (the ["join"] oracle, test_join, bench
      E15). *)
  val join :
    ?rounds:Repro_congest.Rounds.t ->
    Repro_core.Join.state ->
    members:int array ->
    separator:int list ->
    int

  val executed :
    ?serial:bool ->
    Repro_core.Join.state ->
    root:int ->
    members:int array ->
    separator:int list ->
    int * Repro_congest.Composed.stats
  (** {!join}'s forests and attachment, with each iteration's batched
      elections run for real as {!Repro_congest.Composed.join_elections}
      (or its [Reference] serial binding when [serial]); returns the
      iteration count and the executed statistics summed over all
      iterations.  Builds a BFS pipeline tree from [root], so the graph
      must be connected.  Raises [Invalid_argument] when n^3 overflows an
      int (the election codes are O(n^3)). *)
end
