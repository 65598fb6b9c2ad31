(** The serving engine: one loaded graph, many queries.

    [create] pays the per-instance setup exactly once — screen the
    embedding ([Screen.require] under a [serve.load] span), build the
    whole-graph phase-1 configuration — and every subsequent [handle]
    call answers one line-delimited JSON request against that shared
    state: [dfs] (root), [separator] (whole graph, a decomposition piece,
    or an explicit vertex list), [decompose] (piece-size target),
    [stats], [shutdown].

    Determinism contract (what the CI serving gate relies on): a
    response body is a pure function of the request and the loaded graph
    — it never mentions cache state or which client asked — so replaying
    a request stream over any number of connections, in any interleaving,
    yields byte-identical per-connection responses.  The [stats] document
    is order-independent as long as the cache never evicts: hits/misses
    depend only on the request multiset, charged rounds sum over the
    (set of) cache misses, and the response-hash aggregate is a
    commutative sum.  All hashes are computed with an in-repo FNV-1a
    fold, never [Hashtbl.hash], so they agree across OCaml versions. *)

open Repro_embedding
open Repro_core
module Json = Repro_trace.Json

type t

val create :
  ?tracer:Repro_trace.Trace.t ->
  ?backend:Backend.t ->
  ?cache_capacity:int ->
  pool:Repro_util.Pool.t ->
  Embedded.t ->
  t
(** Load, screen and index one graph.  Raises [Screen.Rejected_input]
    (entry ["serve"]) on hostile input — the daemon refuses to start
    rather than serving a corrupted instance.  [backend] defaults to
    ["congest"]; [cache_capacity] defaults to
    {!Workload.canonical_cache_capacity}. *)

val handle : t -> Json.t -> Json.t
(** Answer one request.  Unknown ops, malformed fields and out-of-range
    arguments produce [{"ok":false,"error":…}] responses (counted in the
    [errors] counter), never exceptions.  A request carrying
    ["trace":true] on a traced engine gets its own [serve.*] span's
    aggregated metrics attached as a ["metrics"] member. *)

val handle_line : t -> string -> string
(** Parse one request line, [handle] it, print the response (no trailing
    newline).  Parse failures become error responses. *)

val max_line_bytes : t -> int
(** The longest request line the daemon accepts: room for every vertex id
    of the loaded graph once, with two separator bytes each, plus a fixed
    4,096-byte allowance for the rest of the request. *)

val line_too_long : t -> string
(** The error response to a line longer than {!max_line_bytes} (counted in
    the [errors] counter like every other error response). *)

val stats_json : t -> Json.t
(** The deterministic serving document: instance shape, per-class request
    counters, {!Cache.stats_json}, summed charged rounds over cache
    misses, and the commutative response-hash aggregate.  This is the
    metrics document BENCH_8's E19 entry commits and serve-smoke gates. *)

val shutdown_requested : t -> bool
