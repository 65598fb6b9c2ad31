(** Keyed result cache with LRU eviction — the serving layer's memory.

    The daemon computes decompositions, per-part phase-1 trees and query
    results once and reuses them across requests; this module is the keyed
    store that makes that reuse observable and bounded.  Recency is a
    logical tick incremented on every access, so eviction order is a pure
    function of the access sequence — no clocks, no hashing order: two
    replays of the same request stream evict the same keys in the same
    order on every OCaml version.

    Counters (hits / misses / evictions) are cumulative over the cache's
    lifetime and surface in the daemon's [stats] document, where the CI
    serving gate compares them exactly against the committed baseline. *)

type 'a t

val create : capacity:int -> unit -> 'a t
(** An empty cache holding at most [max 1 capacity] entries. *)

val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a * bool
(** [find_or_add t key compute] returns [(value, hit)].  On a hit the
    entry's recency is refreshed and [compute] is not run.  On a miss
    [compute ()] is inserted (evicting the least-recently-used entry when
    full); if [compute] raises, nothing is inserted and the miss is still
    counted — the exception propagates to the caller. *)

val mem : 'a t -> string -> bool
(** Membership without touching recency or counters. *)

val hits : 'a t -> int
val misses : 'a t -> int
val evictions : 'a t -> int

val keys_lru_first : 'a t -> string list
(** Current keys, least-recently-used first — the eviction order the next
    inserts would follow.  Deterministic; used by the cache tests. *)

val stats_json : 'a t -> Repro_trace.Json.t
(** [{"hits";"misses";"evictions";"entries";"capacity"}] — the fragment
    embedded in the daemon's [stats] response and in BENCH_8's E19
    metrics document. *)
