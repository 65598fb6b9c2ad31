(** Fixed-size domain pool for part-parallel batches.

    The paper's Theorem 1 computes separators "in parallel over all parts"
    of a partition; the host-side simulator mirrors that parallelism with a
    small pool of OCaml 5 domains.  [map] distributes the elements of an
    array over the pool's domains and returns the results in input order,
    so callers stay deterministic as long as their tasks are.

    Small batches are not worth waking the pool for: when the caller passes
    a [cost] estimate below the pool's [seq_grain], [map] is exactly
    [Array.map].  The decision is exposed as [runs_parallel] so callers can
    report provably which path a batch took.

    A pool created with [jobs = 1] spawns no domains at all: [map] then is
    exactly [Array.map], bit-identical to the sequential code path. *)

type t

val create : ?seq_grain:int -> jobs:int -> unit -> t
(** A pool of [max 1 jobs] workers ([jobs - 1] domains plus the calling
    domain, which participates in every [map]).  Worker domains are spawned
    lazily, on the first [map] that goes parallel: a pool whose batches all
    fall back never leaves single-domain execution (and never pays the
    multi-domain GC overhead).  [seq_grain] is the minimum estimated batch
    cost, in caller-chosen work units, below which [map ~cost] runs
    sequentially.  Its default, 8192, is roughly where domain wake-up and
    cache traffic are amortised when a unit is one graph node of batch
    work. *)

val jobs : t -> int
(** The worker count the pool was created with (>= 1). *)

val seq_grain : t -> int
(** The sequential-fallback threshold the pool was created with. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: one worker per hardware thread.
    Workers read the flat graph store in place (shared, read-only), so
    extra domains carry no per-domain data cost. *)

val runs_parallel : ?cost:int -> t -> int -> bool
(** [runs_parallel ?cost t len] is the exact predicate [map] uses to decide
    between the pool and the sequential path for a batch of [len] elements
    with estimated total [cost]: true iff the pool has [jobs > 1] and is
    not shut down, [len > 1], and [cost] (when given) is at least
    [seq_grain t].  (A re-entrant [map] from inside a task still falls
    back dynamically.) *)

val map :
  ?trace:Repro_trace.Trace.t ->
  ?label:string ->
  ?cost:int ->
  t ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** [map ?cost t f arr] applies [f] to every element and returns the
    results in input order.  When [runs_parallel ?cost t (length arr)]
    holds, elements are scheduled over the pool's domains in contiguous
    chunks; otherwise this is [Array.map f arr].  If any task raises, the
    first exception (in completion order) is re-raised after the batch
    drains and the remaining unstarted tasks are skipped; the pool stays
    usable.  Re-entrant calls (a task calling [map] on the same pool) fall
    back to sequential execution rather than deadlock.

    With [?trace], the batch runs under a span named [label] (default
    ["pool.batch"]) on the {e calling} domain's tracer, annotated with the
    batch size; tasks themselves never touch that tracer, so the span tree
    is identical whichever domains the tasks land on. *)

val shutdown : t -> unit
(** Join all worker domains (a no-op if none were ever spawned).
    Idempotent; [map] after [shutdown] runs sequentially. *)

val with_pool : ?seq_grain:int -> jobs:int -> (t -> 'a) -> 'a
(** [create], run the function, and always [shutdown]. *)
