(** Structured tracing for the CONGEST stack.

    A tracer is a tree of named spans with one open-span stack.  Spans wrap
    the separator phases, the screen, JOIN, the DFS/decomposition recursion
    levels, the pool batches and the daemon's requests.  A span's cost is
    what the paper charges for it: the charged ledger ([Rounds]) attributes
    charged rounds, charge events and part-wise-aggregation units, and the
    pool attributes the items of each batch, to the innermost open span.
    Everything is driven by *virtual* time (charged rounds), never by the
    wall clock, so a trace is a pure function of the run: jobs=N produces
    a bit-identical trace to jobs=1 under the per-part ledger discipline
    of [Rounds.map_parts].

    The whole subsystem is optional-by-construction: every integration
    point holds a [t option], and the [None] path does no work and
    allocates nothing, keeping traced-off runs bit-identical to the
    pre-trace code.

    The summary and the metrics tree merge sibling spans with equal names
    at every depth, in order of first occurrence.

    Sinks: an aggregated textual summary ({!pp}), a Chrome-trace JSON
    ({!to_chrome}, loadable in Perfetto / chrome://tracing with charged
    rounds as the time axis) and a machine-readable metrics tree
    ({!to_metrics}, embedded in BENCH emitters and diffed by the CI
    regression gate). *)

type counters = {
  mutable charged : float;  (** charged rounds ([Rounds.charge]) *)
  mutable charges : int;  (** number of charge invocations *)
  mutable pa_units : int;  (** charged part-wise-aggregation units *)
  mutable tasks : int;  (** pool-batch items executed under this span *)
}

type span = {
  name : string;
  self : counters;  (** attribution while this span was innermost *)
  mutable children : span list;  (** newest first *)
}

type t

val create : ?root:string -> unit -> t
(** Fresh tracer whose root span (default name ["run"]) is open. *)

val root : t -> span

val depth : t -> int
(** Number of open spans, root included; [1] when balanced. *)

val enter : t -> string -> unit

val leave : t -> unit
(** Raises [Invalid_argument] on an attempt to close the root. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [enter], run, [leave] — exception-safe. *)

val within : t option -> string -> (unit -> 'a) -> 'a
(** [with_span] through an optional tracer; [None] runs the thunk
    directly. *)

(** {2 Counter attribution (innermost open span)} *)

val note_charge : t -> pa_units:int -> float -> unit
(** One charged-model charge of the given rounds, [pa_units] of them
    part-wise aggregations. *)

val note_tasks : t -> int -> unit
(** A pool batch of this many items ran under the current span. *)

val absorb : t -> t -> unit
(** Splice the other tracer's finished tree into this tracer's current
    span: the other root's children become children (in order), its root
    self-counters merge into the current span's self.  Used by
    [Rounds.absorb] so a parallel batch's heaviest per-part trace lands
    under the batch span deterministically. *)

(** {2 Reading} *)

val totals : span -> counters
(** Fresh counters: self plus all descendants. *)

val pp : Format.formatter -> t -> unit
(** Aggregated tree summary: sibling spans with equal names merge at every
    depth, with an instance count, children in order of first
    occurrence. *)

val to_chrome : t -> Json.t
(** Chrome-trace ("traceEvents") document of complete ("X") events.  The
    time axis is virtual: a span's duration is its total charged rounds,
    children laid out sequentially inside the parent. *)

val to_metrics : t -> Json.t
(** Machine-readable aggregated tree, merged as {!pp} merges it;
    deterministic, so the CI bench-diff gate compares it exactly. *)

val metrics_of_span : span -> Json.t
(** {!to_metrics} rooted at an arbitrary span — the request-scoped
    metrics document: the serve daemon runs each query under its own
    [serve.*] span and can return just that subtree to the client. *)

val to_chrome_string : t -> string
val to_metrics_string : t -> string
