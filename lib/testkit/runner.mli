(** The deterministic fuzz loop: seed-driven case stream, oracle
    execution, spec-space shrinking, replayable failure records.

    Everything is a pure function of [(seed, count, max_size, families,
    oracles)]: the same invocation always visits the same instance stream
    and produces the same failures, which is what makes the printed repro
    line (and the CI crash artifact built from it) sufficient to reproduce
    a failure locally. *)

type failure = {
  original : Instance.spec;  (** the spec that first failed *)
  spec : Instance.spec;  (** shrunk minimal counterexample *)
  case : int;  (** 0-based index in the case stream *)
  shrink_steps : int;  (** accepted shrink steps *)
  reports : Oracle.report list;  (** failing reports on [spec] *)
}

type outcome = {
  cases : int;  (** cases executed (≤ count when failures stop the run) *)
  checks : int;  (** individual oracle comparisons performed *)
  failures : failure list;  (** in discovery order *)
}

val run_spec : oracles:Oracle.t list -> Instance.spec -> Oracle.report list
(** All reports (passing and failing) of the oracles on the instance the
    spec builds; a spec that fails to build yields one failing ["build"]
    report.  Exceptions inside an oracle are captured as failing reports
    ({!Oracle.run_protected}). *)

val failing : oracles:Oracle.t list -> Instance.spec -> Oracle.report list
(** Just the failing reports. *)

val shrink : oracles:Oracle.t list -> Instance.spec -> Instance.spec * int
(** Greedy spec-space descent: repeatedly try smaller [n] and simpler
    spanning kinds, keeping any candidate on which some given oracle still
    fails, until no candidate fails or a budget of 60 candidates is
    spent.  Returns the minimal failing spec and the number of accepted
    steps.  The input spec must be failing. *)

val fuzz :
  ?oracles:Oracle.t list ->
  ?families:string list ->
  ?max_size:int ->
  ?max_failures:int ->
  ?log:(string -> unit) ->
  seed:int ->
  count:int ->
  unit ->
  outcome
(** [count] cases with sizes ramping up to [max_size] (default 64), each
    checked by all [oracles] (default: {!Oracle.all}); failures are
    shrunk immediately.  The run stops early after [max_failures]
    (default 1) failures. *)

val repro_line : failure -> string
(** The replay command for a failure, e.g.
    ["bin/fuzz --replay stacked:24:7:rand3 --oracle separator"]. *)

val artifact_json : seed:int -> failure -> string
(** Machine-readable crash artifact (JSON): seeds, specs, shrink
    trajectory length, failing oracle reports, and the replay command. *)

val pp_report : Format.formatter -> Oracle.report -> unit
