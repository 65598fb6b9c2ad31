(** The one-call entry point: every oracle on one instance.

    [check_all] is what [bin/fuzz] runs per case and what external callers
    use to validate an instance end to end; the submodules ({!Instance},
    {!Generator}, {!Oracle}, {!Runner}, {!Suite}, {!Facewalk}) expose the
    pieces individually. *)

type report = {
  spec : Instance.spec;
  results : Oracle.report list;  (** {!Oracle.all} order *)
  ok : bool;  (** all results ok *)
  checks : int;  (** total comparisons *)
}

val check_all : ?oracles:Oracle.t list -> Instance.t -> report
(** Run the oracles (default: {!Oracle.all}) with exception capture. *)

val check_spec : ?oracles:Oracle.t list -> Instance.spec -> report
(** [check_all] on the instance the spec builds. *)

val pp_report : Format.formatter -> report -> unit
