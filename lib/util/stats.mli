(** Descriptive statistics for the benchmark harness. *)

val mean : float array -> float

val percentile : float array -> float -> float
(** [percentile a p] with [p] in [\[0, 100\]], linear interpolation. *)

val median : float array -> float

val linear_slope : x:float array -> y:float array -> float
(** Least-squares slope of [y] against [x]. *)

val loglog_slope : x:float array -> y:float array -> float
(** Empirical polynomial exponent: slope of [log y] vs [log x]. *)
