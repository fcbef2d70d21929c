(** Soft constraints via Pareto-optimal curves (paper §4.1, App. D).

    A soft constraint contributes a linear metric over the z variables
    (e.g. total index storage).  The Chord algorithm picks scalarization
    weights lambda and solves [min lambda*cost + (1-lambda)*metric],
    reusing the decomposition solver's multipliers between points. *)

type point = {
  lambda : float;
  z : bool array;
  cost : float;    (** workload cost of this solution *)
  metric : float;  (** soft-constraint metric of this solution *)
}

(** One scalarized solve at {!Solver.default_options}; returns the
    point and the multipliers for warm starting the next one. *)
val scalarized_solve :
  Sproblem.t ->
  metric_coeff:float array ->
  lambda:float ->
  warm:Solver.multipliers option ->
  point * Solver.multipliers

(** Chord sweep: Pareto points sorted by metric, plus the number of solver
    invocations.  [epsilon] is the relative chord-distance tolerance;
    [reuse = false] disables multiplier warm starts (for the Fig. 6c
    comparison). *)
val sweep :
  ?epsilon:float ->
  ?max_points:int ->
  ?reuse:bool ->
  Sproblem.t ->
  metric_coeff:float array ->
  point list * int

(** Per-candidate index sizes: the metric of a soft storage budget. *)
val storage_metric : Sproblem.t -> float array
