(** CoPhy top-level (paper Fig. 2): INUM -> CGen -> BIPGen -> Solver. *)

type timings = {
  inum_seconds : float;   (** INUM cache construction *)
  build_seconds : float;  (** candidate generation + BIP construction *)
  solve_seconds : float;  (** first solve + probe-budget refine rounds *)
}

type recommendation = {
  config : Storage.Config.t;      (** the recommended X* *)
  report : Solver.report;
  problem : Sproblem.t;  (** the BIP the final re-solve ran on *)
  cache : Inum.workload_cache;
  candidates : Storage.Index.t array;
  timings : timings;
}

val total_seconds : recommendation -> float

(** Run the full pipeline.

    @param constraints the constraints to enforce, with
      {!Interactive.create}'s default ([[Constr.At_most_one_clustered]]);
      the storage budget comes from [budget_fraction].  Soft constraints
      are trade-offs explored with {!Pareto} instead.
    @param candidates overrides CGen's candidate set.
    @param dba_candidates extends it (the S_DBA of the paper).
    @param solver_options solver settings (default
      {!Solver.default_options}); its [certify] flag is the debug mode
      that certifies the solver's answer against the z polytope with
      {!Lp.Analyze} and checks every query-cost cap (raises
      [Lp.Analyze.Certification_failed] on failure).
    @param baseline the configuration that query-cost caps are relative to.
    @param budget_fraction storage budget as a fraction of the database
      size (the paper's M).
    @param jobs domains for the INUM build and solver fan-outs
      (default [1]; the recommendation is identical at every job count —
      use {!Runtime.recommended_jobs} to saturate the machine); it
      overrides [solver_options.jobs].
    @param probe_budget per-query cap on up-front INUM probes (see
      {!Inum.build}; default unlimited).  After the first solve, a
      completion loop forces the deferred probes overlapping the
      incumbent and re-solves warm until the recommendation's cost model
      is exact at its own configuration, so [report.objective] matches
      the exhaustive-probing pipeline's while spending far fewer probes;
      [report.probe_regret] certifies the residual model-wide bound.
    @raise Solver.Infeasible when the constraints cannot hold, or no
      selection meeting them was found (see {!Solver.solve}). *)
val advise :
  ?constraints:Constr.t list ->
  ?candidates:Storage.Index.t list ->
  ?dba_candidates:Storage.Index.t list ->
  ?solver_options:Solver.options ->
  ?baseline:Storage.Config.t ->
  ?jobs:int ->
  ?probe_budget:int ->
  Catalog.Schema.t ->
  Sqlast.Ast.workload ->
  budget_fraction:float ->
  recommendation

(** Per-statement explanation: INUM cost before/after and the index filling
    each table's slot in the winning template. *)
type explanation = {
  statement_id : int;
  cost_before : float;
  cost_after : float;
  picks : (string * Storage.Index.t option) list;
}

val explain : recommendation -> explanation list
