(** Interactive tuning sessions (paper §4.2): the keyed INUM store,
    candidate set, structured BIP, solver multipliers and previous
    incumbent persist across the DBA's tweaks, so only the delta is
    recomputed on each re-tune.  {!Advisor.advise} is the one-shot form
    of a session; the serve daemon is the long-running form. *)

type session

(** Start a session: INUM preprocesses the workload through the keyed
    store (statements with a previously seen canonical key cost zero
    optimizer probes), and CGen builds the initial candidate set unless
    [candidates] overrides it ([dba_candidates] extends it).  [jobs]
    (default [1]) sets the domain fan-out for the session's INUM builds
    and re-tunes.  [store] shares a keyed store across sessions: its
    environment prices the session, and its probe budget caps the
    optimizer probes each INUM build spends up front (see
    {!Inum.Keyed.create}); deferred probes resolve lazily through
    {!refine_at} / {!recommend} / {!Inum.cost}.  Without it the session
    gets a fresh store that prices with {!Optimizer.Cost_params.default}
    and probes eagerly.  [constraints] (default
    [[Constr.At_most_one_clustered]], the same as {!Advisor.advise}'s)
    are enforced at every re-tune next to the [budget]; [baseline]
    (default empty) is the configuration query-cost caps are relative
    to, fixed for the session's life. *)
val create :
  ?constraints:Constr.t list ->
  ?baseline:Storage.Config.t ->
  ?jobs:int ->
  ?candidates:Storage.Index.t list ->
  ?dba_candidates:Storage.Index.t list ->
  ?store:Inum.Keyed.store ->
  Catalog.Schema.t ->
  Sqlast.Ast.workload ->
  budget:float ->
  session

val env : session -> Optimizer.Whatif.env
val store : session -> Inum.Keyed.store
val workload : session -> Sqlast.Ast.workload
val cache : session -> Inum.workload_cache
val candidates : session -> Storage.Index.t list
val last_report : session -> Solver.report option

(** Extend the candidate set (duplicates ignored).  Existing multipliers
    are keyed by index identity, so the next re-tune warm-starts. *)
val add_candidates : session -> Storage.Index.t list -> unit

(** Remove candidates; survivors keep their multipliers.  Positions
    shift, so the next rebuild prices every template again. *)
val remove_candidates : session -> Storage.Index.t list -> unit

(** The budget and the constraints are not part of the structured BIP:
    the next {!retune} resolves them against it, so changing them keeps
    {!problem} as it is. *)

val set_budget : session -> float -> unit
val set_constraints : session -> Constr.t list -> unit

(** Append statements: INUM preprocessing runs only for statements whose
    canonical key was never seen — repeats, including statements already
    in the session, are keyed-store hits with zero optimizer probes
    (counted in the [inum.cache_hits] trace counter). *)
val add_statements : session -> Sqlast.Ast.workload -> unit

(** [set_weight s id w] — change the weight of the statement with id
    [id] (a frequency delta).  No INUM work; the next {!retune} rebuilds
    the BIP without pricing any template again (see {!problem}), and
    multipliers survive. *)
val set_weight : session -> int -> float -> unit

(** Drop the statements [drop] selects.  The keyed store keeps their
    template caches, so re-adding them later is free. *)
val remove_statements :
  session -> drop:(Sqlast.Ast.statement -> bool) -> unit

(** The session's structured BIP, rebuilt lazily after deltas.  The
    rebuild goes through the session's pricing memo
    ({!Sproblem.prices}): templates the previous build priced are
    reused, and extended by pricing only the candidates
    {!add_candidates} appended since; new statement shapes and templates
    a {!refine_at} added are priced afresh.  {!remove_candidates} resets
    the memo.  The result is bit-identical to a build without it. *)
val problem : session -> Sproblem.t

(** Re-solve, warm-starting from the previous multipliers and incumbent
    selection (both maintained by the session; caller-supplied [warm] /
    [warm_z] fields are overridden).  The session's constraints are
    classified with {!Constr.split}, and each query-cost cap is priced
    against the baseline ({!Inum.cost}).  [options] defaults to
    {!Solver.default_options}.
    @raise Solver.Infeasible when the constraints cannot hold, or no
      selection meeting them was found (see {!Solver.solve}). *)
val retune : ?options:Solver.options -> session -> Solver.report

(** [refine_at s config] — force the deferred INUM probes whose bound
    interval overlaps the best instantiation under [config] (see
    {!Inum.refine}); returns the number forced.  A nonzero return
    invalidates the structured BIP (template sets changed) while
    multipliers and incumbent survive, so the next {!retune} warm-starts
    against the tightened cost model.  [0] means the session's cost
    model is already exact at [config]. *)
val refine_at : session -> Storage.Config.t -> int

(** [recommend ?options s] — {!retune}, then {!refine_at} the report's
    configuration and {!retune} again until [refine_at] forces nothing
    (at most 8 rounds), all under one [interactive.recommend] trace span.
    The returned report's cost model is exact at its own configuration
    unless the round cap bit; [report.probe_regret] certifies the
    residual model-wide bound either way.  Afterwards {!problem} is the
    BIP the final re-solve ran on (no rebuild).  [options] is passed to
    every {!retune}.
    @raise Solver.Infeasible when the constraints cannot hold. *)
val recommend : ?options:Solver.options -> session -> Solver.report

(** Certified INUM probe regret of the current cost model (weighted sum
    of {!Inum.probe_regret}); zero when probing was unlimited. *)
val probe_regret : session -> float
