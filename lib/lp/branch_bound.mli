(** Branch and bound over the simplex relaxation, run as a warm-started,
    cut-generating, parallel best-first node-pool search.

    Nodes are bound tightenings passed to per-slot {!Simplex.session}s
    as overrides — the input problem's variable bounds are never
    mutated, so one immutable problem is shared by all worker domains.
    (Root cover cuts, when enabled, are installed as extra rows of a
    private copy; the caller's problem is never changed, so solving it
    again — cuts off, or at another [jobs] — starts from the same
    model.)  Node
    re-solves restore the parent's basis snapshot and repair primal
    feasibility with the dual simplex; cover cuts from the
    storage-budget knapsack rows tighten the root.  The node order is
    best-bound (deeper nodes first on equal bounds) and the branching
    rule most-fractional; a round pops 8 nodes, and the search stops
    with [Limit] after 200,000.  It runs in
    deterministic bulk-synchronous rounds over {!Runtime.Search}: the
    trajectory, incumbent, bound, and node counts are bit-identical at
    every [jobs] value.  It solves the ILP baseline ({!Advisors.Ilp}),
    integer models in [lp_solve], and reference optima in tests. *)

type options = {
  gap_tolerance : float;  (** stop when (inc - bound)/|inc| <= this *)
  time_limit : float;
  decision_vars : int list option;
      (** Branch only on these variables, and accept an LP solution as an
          incumbent once they are integral.  Sound when fixing them makes
          the remaining LP have an integral optimum of equal objective —
          the structure of the CoPhy and ILP BIPs. *)
  certify_incumbents : bool;
      (** Debug mode: run {!Analyze.certify} on every candidate incumbent
          (rows, bounds, integrality of the branched variables, objective
          recomputation) before accepting it.
          @raise Analyze.Certification_failed on a bad incumbent. *)
  jobs : int;  (** concurrent node evaluations per round *)
  cuts : bool;  (** separate lifted cover cuts at the root *)
  warm_start : bool;  (** dual-simplex re-solves from parent bases *)
}

val default_options : options
(** jobs 1, cuts and warm starts on, no time limit, gap 1e-6. *)

type status =
  | Optimal
      (** the incumbent is within [gap_tolerance] of the proven bound —
          whether the gap test stopped the search or the pool ran empty
          (the bound then equals the incumbent) *)
  | Infeasible
  | Unbounded
  | Limit
      (** time limit or the 200,000-node budget; [x] holds the incumbent,
          if any *)

type result = {
  status : status;
  x : float array option;  (** best integer solution found *)
  obj : float;  (** objective of [x], including the problem offset *)
  bound : float;  (** proven lower bound, including the offset *)
  nodes : int;
  cuts_added : int;  (** cover cuts installed at the root *)
  cuts_uncertified : int;
      (** added cuts violated by the final incumbent — always 0 unless a
          separation bug produced an invalid cut *)
}

val solve : ?options:options -> Problem.t -> result
