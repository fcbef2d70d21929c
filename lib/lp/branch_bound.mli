(** Branch and bound over the simplex relaxation, run as a cold,
    best-first, parallel node-pool search.

    A node is a list of bound tightenings passed to {!Simplex.solve} as
    overrides — the input problem is never mutated, so one immutable
    problem is shared by all worker domains — and every node LP is a
    stateless two-phase sparse solve.  The node order is best-bound
    (deeper nodes first on equal bounds) and the branching rule
    most-fractional; a round pops 8 nodes, and the search stops with
    [Limit] after 200,000.  It runs in deterministic bulk-synchronous
    rounds: each pops the best nodes, evaluates their LPs with
    {!Runtime.parallel_map} and merges them in pop order, so the
    trajectory, incumbent, bound, and node counts are bit-identical at
    every [jobs] value.  It solves the
    ILP baseline ({!Advisors.Ilp}), integer models in [lp_solve], and
    reference optima in tests.

    Nodes re-solve cold on purpose: on the ILP baseline's Fig. 5/10
    instances a dual-simplex warm start from the parent's basis cost a
    node more than it saved, and root cover cuts did not shrink the
    tree (DESIGN.md, section 13). *)

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
}

val default_options : options
(** jobs 1, no time limit, gap 1e-6. *)

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
}

val solve : ?options:options -> Problem.t -> result
