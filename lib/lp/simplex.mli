(** Bounded-variable primal simplex (revised form) over a sparse LU
    basis: the one LP path of the repository.

    Two phases: artificial variables establish feasibility, then the real
    objective is minimized.  Nonbasic variables rest at a bound; the
    ratio test includes bound-to-bound flips.  Dantzig pricing with a
    Bland's-rule fallback after stalling guards against cycling.

    The basis inverse is kept as a sparse LU factorization ({!Lu})
    maintained by product-form eta updates and periodic
    refactorization, so a pivot costs in proportion to the factor
    nonzeros.  There is no second kernel to compare against: an
    [Optimal] result's duals are straight from the final basis, and
    {!Analyze.certify} [~duals] checks the full LP optimality conditions
    on them (primal feasibility, dual signs, reduced-cost signs and
    complementary slackness).

    A solve is stateless: it builds its kernel state from the problem,
    runs both phases from the all-artificial basis and returns.  Nothing
    is carried from one solve to the next, so concurrent solves of one
    shared problem need no coordination; branch and bound re-solves
    every node this way. *)

type status = Optimal | Infeasible | Unbounded | Iter_limit

type result = {
  status : status;
  x : float array;  (** structural variable values *)
  obj : float;  (** c'x, without the problem's objective offset *)
  duals : float array;  (** one per row *)
  iterations : int;
}

(** Solve the LP relaxation (integrality marks are ignored).
    [max_iters = 0] picks a default proportional to the problem size;
    on reaching the limit the result has status [Iter_limit] and carries
    the last iterate, with [obj = c'x] of that iterate.
    [bounds] are [(var, lb, ub)] overrides of the problem's variable
    bounds (later entries win); the problem itself is never mutated,
    which is what lets a parallel search share one immutable
    {!Problem.t} across workers.  The kernel's work is counted only by
    the process-wide [Runtime.Trace] counters [simplex.iterations] /
    [simplex.pivots] / [simplex.refactorizations] /
    [simplex.etas_pushed] / [simplex.solves], which tick when tracing is
    on. *)
val solve :
  ?max_iters:int ->
  ?bounds:(int * float * float) list ->
  Problem.t ->
  result
