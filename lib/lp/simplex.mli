(** Bounded-variable primal simplex (revised form) over a pluggable
    basis representation.

    Two phases: artificial variables establish feasibility, then the real
    objective is minimized.  Nonbasic variables rest at a bound; the
    ratio test includes bound-to-bound flips.  Dantzig pricing with a
    Bland's-rule fallback after stalling guards against cycling.

    The basis inverse is kept either as an explicit dense matrix
    ({!Dense}, the historical reference kernel, O(m^2) per pivot) or as
    a sparse LU factorization maintained by product-form eta updates and
    periodic refactorization ({!Sparse}, cost proportional to factor
    nonzeros).  Both kernels run the identical pricing loop and agree on
    the optimum value (degenerate ties can land on different optimal
    vertices).  Every production LP runs the sparse kernel (through
    {!Presolve.solve} or [~basis:Sparse]); the dense kernel is the
    reference the tests compare it against.

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

type basis_kind =
  | Dense  (** explicit dense B^-1, elementary row updates *)
  | Sparse  (** Markowitz LU + eta file + refactorization trigger *)

(** Solve the LP relaxation (integrality marks are ignored).
    [max_iters = 0] picks a default proportional to the problem size.
    [basis] selects the kernel (default [Dense], the reference).
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
  ?basis:basis_kind ->
  ?bounds:(int * float * float) list ->
  Problem.t ->
  result
