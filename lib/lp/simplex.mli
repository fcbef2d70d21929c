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
    {!Presolve.solve}, a {!session}, or [~basis:Sparse]); the dense
    kernel is the reference the tests compare it against. *)

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
    [basis] selects the kernel (default [Dense], the reference).  The
    kernel's work is counted only by the process-wide [Runtime.Trace]
    counters [simplex.iterations] / [simplex.pivots] /
    [simplex.refactorizations] / [simplex.etas_pushed] /
    [simplex.solves], which tick when tracing is on. *)
val solve : ?max_iters:int -> ?basis:basis_kind -> Problem.t -> result

(** Basis snapshots: the basis assignment, every nonbasic's rest bound,
    and a frozen, structurally shared reference to the LU + eta factors
    that were valid for that basis.  Saving is a few array copies;
    restoring installs the shared factors with a private solve scratch,
    so snapshots may be restored concurrently on different domains. *)
module Basis : sig
  type t
end

(** A warm-capable solver handle bound to one problem (sparse kernel).
    Sessions never mutate the problem: node-specific variable bounds are
    passed as [(var, lb, ub)] overrides, which is what lets a parallel
    search share one immutable {!Problem.t} across workers. *)
type session

val new_session : Problem.t -> session

(** Cold two-phase primal solve under the problem's bounds plus
    [bounds] overrides, at {!solve}'s default iteration cap.  Leaves the
    optimal basis available to {!save_basis}. *)
val session_solve : ?bounds:(int * float * float) list -> session -> result

(** Snapshot the basis left by the session's last solve ([None] if the
    session has not solved yet). *)
val save_basis : session -> Basis.t option

(** Dual-simplex re-solve from a parent basis after bound changes: the
    parent's basis stays dual feasible, so the dual simplex only has to
    repair primal feasibility — typically a handful of pivots instead of
    a full two-phase solve.  Falls back to a cold {!session_solve} (same
    bound overrides) whenever the snapshot cannot be trusted: missing or
    shape-stale frozen factors, numerical trouble, an iteration-limited
    dual run, or a dual-simplex infeasibility verdict (always re-proved
    cold before a search may prune on it).  Ticks the
    [simplex.warm_resolves] / [simplex.dual_iterations] trace counters. *)
val warm_solve :
  ?bounds:(int * float * float) list ->
  session ->
  Basis.t ->
  result
