(** BIP/LP presolve: shrink a {!Problem.t} before it reaches the simplex
    and map solutions back to the original variable space.

    Rules applied to a fixpoint (bounded rounds):

    - integral bound rounding on binary/integer variables;
    - singleton-row elimination (the row becomes a bound, then drops as
      redundant);
    - implied-bound tightening from row activity bounds, with integral
      rounding on binary/integer variables — the rule that fixes binary
      selection variables whose activation alone would overrun a budget
      row;
    - empty-row consistency checks and removal;
    - duplicate-row merging (rows identical after sign/scale
      normalization keep only the tightest right-hand side);
    - row coefficient scaling (equilibration) when a row's magnitude is
      far from 1 — the storage-budget rows of CoPhy BIPs carry
      byte-scale coefficients that would otherwise dominate the
      factorization's threshold pivoting.

    Presolve never mutates its input.  The reduction preserves the set
    of integer-feasible solutions (not necessarily the LP relaxation's
    optimum), which is what branch-and-bound needs. *)

type mapping = {
  reduced : Problem.t;
  entries : entry array;  (** original variable -> fate *)
  row_keep : int array;  (** reduced row -> original row *)
  row_scale : float array;  (** per reduced row: original = reduced * s *)
  orig : Problem.t;
}

and entry = Kept of int | Fixed of float

type outcome =
  | Feasible of mapping
  | Proved_infeasible of string  (** human-readable reason *)

val run : Problem.t -> outcome
(** Reductions tick the [Runtime.Trace] counters [presolve.rows_removed],
    [presolve.vars_removed] (variables fixed and substituted out) and
    [presolve.bounds_tightened] when tracing is on; a proof of
    infeasibility ticks [presolve.infeasible], so a trace shows that the
    LP ran even when presolve alone decided it. *)

(** Lift a reduced-space solution back to the original variables. *)
val restore_x : mapping -> float array -> float array

(** Lift reduced-space duals back to original rows (dropped rows get 0;
    scaled rows are unscaled).

    Caveat: duals are only guaranteed valid for rows that survive
    presolve.  A removed row — one absorbed into variable bounds or
    dropped as redundant-at-tolerance — can in degenerate cases be
    binding with a nonzero dual, which this restoration reports as 0.
    Callers needing exact duals for every row should solve with presolve
    disabled. *)
val restore_duals : mapping -> float array -> float array

(** The production LP path: presolve [p], solve the
    reduced problem with the sparse simplex kernel, and lift the
    solution, objective, and duals back to [p]'s variable/row space.
    Never mutates [p].

    Binary/integer reductions preserve integer-feasible solutions; the
    reported objective can exceed the pure LP-relaxation optimum (it is
    still a valid bound for the BIP).  A problem presolve proves
    infeasible comes back [Infeasible] with zero vectors.  Non-[Optimal]
    statuses carry the kernel's last iterate lifted back to [p]'s space,
    with the objective recomputed from it — an [Iter_limit] iterate is a
    genuine partial solution, not a certificate.  Duals of rows removed
    by presolve are reported as 0, which in degenerate cases is not a
    valid dual (see {!restore_duals}); call {!Simplex.solve} directly
    when exact duals are required. *)
val solve : ?max_iters:int -> Problem.t -> Simplex.result
