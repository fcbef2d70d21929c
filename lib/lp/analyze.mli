(** cophy-lint, layer 2: static analysis of {!Problem.t} models and a
    post-solve solution certifier.

    {!check} runs before a solve and flags malformed or numerically
    hazardous models (dangling variables, empty/duplicate/conflicting
    rows, bound conflicts, NaN data, coefficient dynamic range).
    {!certify} runs after a solve and validates an incumbent against the
    rows, bounds, and integrality marks within a tolerance and, when row
    duals are supplied, checks the LP optimality conditions on them — the
    cheap verification layer that what-if tuning pipelines need before
    trusting the optimizer's answer, and the tests' reference for
    {!Simplex.solve}. *)

(** {1 Pre-solve model checks} *)

type severity =
  | Error  (** the model is malformed; solving it proves nothing *)
  | Warning  (** numerically hazardous or probably unintended *)
  | Info  (** redundancy / bloat diagnostics *)

type issue = {
  severity : severity;
  code : string;
      (** stable machine-readable tag, e.g. ["bound-conflict"],
          ["empty-row-infeasible"], ["duplicate-eq-conflict"],
          ["dangling-unbounded"], ["scaling"] *)
  where : string;  (** row/variable name, or [""] for model-wide issues *)
  message : string;
}

val check : Problem.t -> issue list
(** Issues in deterministic order (rows in id order, then variables in id
    order, then model-wide diagnostics). *)

val has_errors : issue list -> bool
val errors : issue list -> issue list
val pp_issue : issue Fmt.t

(** {1 Post-solve certification} *)

type certificate = {
  cert_ok : bool;
      (** primal residuals, bound violations, integrality violations,
          the objective gap and (when [duals] are given) the dual
          residual are all within tolerance *)
  max_row_violation : float;
      (** max over rows of the constraint violation, scaled by
          [1 + |rhs|] *)
  max_bound_violation : float;
  max_integrality_violation : float;
      (** max over certified integer variables of [|x - round x|] *)
  objective_gap : float;
      (** [|objective_value x - reported|], relative, when [obj] given *)
  max_dual_residual : float;
      (** worst breach of the LP optimality conditions when [duals] are
          given ([0.] otherwise): a row dual of the wrong sign for its
          sense, a nonzero dual on a row with slack, or a reduced cost of
          the wrong sign at a bound or nonzero strictly between bounds *)
  cert_issues : string list;  (** human-readable description of failures *)
}

val certify :
  ?duals:float array ->
  ?obj:float ->
  ?int_vars:int list ->
  Problem.t ->
  float array ->
  certificate
(** [certify p x] validates assignment [x] against [p].

    Every test runs at the tolerance [1e-6].  [obj] is the solver's
    reported objective {e including} the problem's objective offset;
    when given, the certificate checks it against [c'x + offset].
    [int_vars] restricts the integrality check to a subset (default: all
    integer/binary variables of [p]) — branch-and-bound's restricted
    mode certifies only the decision variables it branched on.
    [duals] (one per row, as {!Simplex.solve} returns them) adds the
    LP optimality conditions for a minimization, with reduced costs
    [d = c - A'y]: a [<=] row has [y <= 0] and a [>=] row [y >= 0]; a
    row with slack has [y = 0]; a variable at its lower bound has
    [d >= 0], at its upper bound [d <= 0], and strictly between its
    bounds [d = 0].  Each residual is scaled by [1 + |c|] of its column
    (a row's slack has cost 0); a residual above the tolerance fails
    the certificate.  Together with primal feasibility these conditions
    prove [x] optimal for the LP relaxation. *)

exception Certification_failed of string
(** Raised by debug-mode wirings ({!Branch_bound} incumbent acceptance,
    [lp_solve --check]) when a certificate comes back [cert_ok = false]. *)

val certificate_summary : certificate -> string
(** One-line residual summary, e.g. for bench JSON. *)
