(** cophy-lint, layer 2: static analysis of {!Problem.t} models and a
    post-solve solution certifier.

    {!check} runs before a solve and flags malformed or numerically
    hazardous models (dangling variables, empty/duplicate/conflicting
    rows, bound conflicts, NaN data, coefficient dynamic range).
    {!certify} runs after a solve and validates an incumbent against the
    rows, bounds, and integrality marks within a tolerance, reporting
    primal (and, when duals are supplied, dual) residuals — the cheap
    verification layer that what-if tuning pipelines need before trusting
    the optimizer's answer. *)

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
      (** primal residuals, bound violations, integrality violations and
          the objective gap are all within tolerance *)
  max_row_violation : float;
      (** max over rows of the constraint violation, scaled by
          [1 + |rhs|] *)
  max_bound_violation : float;
  max_integrality_violation : float;
      (** max over certified integer variables of [|x - round x|] *)
  objective_gap : float;
      (** [|objective_value x - reported|], relative, when [obj] given *)
  max_dual_residual : float;
      (** max reduced-cost magnitude over variables strictly inside their
          bounds when [duals] are given ([0.] otherwise) — reported, not
          gating: duals of presolve-removed rows can be slack
          (see {!Presolve.solve}) *)
  cert_issues : string list;  (** human-readable description of failures *)
}

val certify :
  ?presolve:bool ->
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
    [duals] (one per row) adds the dual-residual check.

    [presolve] (default [true]) states how the incumbent was produced.
    With presolve on, the dual-residual check is report-only: duals of
    presolve-removed rows are reconstructed as zero and can be slack
    (the documented caveat in {!Presolve.solve}).  Pass [~presolve:false]
    when the solve ran on the full model — the caveat doesn't apply, and
    a dual residual above the tolerance then fails the certificate. *)

exception Certification_failed of string
(** Raised by debug-mode wirings ({!Branch_bound} incumbent acceptance,
    [lp_solve --check]) when a certificate comes back [cert_ok = false]. *)

val certificate_summary : certificate -> string
(** One-line residual summary, e.g. for bench JSON. *)
