(** The Solver component (paper §4.1, Fig. 3): feasibility check, the
    relaxation, dispatch to a BIP solving path, and the continuous
    feedback stream behind early termination. *)

(** Raised when the constraints cannot be satisfied; carries the names
    of the offending constraints (paper: the DBA then removes them or
    explores them as soft trade-offs with {!Pareto}). *)
exception Infeasible of string list

(** The path the caller asks for.  It is honoured only when both paths
    can enforce the constraints; see {!solve}. *)
type solve_method =
  | Auto  (** exact up to 800 BIP variables, else decomposed *)
  | Exact  (** materialized BIP, simplex + branch and bound *)
  | Decomposed  (** Lagrangian decomposition (large instances) *)

type feedback = {
  elapsed : float;
  incumbent : float option;  (** best feasible objective so far *)
  bound : float;  (** proven lower bound *)
}

type options = {
  method_ : solve_method;
  gap_tolerance : float;  (** early-termination gap; the paper uses 0.05 *)
  time_limit : float;
  on_feedback : feedback -> unit;
      (** the one feedback channel, called as each path's search
          progresses; [elapsed] fields are measured on {!Runtime.Clock} *)
  warm : Decomposition.multipliers option;  (** warm start (re-tuning) *)
  warm_z : Storage.Config.t option;
      (** prior incumbent selection: seeds {!Lp.Branch_bound}'s initial
          incumbent (exact path) or the decomposition's first incumbent
          candidate (decomposed path); indexes outside the candidate set
          are ignored *)
  jobs : int;
      (** domains for the decomposition's parallel fan-outs (default [1];
          the result is identical at every job count) *)
  certify : bool;
      (** Debug mode (default [false]).  On the exact path: run
          {!Lp.Analyze.check} on the materialized BIP before solving (any
          [Error] aborts), certify every branch-and-bound incumbent, and
          certify the final solution.  On the decomposed path: certify
          the returned selection against the z polytope (budget + linear
          hard-constraint rows).
          @raise Lp.Analyze.Certification_failed on any failure. *)
}

val default_options : options

type report = {
  z : bool array;
  config : Storage.Config.t;
  objective : float;  (** INUM-estimated workload cost of [config] *)
  bound : float;
  gap : float;
  multipliers : Decomposition.multipliers option;
  probe_regret : float;
      (** certified INUM probe regret carried from {!Sproblem.t}:
          [objective] and [bound] describe the cost surface of the
          (possibly budget-limited) INUM caches; the exhaustive-probing
          objective of [config] lies in
          [[objective - probe_regret, objective]].  Zero when probing
          was unlimited or fully refined. *)
}

(** Solve the tuning BIP, the one place a constraint is mapped to a
    path.  [block_caps] are per-statement cost caps (query-cost
    constraints, as (statement id, cap) pairs): only the exact path
    encodes them, as cost rows, so they take it whatever
    [options.method_] asks.  [accept] is the black-box (UDF) gate of
    appendix E.5: only the decomposition's incumbent gate enforces it,
    so it takes the decomposed path.  Without either, [options.method_]
    chooses.  Without [warm_z] the exact path seeds branch and bound with
    the empty selection when it is feasible, so a search stopped by
    [time_limit] still returns a selection with its gap.
    @raise Infeasible when constraints cannot hold.
    @raise Invalid_argument when [block_caps] and [accept] are both
      given: no path enforces both. *)
val solve :
  ?options:options ->
  ?block_caps:(int * float) list ->
  ?accept:(bool array -> bool) ->
  Sproblem.t ->
  budget:float ->
  z_rows:Constr.z_row list ->
  report
