(** The Solver component (paper §4.1, Fig. 3): feasibility check, the
    Lagrangian decomposition ({!Decomposition}) as the one solving path,
    and the continuous feedback stream behind early termination. *)

(** Raised when the constraints cannot be satisfied; carries the names
    of the offending constraints (paper: the DBA then removes them or
    explores them as soft trade-offs with {!Pareto}). *)
exception Infeasible of string list

type feedback = {
  elapsed : float;
  incumbent : float;
      (** best feasible objective so far; [infinity] before the first *)
  bound : float;  (** proven lower bound *)
}

type options = {
  gap_tolerance : float;  (** early-termination gap; the paper uses 0.05 *)
  time_limit : float;
  on_feedback : feedback -> unit;
      (** the one feedback channel, called as the search progresses;
          [elapsed] fields are measured on {!Runtime.Clock} *)
  warm : Decomposition.multipliers option;  (** warm start (re-tuning) *)
  warm_z : Storage.Config.t option;
      (** prior incumbent selection: the decomposition's first incumbent
          candidate; indexes outside the candidate set are ignored *)
  jobs : int;
      (** domains for the decomposition's parallel fan-outs (default [1];
          the result is identical at every job count) *)
  certify : bool;
      (** Debug mode (default [false]): certify the returned selection
          against the z polytope (budget + linear hard-constraint rows)
          and every query-cost cap.
          @raise Lp.Analyze.Certification_failed on any failure. *)
}

val default_options : options

type report = {
  z : bool array;
  config : Storage.Config.t;
  objective : float;  (** INUM-estimated workload cost of [config] *)
  bound : float;
  gap : float;
  multipliers : Decomposition.multipliers;  (** for warm re-solves *)
  probe_regret : float;
      (** certified INUM probe regret carried from {!Sproblem.t}:
          [objective] and [bound] describe the cost surface of the
          (possibly budget-limited) INUM caches; the exhaustive-probing
          objective of [config] lies in
          [[objective - probe_regret, objective]].  Zero when probing
          was unlimited or fully refined. *)
}

(** Solve the tuning BIP with {!Decomposition.solve}.  [block_caps] are
    per-statement cost caps (query-cost constraints, as (statement id,
    cap) pairs); [accept] is the black-box (UDF) gate of appendix E.5.
    Every constraint is enforced on the one path, so any combination is
    accepted.  The feasibility check first raises [Infeasible] naming
    each z row that cannot hold, or each cap that fails even with every
    candidate selected as [cost_cap_<qid>].  When the search then finds
    no selection meeting every constraint it raises [Infeasible] with a
    message that says so: not found, which is not a proof that none
    exists.  A search stopped by [time_limit] returns its best incumbent
    with its gap.
    @raise Infeasible when constraints cannot hold, or no selection
      meeting them was found. *)
val solve :
  ?options:options ->
  ?accept:(bool array -> bool) ->
  Sproblem.t ->
  budget:float ->
  z_rows:Constr.z_row list ->
  block_caps:(int * float) list ->
  report
