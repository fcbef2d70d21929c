(** The Solver component (paper §4.1, Fig. 3): feasibility check, the
    Lagrangian decomposition as the one solving path, and the continuous
    feedback stream behind early termination.

    The decomposition puts multipliers on the x-to-z linking rows: per-
    block closed-form subproblems over the compressed workload
    ({!Sproblem.compress}), a knapsack/LP z subproblem, subgradient
    ascent for the lower bound, and rounding + incremental local search
    for incumbents.  Query-cost caps are relaxed the same way, with one
    multiplier per capped block.  A cold start initializes the linking
    multipliers from a one-pass benefit estimate.  Without extra z rows
    the knapsack's reduced costs harden z variables against the
    incumbent (trace counter [cg.hardened]); every fixing is conditional
    on the incumbent, which the final [min bound obj] keeps sound.  No
    step solves an integer program. *)

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

(** Multipliers keyed by (statement id, candidate index) so they survive
    rebuilding the problem with more candidates or changed constraints. *)
type multipliers = (int * Storage.Index.t, float) Hashtbl.t

type options = {
  max_iters : int;  (** subgradient iterations at most (default 400) *)
  gap_tolerance : float;  (** early-termination gap; the paper uses 0.05 *)
  time_limit : float;
  on_feedback : feedback -> unit;
      (** the one feedback channel: called before the first iteration,
          after every iteration, and once at the end; [elapsed] fields
          are measured on {!Runtime.Clock} *)
  warm : multipliers option;  (** warm start (re-tuning) *)
  warm_z : Storage.Config.t option;
      (** prior incumbent selection, by index so it survives candidate-set
          changes between re-solves (indexes outside the candidate set
          are dropped); it passes the same incumbent gate as the greedy
          initial (repair to the z rows, trimming to [accept]) before
          it, so a warm restart is never worse than the repaired prior
          incumbent.  Trace counters [solver.warm_repaired] and
          [solver.warm_rejected] tick when it needed repair or was
          unusable. *)
  jobs : int;
      (** domains for the per-block subproblem fan-out and block-cost
          re-evaluations (default [1]).  The subgradient trajectory, the
          incumbents and the returned report are identical at every job
          count: per-block solves are independent and every float
          reduction runs in fixed block order. *)
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
  bound : float;  (** best Lagrangian lower bound *)
  gap : float;
  iterations : int;
  multipliers : multipliers;  (** for warm re-solves *)
  probe_regret : float;
      (** certified INUM probe regret carried from {!Sproblem.t}:
          [objective] and [bound] describe the cost surface of the
          (possibly budget-limited) INUM caches; the exhaustive-probing
          objective of [config] lies in
          [[objective - probe_regret, objective]].  Zero when probing
          was unlimited or fully refined. *)
}

(** Solve the tuning BIP under a storage [budget] (bytes; [infinity] =
    none), linear z rows and per-statement query-cost caps [block_caps]
    ((statement id, cap) pairs: the statement's unweighted block cost,
    {!Sproblem.block_cost_z}, must not exceed the cap).  Each capped
    block gets a multiplier on its cost row: its subproblem runs at
    weight [weight + mu / cap] and the bound subtracts [mu], still a
    valid Lagrangian bound.  The cap multipliers start at zero on every
    solve; only the linking-row multipliers are returned for warm
    starts.  A block merged by {!Sproblem.compress} keeps the smallest
    cap of its members.  [accept] is the black-box (UDF) gate of
    appendix E.5: incumbents failing it are rejected (the bound side
    legitimately ignores it — dropping constraints only lowers the
    minimum).  Every incumbent, the empty selection included, satisfies
    the budget, every z row (a mandatory index is never repaired away)
    and every cap.

    The feasibility check first raises [Infeasible] naming [storage]
    when the budget alone cannot hold, each z row that cannot hold
    alone, or each cap that fails even with every candidate selected as
    [cost_cap_<qid>].  When the search then finds no selection meeting
    every constraint it raises [Infeasible] with a message that says
    so: not found, which is not a proof that none exists.  A search
    stopped by [time_limit] or [max_iters] returns its best incumbent
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

(** {1 Kernels}

    Two of the solver's kernels, each bit-identical to the simpler
    computation it replaces; exposed for the properties that pin it. *)

(** [repair_eval ~jobs sp ~budget ~z_rows ~mandatory z] — [z] with
    selected candidates dropped (the smallest cost increase per byte
    freed first, never a [mandatory] one) until it meets the budget and
    the z rows, and {!Sproblem.eval} of the result.  A block that keeps
    every pick of its first least assignment under [z] keeps its cost,
    so only the blocks that lose one are re-costed. *)
val repair_eval :
  jobs:int ->
  Sproblem.t ->
  budget:float ->
  z_rows:Constr.z_row list ->
  mandatory:bool array ->
  bool array ->
  bool array * float

(** [singleton_savings ~jobs sp].(a).(j): the weighted cost block
    [sp.cand_blocks.(a).(j)] saves when [a] is the only index selected,
    [weight *. (block_cost_z b empty -. block_cost_z b {a})], computed
    in one pass per block. *)
val singleton_savings : jobs:int -> Sproblem.t -> float array array
