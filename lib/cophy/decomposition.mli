(** Structure-aware BIP solver for CoPhy instances: Lagrangian
    decomposition with multipliers on the x-to-z linking rows, per-block
    closed-form subproblems over the compressed workload
    ({!Sproblem.compress}), a knapsack/LP z subproblem, subgradient
    ascent for the lower bound, and rounding + incremental local search
    for incumbents.  Query-cost caps are relaxed the same way, with one
    multiplier per capped block.  A cold start initializes the linking
    multipliers from a one-pass benefit estimate.  Without extra z rows
    the knapsack's
    reduced costs harden z variables against the incumbent (trace
    counter [cg.hardened]) and a binary search over thresholds between
    the bound and the incumbent raises the proven bound; every fixing is
    conditional on the incumbent, which the final [min bound obj] keeps
    sound.  No step solves an integer program.  Streams (elapsed,
    incumbent, bound) events and accepts warm-started multipliers
    (incremental re-tuning, Pareto sweeps). *)

type event = {
  elapsed : float;
  incumbent : float;
  bound : float;
  iteration : int;
}

(** Multipliers keyed by (statement id, candidate index) so they survive
    rebuilding the problem with more candidates or changed constraints. *)
type multipliers = (int * Storage.Index.t, float) Hashtbl.t

type options = {
  max_iters : int;
  time_limit : float;
  gap_tolerance : float;  (** the paper's default CPLEX setting is 0.05 *)
  on_event : event -> unit;
      (** the feedback stream: called before the first iteration, after
          every iteration, and once at the end; [elapsed] fields are
          measured on {!Runtime.Clock} *)
  warm : multipliers option;
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
          incumbents and the returned result are identical at every job
          count: per-block solves are independent and every float
          reduction runs in fixed block order. *)
}

val default_options : options

type result = {
  z : bool array;
  obj : float;           (** exact objective of [z] *)
  bound : float;         (** best Lagrangian lower bound *)
  iterations : int;
  multipliers : multipliers;
}

(** Solve under a storage [budget] (bytes; [infinity] = none), linear
    z rows and per-statement query-cost caps [block_caps] ((statement
    id, cap) pairs: the statement's unweighted block cost,
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
    and every cap.  The returned [bound] is [infinity] when the z
    polytope is infeasible; [obj] is [infinity] when no incumbent
    meeting every constraint was found. *)
val solve :
  ?options:options ->
  ?accept:(bool array -> bool) ->
  Sproblem.t ->
  budget:float ->
  z_rows:Constr.z_row list ->
  block_caps:(int * float) list ->
  result

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
