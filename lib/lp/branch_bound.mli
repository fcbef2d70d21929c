(** Branch and bound over the simplex relaxation, run as a warm-started,
    cut-generating, parallel best-first node-pool search.

    Nodes are bound tightenings passed to per-slot {!Simplex.session}s
    as overrides — the input problem's variable bounds are never
    mutated, so one immutable problem is shared by all worker domains.
    (Root cover cuts, when enabled, are installed as extra rows of a
    private copy; the caller's problem is never changed, so solving it
    again — cuts off, or at another [jobs] — starts from the same
    model.)  Node
    re-solves restore the parent's basis snapshot and repair primal
    feasibility with the dual simplex; cover cuts from the
    storage-budget knapsack rows tighten the root.  The search runs in
    deterministic bulk-synchronous rounds over {!Runtime.Search}: the
    trajectory, incumbent, bound, and node counts are bit-identical at
    every [jobs] value.  A continuous (time, incumbent, bound) feedback
    stream supports CoPhy's early termination. *)

type event = {
  elapsed : float;  (** seconds since solve start, on {!Runtime.Clock} *)
  incumbent : float option;  (** best integer objective so far *)
  bound : float;  (** proven lower bound *)
  nodes : int;
}

(** Pluggable search strategy. *)
module Search : sig
  type node_order =
    | Best_bound  (** lowest parent LP bound first (proves bounds fast;
                      the proven bound advances every round) *)
    | Depth_first  (** deepest, most recent first (finds incumbents
                       fast; the proven bound stays at the root's until
                       the pool empties) *)

  type branching =
    | Most_fractional  (** max distance to the nearest integer *)
    | Cost_weighted  (** fractionality scaled by [1 + |objective coeff|] *)

  type t = {
    node_order : node_order;
    branching : branching;
    batch : int;  (** nodes popped per bulk-synchronous round *)
  }

  val default : t
  (** Best-bound order, most-fractional branching, batch 8. *)
end

type options = {
  gap_tolerance : float;  (** stop when (inc - bound)/|inc| <= this *)
  time_limit : float;
  node_limit : int;
  on_event : event -> unit;
  initial_incumbent : float array option;  (** warm start *)
  log_events : bool;
  decision_vars : int list option;
      (** Branch only on these variables, and accept an LP solution as an
          incumbent once they are integral.  Sound when fixing them makes
          the remaining LP have an integral optimum of equal objective —
          the structure of the CoPhy and ILP BIPs. *)
  certify_incumbents : bool;
      (** Debug mode: run {!Analyze.certify} on every candidate incumbent
          (rows, bounds, integrality of the branched variables, objective
          recomputation) before accepting it.
          @raise Analyze.Certification_failed on a bad incumbent. *)
  jobs : int;  (** concurrent node evaluations per round *)
  cuts : bool;  (** separate lifted cover cuts at the root *)
  warm_start : bool;  (** dual-simplex re-solves from parent bases *)
  search : Search.t;
}

val default_options : options
(** jobs 1, cuts and warm starts on, {!Search.default} strategy. *)

type status =
  | Optimal
      (** the incumbent is within [gap_tolerance] of the proven bound —
          whether the gap test stopped the search or the pool ran empty
          (the bound then equals the incumbent) *)
  | Infeasible
  | Unbounded
  | Limit  (** time or node limit; [x] holds the incumbent, if any *)

type result = {
  status : status;
  x : float array option;  (** best integer solution found *)
  obj : float;  (** objective of [x], including the problem offset *)
  bound : float;  (** proven lower bound, including the offset *)
  nodes : int;
  cuts_added : int;  (** cover cuts installed at the root *)
  warm_resolves : int;  (** node LPs re-solved from a parent basis *)
  cuts_uncertified : int;
      (** added cuts violated by the final incumbent — always 0 unless a
          separation bug produced an invalid cut *)
  events : event list;  (** reverse chronological when [log_events] *)
}

val solve : ?options:options -> Problem.t -> result
