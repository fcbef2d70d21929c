(** INUM — the fast what-if layer (Papadomanolakis, Dash & Ailamaki, VLDB
    2007) rebuilt over this repository's optimizer, with Wii-style lazy
    probing (Wii: skip what-if calls whose outcome is boundable without
    the optimizer).

    A per-query cache of {e template plans}: physical plans whose
    base-table accesses are abstract slots.  A template carries its
    internal-operator cost [beta]; the cost of filling a slot with a
    concrete index is [gamma] (infinite when the index cannot satisfy the
    slot's requirement).  [cost q X = min over templates and atomic
    configurations of beta + sum gamma] — the linearly composable form of
    the paper's Definition 1, which is what turns index tuning into a
    compact BIP (Theorem 1).

    Probing is bound-driven: spec combinations are partially ordered by
    requirement strength, probed neighbors bound unprobed betas from both
    sides, and a combination is probed only while its bound interval
    could still change which template wins.  Combinations certified
    dominated or infeasible are skipped with zero regret; an optional
    probe budget defers the rest, leaving a certified per-query regret
    bound, and deferred probes are forced lazily when (and only when)
    {!cost} / {!best_instantiation} consult a configuration whose best
    instantiation their interval overlaps. *)

type template = {
  beta : float;  (** internal plan cost (joins, sorts, aggregation) *)
  slot_reqs : Optimizer.Plan.slot_req array;
      (** per referenced table, aligned with [tables] *)
  plan : Optimizer.Plan.t;  (** the template plan, with [Slot] leaves *)
}

type t
(** The INUM cache of one query; mutable behind the scenes (deferred
    probes resolve in place). *)

(** Build the cache with the lazy bound-driven probe loop.  Without
    [probe_budget] every combination is probed or certified: the kept
    template set is provably identical to {!build_eager}'s and the
    residual regret is zero.  With [probe_budget] (clamped to >= 1) at
    most that many optimizer probes are spent up front; the rest stay
    deferred with a certified regret bound ({!probe_regret}) and resolve
    lazily on demand.  The query's template DP is prepared once per
    cache ({!Optimizer.Whatif.prepare}); the build's probes share one
    sub-mask memo, dropped when the build returns.  Each probe updates
    the bounds of the combinations it relates to ({!combinations}). *)
val build : ?probe_budget:int -> Optimizer.Whatif.env -> Sqlast.Ast.query -> t

(** Probe every spec combination eagerly, as the original INUM does — the
    reference implementation the lazy build is tested bit-identical
    against. *)
val build_eager : Optimizer.Whatif.env -> Sqlast.Ast.query -> t

(** The cache's identity: unique among the caches of this process, so
    [id a = id b] exactly when [a == b].  Callers that group statements
    by cache key on it instead of on the statement's serialization.
    {!add_statements} numbers the caches it builds in statement order
    before fanning the builds out, so the numbering does not depend on
    [jobs]. *)
val id : t -> int

val query : t -> Sqlast.Ast.query
val templates : t -> template list
val template_count : t -> int

(** Structural slot-requirement equality with explicit float semantics
    ({!Runtime.Fx.exactly} on [Nlj_inner] outer rows) — use this instead
    of polymorphic [=], which compares the embedded floats bit-blindly
    (NaN [<>] NaN, [-0. = 0.]). *)
val req_equal : Optimizer.Plan.slot_req -> Optimizer.Plan.slot_req -> bool

(** Tables referenced by the query, in slot order. *)
val tables : t -> string list

(** Optimizer calls spent on this cache so far — build-time probes plus
    any deferred probes forced later. *)
val init_calls : t -> int

(** Spec combinations dropped by the per-query enumeration cap (at most
    [max_combinations = 160] combinations over at most 3 simultaneously
    constrained tables are considered; enumeration visits
    less-constrained combinations first, so the cap sheds the most
    exotic templates).  Nonzero means the template set — eager or lazy —
    is built over a truncated combination space; the count is also
    accumulated in the [inum.combos_truncated] trace counter and
    surfaced by [cophy_serve] stats, so the cap is a modeling choice,
    never a silent one. *)
val combos_truncated : t -> int

(** Deferred probes still outstanding (zero after an unlimited-budget
    build, or once {!refine} converges everywhere consulted). *)
val pending_probes : t -> int

(** A spec combination's probe state. *)
type probe_state =
  | Probed of template option  (** [None]: the specs admit no plan *)
  | Skipped_dominated  (** certified: its template would be dominated *)
  | Skipped_infeasible  (** certified: a stronger combination has no plan *)
  | Pending  (** deferred by the probe budget *)

(** One spec combination as the probe loop sees it: its spec per table
    (in {!tables} order), its state, and its bounds from the probes so
    far — [lb], {!cost_floor} raised by every probed template above it
    in the beta order, and [ub], the cheapest probed template below it
    in the gamma order ([infinity] when none).  The loop keeps [lb] and
    [ub] one probe at a time; they equal the folds over the probed
    neighbors, ties to the lowest combination index. *)
type combination = {
  specs : Optimizer.Whatif.slot_spec array;
  state : probe_state;
  lb : float;
  ub : float;
}

(** The combinations in enumeration (eager probe) order, as of now.
    Meaningful after a lazy {!build}; an eager build keeps no bounds. *)
val combinations : t -> combination array

(** The combination-independent beta floor
    ({!Optimizer.Whatif.template_cost_floor}) the lower bounds start
    from. *)
val cost_floor : t -> float

(** Certified regret bound: the cost surface computed from the kept
    templates sits above the exhaustive INUM surface by at most this
    much, at any configuration.  Zero when nothing is pending. *)
val probe_regret : t -> float

(** [refine t ~config] — force deferred probes whose bound interval
    overlaps the best instantiation under [config], until none does;
    returns the number of probes forced.  Afterwards [cost t config] is
    exact (equal to the exhaustive build's) at this configuration.
    Idempotent; serialized internally.  Within one call every fill cost
    is computed once per (slot, requirement), from one access context
    and one access per index of [config] on the slot's table, made
    once per call and table; every kept template's total and pending
    combination's optimistic fills once per combination: the
    configuration is fixed, so each is a pure function of its key.  The
    probes it forces share one sub-mask memo ({!Optimizer.Whatif.dp}),
    dropped when the call returns. *)
val refine : t -> config:Storage.Config.t -> int

(** [gamma t k ~table index] — the cost of instantiating [table]'s slot in
    template [k] with [index] ([None] = no index).  [None] result encodes
    an infinite coefficient (incompatible requirement).
    @raise Invalid_argument naming the table and query when [table] is
    not referenced by the query. *)
val gamma : t -> int -> table:string -> Storage.Index.t option -> float option

(** INUM's approximation of [cost (q, X)].  Forces overlapping deferred
    probes first ({!refine}), so the result equals the exhaustive
    build's cost at every configuration actually consulted. *)
val cost : t -> Storage.Config.t -> float

(** [(surrogate, regret)] without forcing any deferred probe: the
    exhaustive cost lies in [[surrogate - regret, surrogate]]. *)
val cost_bound : t -> Storage.Config.t -> float * float

(** The (cost, template index, per-table index picks) the minimum is
    attained at — for explain output.  Forces overlapping deferred
    probes first, like {!cost}. *)
val best_instantiation :
  t -> Storage.Config.t -> float * int * Storage.Index.t option array

(** Persistent keyed template store: canonical statement key
    ({!Sqlast.Canon.key}) -> statement cache.  A repeat query — any
    statement whose canonical form was seen before — costs zero optimizer
    probes.  Builds run on the canonical form, so a hit returns a cache
    bit-identical to a fresh {!build} of the normalized query.  Entries
    are the live caches themselves: a hit after a partial (budgeted)
    build returns the same entry with every probe forced so far already
    resolved — a hit can never resurrect stale bounds.  The store never
    drops an entry.  Hits and misses are mirrored into the
    [inum.cache_*] trace counters. *)
module Keyed : sig
  type store

  (** [create ?probe_budget env] — a fresh, empty store.  [probe_budget]
      is passed to every {!build} the store performs.
      @raise Invalid_argument when [probe_budget < 1]. *)
  val create : ?probe_budget:int -> Optimizer.Whatif.env -> store

  val env : store -> Optimizer.Whatif.env

  val probe_budget : store -> int option
  (** the per-query budget this store builds with ([None] = unlimited) *)

  val length : store -> int

  val hits : store -> int
  (** statements resolved without an optimizer probe *)

  val misses : store -> int
  (** statements that required a fresh {!build} *)

  val hit_rate : store -> float
  (** [hits / (hits + misses)]; [0.] before any lookup *)

  val mem : store -> Sqlast.Ast.query -> bool

  (** [find_or_build s q] — the cached template set for [q]'s canonical
      key, building (and caching) it on a miss. *)
  val find_or_build : store -> Sqlast.Ast.query -> t
end

(** Caches for a whole workload: SELECTs and update query shells, plus the
    update statements for maintenance costing.  [fresh] lists the caches
    built by this value's deltas (statements resolved from a keyed store
    contribute no entry — and zero probes). *)
type workload_cache = {
  selects : (Sqlast.Ast.query * float * t) list;
  updates : (Sqlast.Ast.update * float) list;
  fresh : t list;
}

val empty_cache : workload_cache

(** Optimizer probes spent by this workload's builds so far — build-time
    probes plus deferred probes forced later (the count is dynamic). *)
val total_init_calls : workload_cache -> int

(** Sum of {!combos_truncated} over the workload's fresh builds. *)
val cache_truncated : workload_cache -> int

(** Sum of {!pending_probes} over the workload's fresh builds. *)
val cache_pending : workload_cache -> int

(** Weight-summed certified regret ({!probe_regret}) over the workload's
    SELECTs: the workload cost surface computed from the kept templates
    sits above the exhaustive one by at most this much, at any
    configuration.  Each distinct statement cache's bound (by {!id}) is
    computed once; the weighted sum still runs per statement in
    statement order,
    so the value is the per-statement fold's, bit for bit. *)
val cache_regret : workload_cache -> float

(** [refine_cache cache ~config] — {!refine} every statement cache at
    [config]; returns the total number of probes forced.  Each distinct
    cache (by {!id}; statements sharing a keyed-store entry share it) is
    refined once, in first-occurrence order: since {!refine}
    at a fixed configuration is idempotent, the count and every cache's
    end state equal those of refining every statement in turn. *)
val refine_cache : workload_cache -> config:Storage.Config.t -> int

(** [add_statements store cache w] — [cache] extended with every statement
    of [w] (order preserved, appended after existing statements).
    Statement caches are resolved through [store]: repeat keys are hits
    (zero probes), and only missing keys are built — with [store]'s probe
    budget — fanned over up to [jobs] domains.  The result is independent
    of [jobs]. *)
val add_statements :
  ?jobs:int ->
  Keyed.store ->
  workload_cache ->
  Sqlast.Ast.workload ->
  workload_cache

(** [remove_statements cache ~drop] — [cache] without the statements
    [drop] selects.  Purely structural: the keyed store keeps its
    entries, so re-adding a dropped statement is still free. *)
val remove_statements :
  workload_cache -> drop:(Sqlast.Ast.statement -> bool) -> workload_cache

(** Build the caches for every SELECT in the workload — the one-shot form
    of {!add_statements} over a fresh store with the given probe budget —
    fanning statement cache construction over up to [jobs] domains
    (default {!Runtime.recommended_jobs}).  Statement order and
    {!total_init_calls} are independent of [jobs]; [jobs:1] runs entirely
    on the calling domain. *)
val build_workload :
  ?jobs:int ->
  ?probe_budget:int ->
  Optimizer.Whatif.env ->
  Sqlast.Ast.workload ->
  workload_cache

(** Total INUM-approximated workload cost under a configuration, including
    index maintenance and base-update costs.  Forces overlapping deferred
    probes (see {!cost}). *)
val workload_cost :
  Optimizer.Whatif.env -> workload_cache -> Storage.Config.t -> float
