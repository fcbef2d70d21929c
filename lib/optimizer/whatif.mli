(** The what-if optimizer: System-R dynamic programming over join orders
    with interesting orders, access-path selection against a hypothetical
    index configuration, and hash / merge / index-nested-loop joins.

    [optimize] / [cost] are the classic what-if calls an index advisor
    makes; [template_plan] builds INUM template plans by optimizing with
    abstract zero-cost slots, so the resulting plan cost is exactly the
    internal plan cost beta of the paper.

    The DP joins only along equi-join conjuncts, unless they leave some
    table of the query unreached: then cross products are allowed, so a
    query with a disconnected join graph still plans. *)

(** An environment is immutable shared context ([params], [schema]) plus
    one atomic instrumentation cell: a single [env] may be shared
    read-only across domains and probed concurrently. *)
type env = {
  params : Cost_params.t;
  schema : Catalog.Schema.t;
  calls : int Atomic.t;  (** direct optimizations performed so far *)
}

(** [make_env schema] — a fresh environment pricing with
    {!Cost_params.default}, with the call counter at zero. *)
val make_env : Catalog.Schema.t -> env

(** Number of direct what-if optimizations performed (the quantity the
    paper's time accounting tracks for the commercial advisors). *)
val whatif_calls : env -> int

val reset_calls : env -> unit

(** What a template requires of one table's access. *)
type slot_spec =
  | Spec_any
  | Spec_ordered of string list
  | Spec_nlj of string  (** nested-loop inner probed on this join column *)

(** Optimize the query under the configuration; counts one what-if call.
    @raise Invalid_argument if no plan exists (cannot happen for valid
    queries, disconnected join graphs included). *)
val optimize : env -> Sqlast.Ast.query -> Storage.Config.t -> Plan.t

(** [cost env q x] = [Plan.cost (optimize env q x)]. *)
val cost : env -> Sqlast.Ast.query -> Storage.Config.t -> float

(** Build the optimal template plan under per-table slot specs; the plan's
    cost is INUM's beta.  [None] when the specs admit no plan (e.g. an
    NLJ spec with no matching join). *)
val template_plan :
  env ->
  Sqlast.Ast.query ->
  slot_specs:(string * slot_spec) list ->
  Plan.t option

(** A query's template DP prepared once for many probes: the per-query
    context (filtered rows, widths, resolved joins, equality columns, the
    cross-product rule) and each table's slot leaf under each of its
    specs.  [prepare env q specs] takes [specs.(k)], the specs table [k]
    of [q.tables] may take.  Immutable, so it may be shared. *)
type prepared

val prepare : env -> Sqlast.Ast.query -> slot_spec array array -> prepared

(** A prepared DP with a sub-mask memo shared by the probes made through
    it: a join-order mask's entries depend only on its tables' specs, so
    each (mask, spec positions of its tables) is planned once.  The memo
    lives as long as the [dp] value; make one per batch of probes. *)
type dp

val dp : prepared -> dp

(** [template_plan_at d pos] = {!template_plan} with table [k]'s spec at
    position [pos.(k)] of its specs, bit for bit (cost and plan), whatever
    the probes made through [d] before.  Counts one template probe. *)
val template_plan_at : dp -> int array -> Plan.t option

(** Bound query: a lower bound on the beta of every template of the
    query, computed without running the planning DP.  Counts the
    mandatory final-join output tuples (the unclamped cardinality
    product, a lower bound under any join order) and the cheapest
    aggregation pass; sort costs are excluded since an ordered template
    may deliver its order for free.  The lazy INUM probe loop seeds its
    per-combination lower bounds with this. *)
val template_cost_floor : env -> Sqlast.Ast.query -> float

(** ucost(a, q): maintenance cost of the index under the update (0 when
    the index is unaffected). *)
val update_cost : env -> Sqlast.Ast.update -> Storage.Index.t -> float

(** c_q: the configuration-independent cost of updating the base tuples. *)
val update_base_cost : env -> Sqlast.Ast.update -> float

(** Full statement cost under a configuration: for updates,
    [cost(q_r, X) + sum ucost + c_q] per the paper's model (§2). *)
val statement_cost : env -> Sqlast.Ast.statement -> Storage.Config.t -> float

(** Weighted total over the workload. *)
val workload_cost : env -> Sqlast.Ast.workload -> Storage.Config.t -> float
