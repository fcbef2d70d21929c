(** Access-path selection: the ways to read one table's filtered rows
    under a hypothetical index configuration, with their costs and
    delivered sort orders.  Also the source of INUM's gamma coefficients
    (the cost of filling a template slot with an index). *)

type path = {
  index : Storage.Index.t option;  (** [None] = sequential scan *)
  path_cost : float;
  output_order : string list;  (** full index key; [[]] for scans *)
  covering : bool;  (** no base-table lookup needed *)
}

(** [satisfies ~eq_cols ~required given]: does a stream ordered by [given]
    also deliver [required]?  Equality-bound columns may be skipped (all
    surviving rows share one value for them). *)
val satisfies :
  eq_cols:string list -> required:string list -> string list -> bool

(** {1 The slot-cost context}

    Every cost below depends on the statement and the table only through
    what {!context} derives once: the table's statistics, the
    statement's predicates and columns on it, and the sequential scan's
    cost.  A caller that prices many slots of one (statement, table)
    makes one context and one {!access} per index, then answers each
    slot requirement from them: an order check, or one multiplication
    for a nested-loop inner.  {!slot_fill_cost} is the one-shot form,
    which builds a context for a single answer; there is no other copy of
    any cost formula. *)

type context
(** One (statement, table) pair.  Caches the sort cost of the scan the
    first time an ordered requirement asks for it, so it is not safe to
    share between domains. *)

(** [context params schema q table].
    @raise Not_found when [table] is not in [schema]. *)
val context :
  Cost_params.t -> Catalog.Schema.t -> Sqlast.Ast.query -> string -> context

type index
(** An index with what costing it needs that no statement changes (its
    covered columns, leaf pages and height), derived once. *)

val index : Catalog.Schema.t -> Storage.Index.t -> index
(** @raise Not_found when the index names a table or column not in the
    schema. *)

type access
(** One way to read the context's table: the sequential scan, or one
    index with its path computed. *)

(** [access ctx None] is the sequential scan; [access ctx (Some ix)]
    reads through [ix] (a seek when predicates match a key prefix,
    otherwise a full index scan), filtering the remaining predicates and
    fetching base rows when [ix] does not cover the statement's columns
    on the table.  [ix] must come from {!index} over the context's
    schema. *)
val access : context -> index option -> access

(** [None] when the index is on another table. *)
val path : access -> path option

(** Cost of one nested-loop probe through the access on [join_col];
    [None] when it cannot serve the probe (an index on another table, or
    whose leading key column is not [join_col]).  Probing without an
    index degenerates to a per-probe scan (finite but enormous). *)
val probe_cost : context -> access -> join_col:string -> float option

(** The cost of filling a template slot with the access — gamma_qkia of
    the paper ([None] = infinite, Lemma 1).  An ordered requirement is
    met by an index whose key delivers the order (skipping
    equality-bound columns), and by the scan plus a sort; a nested-loop
    inner costs [outer_rows] probes. *)
val fill_cost : context -> access -> Plan.slot_req -> float option

(** The one-shot form: {!fill_cost} of a fresh context and access. *)
val slot_fill_cost :
  Cost_params.t ->
  Catalog.Schema.t ->
  Sqlast.Ast.query ->
  string ->
  Storage.Index.t option ->
  Plan.slot_req ->
  float option
