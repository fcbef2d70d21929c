(** CGen — candidate-index generation (paper §4).  Per-query heuristics
    over the referenced columns, no complex pruning; the union over the
    workload forms the candidate set S. *)

(** Candidates for one table of one query: singletons on predicate / join
    columns, equality-prefix composites, group/order-by keys, and covering
    variants with the query's referenced columns as INCLUDEs. *)
val table_candidates : Sqlast.Ast.query -> string -> Storage.Index.t list

(** Union of {!table_candidates} over the query's tables. *)
val query_candidates : Sqlast.Ast.query -> Storage.Index.t list

(** The workload's candidate set (update shells included), deduplicated,
    extended with the DBA's own interesting indexes: the union of
    {!query_candidates} over every statement.  Each raw statement shape
    ({!Sqlast.Canon.raw_equal}) is expanded once, so a workload of many
    repeats pays per distinct shape, not per statement. *)
val generate : ?dba:Storage.Index.t list -> Sqlast.Ast.workload -> Storage.Index.t list

(** Random valid indexes, for inflating S in scalability experiments
    (the paper's 10K-index S_L). *)
val random_candidates :
  Catalog.Schema.t -> n:int -> seed:int -> Storage.Index.t list
