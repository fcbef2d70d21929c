(** Cardinality and selectivity estimation (System-R assumptions:
    attribute independence, containment of join values). *)

(** Resolve a column reference against the catalog.
    @raise Not_found when the table or column is unknown. *)
val column : Catalog.Schema.t -> Sqlast.Ast.col_ref -> Catalog.Schema.column

(** Product of the selectivities of the query's predicates on one table. *)
val table_selectivity : Sqlast.Ast.query -> string -> float

(** Rows of the table surviving the query's local predicates (>= 1). *)
val filtered_rows : Catalog.Schema.t -> Sqlast.Ast.query -> string -> float

(** Equi-join selectivity: [1 / max(ndv(left), ndv(right))]. *)
val join_selectivity : Catalog.Schema.t -> Sqlast.Ast.join -> float

(** Distinct values surviving a filter to [rows] rows: [min(ndv, rows)]. *)
val distinct_after : Catalog.Schema.t -> Sqlast.Ast.col_ref -> rows:float -> float

(** Output cardinality of grouping [rows] input rows by [cols]. *)
val group_cardinality :
  Catalog.Schema.t -> Sqlast.Ast.col_ref list -> rows:float -> float

(** Join output cardinality, [max 1 (left_rows * right_rows * sel)],
    where [sel] is the product of the applicable equi-join conjuncts'
    {!join_selectivity}s. *)
val join_rows : left_rows:float -> right_rows:float -> float -> float

(** Width in bytes of the columns the query references on one table
    (unclamped). *)
val table_width : Catalog.Schema.t -> Sqlast.Ast.query -> string -> int

(** Width in bytes of the tuples the query carries for [tables]: the sum
    of their {!table_width}s, at least 8. *)
val output_width : Catalog.Schema.t -> Sqlast.Ast.query -> string list -> int
