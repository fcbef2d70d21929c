(* Cardinality and selectivity estimation with the classic System-R
   assumptions: attribute independence, uniform join containment. *)

open Sqlast

let column schema (c : Ast.col_ref) =
  let tbl = Catalog.Schema.find_table schema c.Ast.table in
  Catalog.Schema.find_column tbl c.Ast.column

(* Combined selectivity of the query's predicates on one table. *)
let table_selectivity (q : Ast.query) tbl_name =
  List.fold_left
    (fun acc p -> acc *. p.Ast.selectivity)
    1.0
    (Ast.table_predicates q tbl_name)

(* Rows of [tbl_name] surviving the query's local predicates. *)
let filtered_rows schema (q : Ast.query) tbl_name =
  let tbl = Catalog.Schema.find_table schema tbl_name in
  max 1.0
    (float_of_int tbl.Catalog.Schema.row_count *. table_selectivity q tbl_name)

(* Selectivity of an equi-join: 1 / max(ndv(left), ndv(right)). *)
let join_selectivity schema (j : Ast.join) =
  let dl = (column schema j.Ast.left).Catalog.Schema.distinct in
  let dr = (column schema j.Ast.right).Catalog.Schema.distinct in
  1.0 /. float_of_int (max 1 (max dl dr))

(* Distinct values of a column that survive filtering to [rows] rows:
   the standard min(ndv, rows) cap. *)
let distinct_after schema (c : Ast.col_ref) ~rows =
  let d = float_of_int (column schema c).Catalog.Schema.distinct in
  min d rows

(* Output cardinality of grouping [rows] input rows by [cols]. *)
let group_cardinality schema (cols : Ast.col_ref list) ~rows =
  match cols with
  | [] -> min rows 1.0
  | _ ->
      let product =
        List.fold_left
          (fun acc c -> acc *. distinct_after schema c ~rows)
          1.0 cols
      in
      max 1.0 (min rows product)

(* Cardinality of joining two intermediate results, given the product of
   the applicable join conjuncts' selectivities. *)
let join_rows ~left_rows ~right_rows sel =
  (* [max 1.0 r], written out: [Stdlib.max] is a polymorphic call on
     the DP's hottest path *)
  let r = left_rows *. right_rows *. sel in
  if 1.0 >= r then 1.0 else r

(* Width in bytes of the columns the query references on one table. *)
let table_width schema (q : Ast.query) tbl_name =
  let tbl = Catalog.Schema.find_table schema tbl_name in
  List.fold_left
    (fun acc col ->
      acc + Catalog.Schema.column_width (Catalog.Schema.find_column tbl col))
    0
    (Ast.referenced_columns q tbl_name)

(* Output row width of the query restricted to [tables]: sum of referenced
   column widths (what flows through joins and sorts). *)
let output_width schema (q : Ast.query) tables =
  max 8 (List.fold_left (fun acc t -> acc + table_width schema q t) 0 tables)
