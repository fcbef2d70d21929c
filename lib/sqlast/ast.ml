(* Abstract syntax for the SQL subset the advisor understands: conjunctive
   SELECT-PROJECT-JOIN queries with group-by, aggregation and order-by, plus
   single-table UPDATE statements.  Following the paper (§2) each statement
   references a given table at most once, and predicates carry their
   estimated selectivity (derived from catalog statistics at generation or
   parse time) so the optimizer never needs the actual data. *)

type col_ref = {
  table : string;  (* table name; aliases are resolved away *)
  column : string;
}

let col_ref table column = { table; column }

type comparison = Eq | Lt | Le | Gt | Ge | Between | Like

(* A conjunct restricting a single table.  [selectivity] is the estimated
   fraction of the table's rows that satisfy it. *)
type predicate = {
  pred_col : col_ref;
  cmp : comparison;
  selectivity : float;
  (* True when the comparison pins an exact value: an index with this
     column in its key prefix can continue matching subsequent key parts. *)
  is_equality : bool;
}

let predicate ?(selectivity = 0.1) pred_col cmp =
  (* written so that NaN fails it too *)
  if not (0.0 <= selectivity && selectivity <= 1.0) then
    invalid_arg "Ast.predicate: selectivity out of [0,1]";
  { pred_col; cmp; selectivity; is_equality = (cmp = Eq) }

(* Equi-join between two tables. *)
type join = { left : col_ref; right : col_ref }

type direction = Asc | Desc

type agg_fn = Count | Sum | Avg | Min | Max

type select_item =
  | Col of col_ref
  | Agg of agg_fn * col_ref

type query = {
  query_id : int;
  tables : string list;                 (* referenced tables *)
  select : select_item list;
  predicates : predicate list;
  joins : join list;
  group_by : col_ref list;
  order_by : (col_ref * direction) list;
}

type update = {
  update_id : int;
  target : string;                      (* updated table *)
  set_columns : string list;            (* columns written *)
  where : predicate list;               (* selects tuples to update *)
}

type statement =
  | Select of query
  | Update of update

(* A workload statement with its weight f_q (frequency or DBA importance). *)
type weighted = { stmt : statement; weight : float }

type workload = weighted list

let statement_id = function
  | Select q -> q.query_id
  | Update u -> u.update_id

(* The paper models an update as a query shell (selecting the affected
   tuples) plus an update shell; [query_shell] is the former. *)
let query_shell (u : update) : query =
  {
    query_id = u.update_id;
    tables = [ u.target ];
    select = [ Col { table = u.target; column = List.hd u.set_columns } ];
    predicates = u.where;
    joins = [];
    group_by = [];
    order_by = [];
  }

let selects (w : workload) =
  List.filter_map
    (fun { stmt; weight } ->
      match stmt with
      | Select q -> Some (q, weight)
      | Update u -> Some (query_shell u, weight))
    w

let updates (w : workload) =
  List.filter_map
    (fun { stmt; weight } ->
      match stmt with Update u -> Some (u, weight) | Select _ -> None)
    w

(* Columns of [q] that belong to table [t], in each syntactic role. *)

let table_predicates q t =
  List.filter (fun p -> p.pred_col.table = t) q.predicates

let join_columns q t =
  List.filter_map
    (fun j ->
      if j.left.table = t then Some j.left
      else if j.right.table = t then Some j.right
      else None)
    q.joins

let referenced_columns q t =
  let of_item = function
    | Col c | Agg (_, c) -> if c.table = t then [ c.column ] else []
  in
  let cols =
    List.concat_map of_item q.select
    @ List.filter_map
        (fun p -> if p.pred_col.table = t then Some p.pred_col.column else None)
        q.predicates
    @ List.map (fun (c : col_ref) -> c.column) (join_columns q t)
    @ List.filter_map
        (fun (c : col_ref) -> if c.table = t then Some c.column else None)
        q.group_by
    @ List.filter_map
        (fun ((c : col_ref), _) -> if c.table = t then Some c.column else None)
        q.order_by
  in
  List.sort_uniq String.compare cols

let validate schema q =
  let check_col (c : col_ref) =
    match Catalog.Schema.find_table_opt schema c.table with
    | None -> Error (Printf.sprintf "unknown table %s" c.table)
    | Some tbl ->
        if Catalog.Schema.mem_column tbl c.column then Ok ()
        else Error (Printf.sprintf "unknown column %s.%s" c.table c.column)
  in
  let ( let* ) = Result.bind in
  let rec all = function
    | [] -> Ok ()
    | x :: rest ->
        let* () = check_col x in
        all rest
  in
  let* () =
    all
      (List.concat_map
         (fun t -> List.map (fun c -> col_ref t c) (referenced_columns q t))
         q.tables)
  in
  let* () =
    if List.for_all (fun t -> Catalog.Schema.find_table_opt schema t <> None)
         q.tables
    then Ok ()
    else Error "unknown table in FROM"
  in
  (* Each table referenced at most once (paper §2 simplification). *)
  let sorted = List.sort String.compare q.tables in
  let rec no_dup = function
    | a :: b :: _ when a = b -> Error ("table referenced twice: " ^ a)
    | _ :: rest -> no_dup rest
    | [] -> Ok ()
  in
  no_dup sorted
