(* Access-path selection: the ways to read one table's filtered rows, with
   their costs and delivered sort orders.  This is also where INUM's gamma
   coefficients come from (cost of filling a template slot with an index). *)

open Sqlast

type path = {
  index : Storage.Index.t option;   (* None = sequential scan *)
  path_cost : float;
  output_order : string list;       (* full key of the index, [] for scans *)
  covering : bool;
}

(* [satisfies ~eq_cols ~required output]: does a stream ordered by [output]
   also deliver [required]?  Equality-bound columns may be skipped inside
   the output order (all surviving rows share one value for them). *)
let satisfies ~eq_cols ~required output =
  let rec walk required output =
    match (required, output) with
    | [], _ -> true
    | _, [] -> false
    | r :: rs, o :: os ->
        if r = o then walk rs os
        else if List.exists (String.equal o) eq_cols then walk required os
        else false
  in
  walk required output

(* --- The slot-cost context --- *)

(* Everything about reading [table] for [q] that no index choice
   changes, derived once: the table's statistics, [q]'s predicates and
   columns on it, and the sequential scan's cost.  [sort] caches the
   cost of sorting the filtered rows, computed the first time an ordered
   requirement asks for it. *)
type context = {
  params : Cost_params.t;
  schema : Catalog.Schema.t;
  q : Ast.query;
  table : string;
  tbl : Catalog.Schema.table;
  rows : float;
  preds : Ast.predicate list;  (* [q]'s predicates on the table, in order *)
  needed : string list;  (* [q]'s columns on the table *)
  eq_cols : string list;  (* those bound by an equality predicate *)
  scan : float;  (* sequential scan plus predicate evaluation *)
  mutable sort : float option;
}

let context (p : Cost_params.t) schema (q : Ast.query) table =
  let tbl = Catalog.Schema.find_table schema table in
  let pages = float_of_int (Catalog.Schema.table_pages tbl) in
  let rows = float_of_int tbl.Catalog.Schema.row_count in
  let preds = Ast.table_predicates q table in
  let npreds = List.length preds in
  {
    params = p;
    schema;
    q;
    table;
    tbl;
    rows;
    preds;
    needed = Ast.referenced_columns q table;
    eq_cols =
      List.filter_map
        (fun pr ->
          if pr.Ast.is_equality then Some pr.Ast.pred_col.Ast.column else None)
        preds;
    scan =
      (pages *. p.seq_page_cost)
      +. (rows *. p.cpu_tuple_cost)
      +. (rows *. float_of_int npreds *. p.cpu_operator_cost);
    sort = None;
  }

(* Cost of sorting the table's filtered rows. *)
let sort_cost ctx =
  match ctx.sort with
  | Some c -> c
  | None ->
      let rows = Card.filtered_rows ctx.schema ctx.q ctx.table in
      let width = Card.output_width ctx.schema ctx.q [ ctx.table ] in
      let c = Cost_params.sort_cost ctx.params ~rows ~width in
      ctx.sort <- Some c;
      c

(* The seek prefix an index offers a query: leading key columns bound by
   equality predicates, then at most one range predicate.  Returns the
   combined selectivity of the matched predicates and how many were
   matched. *)
let seek_selectivity preds key_columns =
  let eq_on c =
    List.find_opt
      (fun pr -> pr.Ast.is_equality && pr.Ast.pred_col.Ast.column = c)
      preds
  in
  let range_on c =
    List.find_opt
      (fun pr -> (not pr.Ast.is_equality) && pr.Ast.pred_col.Ast.column = c)
      preds
  in
  let rec walk cols sel matched =
    match cols with
    | [] -> (sel, matched)
    | c :: rest -> (
        match eq_on c with
        | Some pr -> walk rest (sel *. pr.Ast.selectivity) (matched + 1)
        | None -> (
            match range_on c with
            | Some pr -> (sel *. pr.Ast.selectivity, matched + 1)
            | None -> (sel, matched)))
  in
  walk key_columns 1.0 0

(* An index with what costing it needs that no statement changes: its
   covered columns, leaf pages and B+-tree height. *)
type index = {
  ix : Storage.Index.t;
  covered : string list;
  leaf_pages : float;
  height : float;
}

let index schema ix =
  let leaves = Storage.Index.leaf_pages schema ix in
  {
    ix;
    covered = Storage.Index.covered_columns ix;
    leaf_pages = float_of_int leaves;
    height = float_of_int (Storage.Index.height_of_leaf_pages leaves);
  }

(* One way to read the context's table: the sequential scan or one
   index.  [path = None] when the index is on another table; [height] is
   the index's B+-tree height (what a seek or a probe descends), 0 for
   the scan. *)
type access = { path : path option; height : float }

(* The scan, or the cost of reading the table through [ix] (a seek when
   predicates match a key prefix, otherwise a full index scan), filtering
   the remaining predicates, and fetching base rows when the index does
   not cover the query's columns on this table. *)
let access ctx = function
  | None ->
      {
        path =
          Some
            { index = None; path_cost = ctx.scan; output_order = []; covering = true };
        height = 0.0;
      }
  | Some { ix; _ } when Storage.Index.table ix <> ctx.table ->
      { path = None; height = 0.0 }
  | Some { ix; covered; leaf_pages; height } ->
      let p = ctx.params in
      let covering =
        Storage.Index.clustered ix
        || List.for_all
             (fun c -> List.exists (String.equal c) covered)
             ctx.needed
      in
      let key = Storage.Index.key_columns ix in
      let sel, matched = seek_selectivity ctx.preds key in
      let descend, scanned_frac =
        if matched > 0 then (height *. p.random_page_cost, sel) else (0.0, 1.0)
      in
      let rows = ctx.rows in
      let leaf_io = scanned_frac *. leaf_pages *. p.seq_page_cost in
      let index_cpu = scanned_frac *. rows *. p.cpu_index_tuple_cost in
      let fetch =
        if covering then 0.0
        else scanned_frac *. rows *. p.random_page_cost
      in
      let residual_filter =
        (* Remaining predicates evaluated on the fetched rows. *)
        let npreds = List.length ctx.preds in
        scanned_frac *. rows *. float_of_int (max 0 (npreds - matched))
        *. p.cpu_operator_cost
      in
      {
        path =
          Some
            {
              index = Some ix;
              path_cost =
                descend +. leaf_io +. index_cpu +. fetch +. residual_filter;
              output_order = key;
              covering;
            };
        height;
      }

let path a = a.path

(* Cost of one nested-loop probe into the table through [a]: the index's
   leading key column must be the join column.  [None] when the index
   cannot serve the probe; probing without an index degenerates to a
   scan of the table per probe (finite but enormous). *)
let probe_cost ctx a ~join_col =
  match a.path with
  | None -> None
  | Some { index = None; path_cost; _ } -> Some path_cost
  | Some { index = Some _; output_order = lead :: _; covering; _ }
    when lead = join_col ->
      let p = ctx.params in
      let col = Catalog.Schema.find_column ctx.tbl join_col in
      let ndv = float_of_int (max 1 col.Catalog.Schema.distinct) in
      let matched = max 1.0 (ctx.rows /. ndv) in
      Some
        ((a.height *. p.random_page_cost)
        +. (matched *. p.cpu_index_tuple_cost)
        +. (if covering then 0.0 else matched *. p.random_page_cost)
        +. matched
           *. float_of_int (List.length ctx.preds)
           *. p.cpu_operator_cost)
  | Some _ -> None

(* Cost to satisfy an INUM slot through [a] — this is gamma_qkia of the
   paper.  [Ordered o]: deliver the table's filtered rows in order [o].
   Returns [None] (gamma = infinity per Lemma 1) when the access method
   cannot deliver the order; a trailing sort only applies to the scan,
   since a template slot instantiated with an incompatible index is
   declared infeasible by INUM's interesting-order validity rule.
   [Nlj_inner]: [outer_rows] probes (see [probe_cost]). *)
let fill_cost ctx a (req : Plan.slot_req) =
  match (req, a.path) with
  | Plan.Nlj_inner { join_col; outer_rows }, _ ->
      Option.map (fun c -> outer_rows *. c) (probe_cost ctx a ~join_col)
  | _, None -> None
  | (Plan.Any_order | Plan.Ordered []), Some path -> Some path.path_cost
  | Plan.Ordered _, Some { index = None; path_cost; _ } ->
      Some (path_cost +. sort_cost ctx)
  | Plan.Ordered o, Some path ->
      if satisfies ~eq_cols:ctx.eq_cols ~required:o path.output_order then
        Some path.path_cost
      else None

(* The one-shot form: a context for a single answer. *)
let slot_fill_cost p schema q tbl_name ix req =
  let ctx = context p schema q tbl_name in
  fill_cost ctx (access ctx (Option.map (index schema) ix)) req
