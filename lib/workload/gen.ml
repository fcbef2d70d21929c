(* Workload generators mirroring the paper's evaluation inputs:

   - [hom]: the homogeneous workload W^hom — random instantiations of 15
     fixed TPC-H-like query templates (the paper uses the TPC-H generator
     on fifteen templates).
   - [het]: the heterogeneous workload W^het — randomly structured
     SPJ queries with group-by and aggregation in the style of the online
     index-selection benchmark of Schnaitter & Polyzotis (C2 suite).
   - [with_updates]: mixes UPDATE statements into a workload.

   All generation is deterministic in the seed.  Predicate selectivities
   are drawn from the catalog's per-column Zipf distributions, so data
   skew (z) directly shapes the workloads as tpcdskew shaped the paper's. *)

open Sqlast

let col t c = Ast.col_ref t c

(* Draw an equality-predicate selectivity for a column: the mass of a rank
   sampled from the column's own distribution (popular values are queried
   more often, which is what makes skew interesting). *)
let eq_sel schema rng table column =
  let tbl = Catalog.Schema.find_table schema table in
  let c = Catalog.Schema.find_column tbl column in
  let zipf = Catalog.Schema.zipf_of_column c in
  let rank = Catalog.Zipf.sample zipf rng in
  Catalog.Zipf.mass zipf rank

let range_sel schema rng table column ~frac =
  let tbl = Catalog.Schema.find_table schema table in
  let c = Catalog.Schema.find_column tbl column in
  let zipf = Catalog.Schema.zipf_of_column c in
  Catalog.Zipf.range_selectivity_head_biased zipf ~frac rng

let eq_pred schema rng t c =
  Ast.predicate ~selectivity:(eq_sel schema rng t c) (col t c) Ast.Eq

let range_pred ?(frac = 0.1) schema rng t c =
  let cmp = if Random.State.bool rng then Ast.Le else Ast.Ge in
  Ast.predicate ~selectivity:(range_sel schema rng t c ~frac) (col t c) cmp

let between_pred ?(frac = 0.05) schema rng t c =
  Ast.predicate ~selectivity:(range_sel schema rng t c ~frac) (col t c)
    Ast.Between

(* --- The fifteen homogeneous templates --- *)

(* Each template takes (schema, rng, id) and returns a query.  They are
   freely adapted from TPC-H Q1,Q3,Q4,Q5,Q6,Q7,Q10,Q11,Q12,Q14,Q16,Q17,
   Q19 and two reporting shapes, restricted to the conjunctive equi-join
   subset of our SQL dialect. *)

let t01 schema rng id =
  (* Q1: pricing summary report *)
  {
    Ast.query_id = id;
    tables = [ "lineitem" ];
    select =
      [ Ast.Col (col "lineitem" "l_returnflag");
        Ast.Col (col "lineitem" "l_linestatus");
        Ast.Agg (Ast.Sum, col "lineitem" "l_extendedprice");
        Ast.Agg (Ast.Avg, col "lineitem" "l_discount") ];
    predicates = [ range_pred ~frac:0.9 schema rng "lineitem" "l_shipdate" ];
    joins = [];
    group_by = [ col "lineitem" "l_returnflag"; col "lineitem" "l_linestatus" ];
    order_by = [ (col "lineitem" "l_returnflag", Ast.Asc) ];
  }

let t02 schema rng id =
  (* Q3: shipping priority *)
  {
    Ast.query_id = id;
    tables = [ "customer"; "orders"; "lineitem" ];
    select =
      [ Ast.Col (col "lineitem" "l_orderkey");
        Ast.Agg (Ast.Sum, col "lineitem" "l_extendedprice");
        Ast.Col (col "orders" "o_orderdate") ];
    predicates =
      [ eq_pred schema rng "customer" "c_mktsegment";
        range_pred ~frac:0.4 schema rng "orders" "o_orderdate";
        range_pred ~frac:0.4 schema rng "lineitem" "l_shipdate" ];
    joins =
      [ { Ast.left = col "customer" "c_custkey"; right = col "orders" "o_custkey" };
        { Ast.left = col "orders" "o_orderkey"; right = col "lineitem" "l_orderkey" } ];
    group_by = [ col "lineitem" "l_orderkey"; col "orders" "o_orderdate" ];
    order_by = [ (col "orders" "o_orderdate", Ast.Asc) ];
  }

let t03 schema rng id =
  (* Q4: order priority checking *)
  {
    Ast.query_id = id;
    tables = [ "orders" ];
    select =
      [ Ast.Col (col "orders" "o_orderpriority");
        Ast.Agg (Ast.Count, col "orders" "o_orderkey") ];
    predicates = [ between_pred ~frac:0.1 schema rng "orders" "o_orderdate" ];
    joins = [];
    group_by = [ col "orders" "o_orderpriority" ];
    order_by = [ (col "orders" "o_orderpriority", Ast.Asc) ];
  }

let t04 schema rng id =
  (* Q5: local supplier volume *)
  {
    Ast.query_id = id;
    tables = [ "customer"; "orders"; "lineitem"; "nation" ];
    select =
      [ Ast.Col (col "nation" "n_name");
        Ast.Agg (Ast.Sum, col "lineitem" "l_extendedprice") ];
    predicates =
      [ range_pred ~frac:0.2 schema rng "orders" "o_orderdate";
        eq_pred schema rng "nation" "n_regionkey" ];
    joins =
      [ { Ast.left = col "customer" "c_custkey"; right = col "orders" "o_custkey" };
        { Ast.left = col "orders" "o_orderkey"; right = col "lineitem" "l_orderkey" };
        { Ast.left = col "customer" "c_nationkey"; right = col "nation" "n_nationkey" } ];
    group_by = [ col "nation" "n_name" ];
    order_by = [];
  }

let t05 schema rng id =
  (* Q6: forecasting revenue change *)
  {
    Ast.query_id = id;
    tables = [ "lineitem" ];
    select = [ Ast.Agg (Ast.Sum, col "lineitem" "l_extendedprice") ];
    predicates =
      [ between_pred ~frac:0.15 schema rng "lineitem" "l_shipdate";
        eq_pred schema rng "lineitem" "l_discount";
        range_pred ~frac:0.5 schema rng "lineitem" "l_quantity" ];
    joins = [];
    group_by = [];
    order_by = [];
  }

let t06 schema rng id =
  (* Q7: volume shipping *)
  {
    Ast.query_id = id;
    tables = [ "supplier"; "lineitem"; "orders" ];
    select =
      [ Ast.Col (col "supplier" "s_nationkey");
        Ast.Agg (Ast.Sum, col "lineitem" "l_extendedprice") ];
    predicates =
      [ between_pred ~frac:0.3 schema rng "lineitem" "l_shipdate";
        eq_pred schema rng "supplier" "s_nationkey" ];
    joins =
      [ { Ast.left = col "supplier" "s_suppkey"; right = col "lineitem" "l_suppkey" };
        { Ast.left = col "lineitem" "l_orderkey"; right = col "orders" "o_orderkey" } ];
    group_by = [ col "supplier" "s_nationkey" ];
    order_by = [];
  }

let t07 schema rng id =
  (* Q10: returned item reporting *)
  {
    Ast.query_id = id;
    tables = [ "customer"; "orders"; "lineitem" ];
    select =
      [ Ast.Col (col "customer" "c_custkey");
        Ast.Col (col "customer" "c_name");
        Ast.Agg (Ast.Sum, col "lineitem" "l_extendedprice") ];
    predicates =
      [ between_pred ~frac:0.08 schema rng "orders" "o_orderdate";
        eq_pred schema rng "lineitem" "l_returnflag" ];
    joins =
      [ { Ast.left = col "customer" "c_custkey"; right = col "orders" "o_custkey" };
        { Ast.left = col "orders" "o_orderkey"; right = col "lineitem" "l_orderkey" } ];
    group_by = [ col "customer" "c_custkey"; col "customer" "c_name" ];
    order_by = [];
  }

let t08 schema rng id =
  (* Q11: important stock identification *)
  {
    Ast.query_id = id;
    tables = [ "partsupp"; "supplier" ];
    select =
      [ Ast.Col (col "partsupp" "ps_partkey");
        Ast.Agg (Ast.Sum, col "partsupp" "ps_supplycost") ];
    predicates = [ eq_pred schema rng "supplier" "s_nationkey" ];
    joins =
      [ { Ast.left = col "partsupp" "ps_suppkey"; right = col "supplier" "s_suppkey" } ];
    group_by = [ col "partsupp" "ps_partkey" ];
    order_by = [];
  }

let t09 schema rng id =
  (* Q12: shipping modes and order priority *)
  {
    Ast.query_id = id;
    tables = [ "orders"; "lineitem" ];
    select =
      [ Ast.Col (col "lineitem" "l_shipmode");
        Ast.Agg (Ast.Count, col "orders" "o_orderkey") ];
    predicates =
      [ eq_pred schema rng "lineitem" "l_shipmode";
        between_pred ~frac:0.15 schema rng "lineitem" "l_receiptdate" ];
    joins =
      [ { Ast.left = col "orders" "o_orderkey"; right = col "lineitem" "l_orderkey" } ];
    group_by = [ col "lineitem" "l_shipmode" ];
    order_by = [ (col "lineitem" "l_shipmode", Ast.Asc) ];
  }

let t10 schema rng id =
  (* Q14: promotion effect *)
  {
    Ast.query_id = id;
    tables = [ "lineitem"; "part" ];
    select = [ Ast.Agg (Ast.Sum, col "lineitem" "l_extendedprice") ];
    predicates =
      [ between_pred ~frac:0.05 schema rng "lineitem" "l_shipdate";
        eq_pred schema rng "part" "p_type" ];
    joins =
      [ { Ast.left = col "lineitem" "l_partkey"; right = col "part" "p_partkey" } ];
    group_by = [];
    order_by = [];
  }

let t11 schema rng id =
  (* Q16: parts/supplier relationship *)
  {
    Ast.query_id = id;
    tables = [ "partsupp"; "part" ];
    select =
      [ Ast.Col (col "part" "p_brand");
        Ast.Col (col "part" "p_type");
        Ast.Agg (Ast.Count, col "partsupp" "ps_suppkey") ];
    predicates =
      [ eq_pred schema rng "part" "p_brand";
        range_pred ~frac:0.3 schema rng "part" "p_size" ];
    joins =
      [ { Ast.left = col "partsupp" "ps_partkey"; right = col "part" "p_partkey" } ];
    group_by = [ col "part" "p_brand"; col "part" "p_type" ];
    order_by = [ (col "part" "p_brand", Ast.Asc) ];
  }

let t12 schema rng id =
  (* Q17: small-quantity-order revenue *)
  {
    Ast.query_id = id;
    tables = [ "lineitem"; "part" ];
    select = [ Ast.Agg (Ast.Avg, col "lineitem" "l_extendedprice") ];
    predicates =
      [ eq_pred schema rng "part" "p_brand";
        eq_pred schema rng "part" "p_container";
        range_pred ~frac:0.1 schema rng "lineitem" "l_quantity" ];
    joins =
      [ { Ast.left = col "lineitem" "l_partkey"; right = col "part" "p_partkey" } ];
    group_by = [];
    order_by = [];
  }

let t13 schema rng id =
  (* Q19: discounted revenue, single-branch variant *)
  {
    Ast.query_id = id;
    tables = [ "lineitem"; "part" ];
    select = [ Ast.Agg (Ast.Sum, col "lineitem" "l_extendedprice") ];
    predicates =
      [ eq_pred schema rng "part" "p_container";
        range_pred ~frac:0.2 schema rng "lineitem" "l_quantity";
        eq_pred schema rng "lineitem" "l_shipmode";
        eq_pred schema rng "lineitem" "l_shipinstruct" ];
    joins =
      [ { Ast.left = col "lineitem" "l_partkey"; right = col "part" "p_partkey" } ];
    group_by = [];
    order_by = [];
  }

let t14 schema rng id =
  (* Customer account scan: selective lookup with projection *)
  {
    Ast.query_id = id;
    tables = [ "customer" ];
    select =
      [ Ast.Col (col "customer" "c_name");
        Ast.Col (col "customer" "c_acctbal");
        Ast.Col (col "customer" "c_phone") ];
    predicates =
      [ eq_pred schema rng "customer" "c_nationkey";
        range_pred ~frac:0.05 schema rng "customer" "c_acctbal" ];
    joins = [];
    group_by = [];
    order_by = [ (col "customer" "c_acctbal", Ast.Desc) ];
  }

let t15 schema rng id =
  (* Supplier balance by nation and region *)
  {
    Ast.query_id = id;
    tables = [ "supplier"; "nation"; "region" ];
    select =
      [ Ast.Col (col "nation" "n_name");
        Ast.Agg (Ast.Sum, col "supplier" "s_acctbal") ];
    predicates =
      [ eq_pred schema rng "region" "r_name";
        range_pred ~frac:0.3 schema rng "supplier" "s_acctbal" ];
    joins =
      [ { Ast.left = col "supplier" "s_nationkey"; right = col "nation" "n_nationkey" };
        { Ast.left = col "nation" "n_regionkey"; right = col "region" "r_regionkey" } ];
    group_by = [ col "nation" "n_name" ];
    order_by = [];
  }

let[@lint.allow
     global_state
       "closures built once at module init and never written afterwards, \
        safe to share across domains"] hom_templates =
  [| t01; t02; t03; t04; t05; t06; t07; t08; t09; t10; t11; t12; t13; t14; t15 |]

let hom schema ~n ~seed =
  let rng = Random.State.make [| seed; 0x5eed |] in
  List.init n (fun i ->
      let template = hom_templates.(i mod Array.length hom_templates) in
      { Ast.stmt = Ast.Select (template schema rng (i + 1)); weight = 1.0 })

(* --- Heterogeneous workload --- *)

(* Foreign-key join graph of TPC-H, as (left table, left col, right table,
   right col). *)
let fk_edges =
  [
    ("lineitem", "l_orderkey", "orders", "o_orderkey");
    ("lineitem", "l_partkey", "part", "p_partkey");
    ("lineitem", "l_suppkey", "supplier", "s_suppkey");
    ("partsupp", "ps_partkey", "part", "p_partkey");
    ("partsupp", "ps_suppkey", "supplier", "s_suppkey");
    ("orders", "o_custkey", "customer", "c_custkey");
    ("customer", "c_nationkey", "nation", "n_nationkey");
    ("supplier", "s_nationkey", "nation", "n_nationkey");
    ("nation", "n_regionkey", "region", "r_regionkey");
  ]

(* Columns eligible for predicates / grouping per table (non-comment
   attributes). *)
let predicate_columns = function
  | "lineitem" ->
      [ "l_quantity"; "l_extendedprice"; "l_discount"; "l_tax"; "l_returnflag";
        "l_linestatus"; "l_shipdate"; "l_commitdate"; "l_receiptdate";
        "l_shipinstruct"; "l_shipmode"; "l_suppkey"; "l_partkey" ]
  | "orders" ->
      [ "o_orderstatus"; "o_totalprice"; "o_orderdate"; "o_orderpriority";
        "o_clerk"; "o_custkey" ]
  | "customer" ->
      [ "c_nationkey"; "c_acctbal"; "c_mktsegment"; "c_phone" ]
  | "part" ->
      [ "p_mfgr"; "p_brand"; "p_type"; "p_size"; "p_container"; "p_retailprice" ]
  | "partsupp" -> [ "ps_availqty"; "ps_supplycost"; "ps_suppkey" ]
  | "supplier" -> [ "s_nationkey"; "s_acctbal" ]
  | "nation" -> [ "n_regionkey"; "n_name" ]
  | "region" -> [ "r_name" ]
  | t -> invalid_arg ("Gen.predicate_columns: " ^ t)

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

let rec pick_distinct rng k xs =
  if k = 0 || xs = [] then []
  else begin
    let x = pick rng xs in
    x :: pick_distinct rng (k - 1) (List.filter (fun y -> y <> x) xs)
  end

(* Grow a connected random table set along FK edges. *)
let random_table_set rng k =
  let start = pick rng [ "lineitem"; "orders"; "customer"; "part"; "partsupp"; "supplier" ] in
  let rec grow tables joins =
    if List.length tables >= k then (tables, joins)
    else begin
      let frontier =
        List.filter
          (fun (lt, _, rt, _) ->
            (List.mem lt tables && not (List.mem rt tables))
            || (List.mem rt tables && not (List.mem lt tables)))
          fk_edges
      in
      match frontier with
      | [] -> (tables, joins)
      | _ ->
          let (lt, lc, rt, rc) = pick rng frontier in
          let newt = if List.mem lt tables then rt else lt in
          grow (newt :: tables)
            ({ Ast.left = col lt lc; right = col rt rc } :: joins)
    end
  in
  grow [ start ] []

let het_query schema rng id =
  let ntables = 1 + Random.State.int rng 4 in
  let tables, joins = random_table_set rng ntables in
  let preds =
    List.concat_map
      (fun t ->
        let cols = predicate_columns t in
        let npred = Random.State.int rng 3 in
        List.map
          (fun c ->
            match Random.State.int rng 3 with
            | 0 -> eq_pred schema rng t c
            | 1 -> range_pred ~frac:(0.01 +. Random.State.float rng 0.3) schema rng t c
            | _ -> between_pred ~frac:(0.01 +. Random.State.float rng 0.1) schema rng t c)
          (pick_distinct rng npred cols))
      tables
  in
  let group_by =
    if Random.State.bool rng then
      let t = pick rng tables in
      List.map (col t) (pick_distinct rng (1 + Random.State.int rng 2) (predicate_columns t))
    else []
  in
  let agg_col =
    let t = pick rng tables in
    col t (pick rng (predicate_columns t))
  in
  let select =
    if group_by <> [] then
      List.map (fun c -> Ast.Col c) group_by
      @ [ Ast.Agg (pick rng [ Ast.Sum; Ast.Count; Ast.Avg; Ast.Min; Ast.Max ], agg_col) ]
    else begin
      let t = pick rng tables in
      List.map (fun c -> Ast.Col (col t c))
        (pick_distinct rng (1 + Random.State.int rng 3) (predicate_columns t))
    end
  in
  let order_by =
    if group_by = [] && Random.State.int rng 3 = 0 then
      let t = pick rng tables in
      [ (col t (pick rng (predicate_columns t)), Ast.Asc) ]
    else []
  in
  { Ast.query_id = id; tables; select; predicates = preds; joins; group_by; order_by }

let het schema ~n ~seed =
  let rng = Random.State.make [| seed; 0xbeef |] in
  List.init n (fun i ->
      { Ast.stmt = Ast.Select (het_query schema rng (i + 1)); weight = 1.0 })

(* --- Updates --- *)

let updatable = [
  ("lineitem", [ "l_extendedprice"; "l_discount"; "l_quantity" ],
   [ "l_orderkey"; "l_partkey"; "l_suppkey" ]);
  ("orders", [ "o_orderstatus"; "o_totalprice" ], [ "o_custkey"; "o_orderdate" ]);
  ("customer", [ "c_acctbal" ], [ "c_custkey"; "c_nationkey" ]);
  ("partsupp", [ "ps_availqty"; "ps_supplycost" ], [ "ps_partkey"; "ps_suppkey" ]);
]

let update schema rng id =
  let (t, settable, wherecols) = pick rng updatable in
  let set_columns = pick_distinct rng (1 + Random.State.int rng 2) settable in
  let wc = pick rng wherecols in
  { Ast.update_id = id; target = t; set_columns;
    where = [ eq_pred schema rng t wc ] }

(* Replace a fraction of a workload's statements with UPDATEs (keeping
   weights and ids). *)
let with_updates schema ~fraction ~seed (w : Ast.workload) =
  if fraction < 0.0 || fraction > 1.0 then
    invalid_arg "Gen.with_updates: fraction out of [0,1]";
  let rng = Random.State.make [| seed; 0xda7a |] in
  List.map
    (fun ({ Ast.stmt; weight } as orig) ->
      if Random.State.float rng 1.0 < fraction then
        { Ast.stmt = Ast.Update (update schema rng (Ast.statement_id stmt)); weight }
      else orig)
    w
