(* Tests for the what-if optimizer substrate: the cost model, access-path
   selection, join planning, and update costing. *)

open Sqlast

let schema = Catalog.Tpch.schema ()
let params = Optimizer.Cost_params.default

let env () = Optimizer.Whatif.make_env schema

let ix ?clustered ?includes table keys =
  Storage.Index.create ?clustered ?includes ~table keys

let col = Ast.col_ref

let lineitem_scan_query ?(sel = 0.01) () =
  {
    Ast.query_id = 1;
    tables = [ "lineitem" ];
    select = [ Ast.Col (col "lineitem" "l_quantity") ];
    predicates =
      [ Ast.predicate ~selectivity:sel (col "lineitem" "l_shipdate") Ast.Eq ];
    joins = [];
    group_by = [];
    order_by = [];
  }

let join_query () =
  {
    Ast.query_id = 2;
    tables = [ "orders"; "lineitem" ];
    select =
      [ Ast.Col (col "orders" "o_orderdate");
        Ast.Agg (Ast.Sum, col "lineitem" "l_extendedprice") ];
    predicates =
      [ Ast.predicate ~selectivity:0.001 (col "orders" "o_orderdate") Ast.Eq ];
    joins =
      [ { Ast.left = col "orders" "o_orderkey";
          right = col "lineitem" "l_orderkey" } ];
    group_by = [ col "orders" "o_orderdate" ];
    order_by = [];
  }

(* --- Cost model primitives --- *)

let test_sort_cost_nonlinear () =
  let small = Optimizer.Cost_params.sort_cost params ~rows:1000.0 ~width:16 in
  let large = Optimizer.Cost_params.sort_cost params ~rows:100_000.0 ~width:16 in
  Alcotest.(check bool) "superlinear" true (large > 100.0 *. small);
  let spill =
    Optimizer.Cost_params.sort_cost params ~rows:1e8 ~width:200
  in
  Alcotest.(check bool) "spill adds io" true (spill > 2.0 *. 1e8 *. params.Optimizer.Cost_params.cpu_operator_cost)

let test_selectivity_combination () =
  let q = lineitem_scan_query ~sel:0.5 () in
  let rows = Optimizer.Card.filtered_rows schema q "lineitem" in
  Alcotest.(check (float 1.0)) "half the table" 3_000_000.0 rows

let test_join_selectivity () =
  let j = { Ast.left = col "orders" "o_orderkey"; right = col "lineitem" "l_orderkey" } in
  let sel = Optimizer.Card.join_selectivity schema j in
  Alcotest.(check (float 1e-12)) "1/max ndv" (1.0 /. 1_500_000.0) sel

let test_group_cardinality () =
  let g = Optimizer.Card.group_cardinality schema [ col "lineitem" "l_shipmode" ] ~rows:1e6 in
  Alcotest.(check (float 1e-9)) "7 modes" 7.0 g;
  let capped = Optimizer.Card.group_cardinality schema [ col "lineitem" "l_orderkey" ] ~rows:10.0 in
  Alcotest.(check (float 1e-9)) "capped by rows" 10.0 capped

(* --- Access paths --- *)

let test_seq_vs_index_selective () =
  let e = env () in
  let q = lineitem_scan_query ~sel:0.0001 () in
  let covering = ix ~includes:[ "l_quantity" ] "lineitem" [ "l_shipdate" ] in
  let c_scan = Optimizer.Whatif.cost e q Storage.Config.empty in
  let c_ix = Optimizer.Whatif.cost e q (Storage.Config.of_list [ covering ]) in
  Alcotest.(check bool) "index much cheaper" true (c_ix < c_scan /. 50.0)

let test_unselective_prefers_scan () =
  let e = env () in
  let q = lineitem_scan_query ~sel:0.9 () in
  (* non-covering index on an unselective predicate: fetches would dominate *)
  let bad = ix "lineitem" [ "l_shipdate" ] in
  let plan = Optimizer.Whatif.optimize e q (Storage.Config.of_list [ bad ]) in
  Alcotest.(check bool) "plan uses no index" true
    (Optimizer.Plan.indexes_used plan = [])

let test_covering_avoids_fetch () =
  let e = env () in
  let q = lineitem_scan_query ~sel:0.05 () in
  let covering = ix ~includes:[ "l_quantity" ] "lineitem" [ "l_shipdate" ] in
  let noncovering = ix "lineitem" [ "l_shipdate" ] in
  let c_cov = Optimizer.Whatif.cost e q (Storage.Config.of_list [ covering ]) in
  let c_non = Optimizer.Whatif.cost e q (Storage.Config.of_list [ noncovering ]) in
  Alcotest.(check bool) "covering cheaper" true (c_cov < c_non)

let test_order_satisfaction_eq_skip () =
  (* index (a, b) with equality on a delivers order on b *)
  let sat =
    Optimizer.Access.satisfies ~eq_cols:[ "a" ] ~required:[ "b" ] [ "a"; "b" ]
  in
  Alcotest.(check bool) "eq-bound skip" true sat;
  let unsat =
    Optimizer.Access.satisfies ~eq_cols:[] ~required:[ "b" ] [ "a"; "b" ]
  in
  Alcotest.(check bool) "no skip without eq" false unsat

let test_composite_seek () =
  let e = env () in
  let q =
    { (lineitem_scan_query ~sel:0.01 ()) with
      Ast.predicates =
        [ Ast.predicate ~selectivity:0.01 (col "lineitem" "l_shipmode") Ast.Eq;
          Ast.predicate ~selectivity:0.1 (col "lineitem" "l_shipdate") Ast.Le ] }
  in
  let composite = ix ~includes:[ "l_quantity" ] "lineitem" [ "l_shipmode"; "l_shipdate" ] in
  let single = ix ~includes:[ "l_quantity" ] "lineitem" [ "l_shipmode" ] in
  let c2 = Optimizer.Whatif.cost e q (Storage.Config.of_list [ composite ]) in
  let c1 = Optimizer.Whatif.cost e q (Storage.Config.of_list [ single ]) in
  Alcotest.(check bool) "eq+range prefix beats eq only" true (c2 < c1)

(* --- Join planning --- *)

let test_join_plan_improves_with_index () =
  let e = env () in
  let q = join_query () in
  let c0 = Optimizer.Whatif.cost e q Storage.Config.empty in
  let cfg =
    Storage.Config.of_list
      [ ix ~includes:[ "o_orderdate" ] "orders" [ "o_orderdate" ];
        ix ~includes:[ "l_extendedprice" ] "lineitem" [ "l_orderkey" ] ]
  in
  let c1 = Optimizer.Whatif.cost e q cfg in
  Alcotest.(check bool) "indexes help join" true (c1 < c0);
  (* with a very selective outer, the optimizer should pick an
     index-nested-loop probing lineitem on l_orderkey *)
  let plan = Optimizer.Whatif.optimize e q cfg in
  let rec has_nlj = function
    | Optimizer.Plan.Nest_loop _ -> true
    | Optimizer.Plan.Hash_join { build; probe; _ } -> has_nlj build || has_nlj probe
    | Optimizer.Plan.Merge_join { left; right; _ } -> has_nlj left || has_nlj right
    | Optimizer.Plan.Sort { child; _ } | Optimizer.Plan.Aggregate { child; _ } ->
        has_nlj child
    | _ -> false
  in
  Alcotest.(check bool) "nlj chosen" true (has_nlj plan)

let test_whatif_counts_calls () =
  let e = env () in
  ignore (Optimizer.Whatif.cost e (join_query ()) Storage.Config.empty);
  ignore (Optimizer.Whatif.cost e (join_query ()) Storage.Config.empty);
  Alcotest.(check int) "two calls" 2 (Optimizer.Whatif.whatif_calls e);
  Optimizer.Whatif.reset_calls e;
  Alcotest.(check int) "reset" 0 (Optimizer.Whatif.whatif_calls e)

let test_plan_cost_cumulative () =
  let e = env () in
  let plan = Optimizer.Whatif.optimize e (join_query ()) Storage.Config.empty in
  let total = Optimizer.Plan.cost plan in
  let max_child = function
    | Optimizer.Plan.Hash_join { build; probe; _ } ->
        max (Optimizer.Plan.cost build) (Optimizer.Plan.cost probe)
    | Optimizer.Plan.Merge_join { left; right; _ } ->
        max (Optimizer.Plan.cost left) (Optimizer.Plan.cost right)
    | Optimizer.Plan.Sort { child; _ } | Optimizer.Plan.Aggregate { child; _ } ->
        Optimizer.Plan.cost child
    | Optimizer.Plan.Nest_loop { outer; _ } -> Optimizer.Plan.cost outer
    | _ -> 0.0
  in
  Alcotest.(check bool) "parent >= children" true (total >= max_child plan)

(* --- Update costs --- *)

let test_update_costs () =
  let e = env () in
  let u =
    { Ast.update_id = 5; target = "lineitem"; set_columns = [ "l_quantity" ];
      where =
        [ Ast.predicate ~selectivity:1e-6 (col "lineitem" "l_orderkey") Ast.Eq ] }
  in
  let touched = ix "lineitem" [ "l_quantity" ] in
  let untouched = ix "lineitem" [ "l_shipdate" ] in
  let other_table = ix "orders" [ "o_orderdate" ] in
  Alcotest.(check bool) "touched costs" true
    (Optimizer.Whatif.update_cost e u touched > 0.0);
  Alcotest.(check (float 0.0)) "untouched free" 0.0
    (Optimizer.Whatif.update_cost e u untouched);
  Alcotest.(check (float 0.0)) "other table free" 0.0
    (Optimizer.Whatif.update_cost e u other_table);
  (* statement cost grows as affected indexes are added *)
  let base_cfg = Storage.Config.of_list [ untouched ] in
  let more_cfg = Storage.Config.add touched base_cfg in
  let c1 = Optimizer.Whatif.statement_cost e (Ast.Update u) base_cfg in
  let c2 = Optimizer.Whatif.statement_cost e (Ast.Update u) more_cfg in
  Alcotest.(check bool) "maintenance adds up" true (c2 > c1)

(* --- Workload cost --- *)

let test_workload_cost_additive () =
  let e = env () in
  let q = lineitem_scan_query () in
  let w1 = [ { Ast.stmt = Ast.Select q; weight = 1.0 } ] in
  let w2 = [ { Ast.stmt = Ast.Select q; weight = 2.0 } ] in
  let c1 = Optimizer.Whatif.workload_cost e w1 Storage.Config.empty in
  let c2 = Optimizer.Whatif.workload_cost e w2 Storage.Config.empty in
  Alcotest.(check (float 1e-6)) "weights scale" (2.0 *. c1) c2

(* qcheck: adding indexes never hurts a SELECT (monotonicity of what-if) *)
let prop_more_indexes_never_hurt =
  QCheck.Test.make ~name:"what-if cost monotone in configuration" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let e = env () in
      let w = Workload.Gen.hom schema ~n:5 ~seed in
      let cands = Cophy.Cgen.generate w in
      let half =
        List.filteri (fun i _ -> i mod 2 = 0) cands |> Storage.Config.of_list
      in
      let full = Storage.Config.of_list cands in
      List.for_all
        (fun { Ast.stmt; _ } ->
          match stmt with
          | Ast.Select q ->
              Optimizer.Whatif.cost e q full
              <= Optimizer.Whatif.cost e q half +. 1e-6
          | Ast.Update _ -> true)
        w)

(* Properties of order satisfaction. *)
let order_gen =
  QCheck.Gen.(
    let col = map (fun i -> Printf.sprintf "c%d" i) (int_range 0 5) in
    triple (list_size (int_range 0 3) col) (list_size (int_range 0 4) col)
      (list_size (int_range 0 3) col))

let prop_satisfies_prefix_closed =
  QCheck.Test.make ~name:"order satisfaction closed under required-prefix"
    ~count:200 (QCheck.make order_gen)
    (fun (required, given, eq_cols) ->
      let sat = Optimizer.Access.satisfies ~eq_cols ~required given in
      (not sat)
      ||
      (* every prefix of [required] is also satisfied *)
      let rec prefixes acc = function
        | [] -> [ List.rev acc ]
        | x :: rest -> List.rev acc :: prefixes (x :: acc) rest
      in
      List.for_all
        (fun p -> Optimizer.Access.satisfies ~eq_cols ~required:p given)
        (prefixes [] required))

let prop_satisfies_monotone_eq =
  QCheck.Test.make ~name:"more equality columns never break satisfaction"
    ~count:200 (QCheck.make order_gen)
    (fun (required, given, eq_cols) ->
      let sat = Optimizer.Access.satisfies ~eq_cols ~required given in
      (not sat)
      || Optimizer.Access.satisfies ~eq_cols:("extra" :: eq_cols) ~required
           given)

let test_plan_pp_smoke () =
  let e = env () in
  let plan = Optimizer.Whatif.optimize e (join_query ()) Storage.Config.empty in
  let s = Fmt.str "%a" Optimizer.Plan.pp plan in
  Alcotest.(check bool) "renders" true (String.length s > 20)

(* A join graph that leaves a table unreached forces a cross product:
   nation joins nothing, so the direct optimization and every template
   probe must still find a plan. *)
let test_disconnected_join_graph () =
  let e = env () in
  let q =
    {
      Ast.query_id = 3;
      tables = [ "lineitem"; "part"; "nation" ];
      select = [ Ast.Col (col "lineitem" "l_quantity") ];
      predicates = [];
      joins =
        [ { Ast.left = col "lineitem" "l_partkey";
            right = col "part" "p_partkey" } ];
      group_by = [];
      order_by = [];
    }
  in
  let c = Optimizer.Whatif.cost e q Storage.Config.empty in
  Alcotest.(check bool) "direct plan, finite cost" true (Float.is_finite c);
  let indexed =
    Optimizer.Whatif.cost e q
      (Storage.Config.of_list [ ix "part" [ "p_partkey" ] ])
  in
  Alcotest.(check bool) "an index never hurts" true (indexed <= c);
  Alcotest.(check bool) "template plan exists" true
    (Option.is_some
       (Optimizer.Whatif.template_plan e q
          ~slot_specs:[ ("part", Optimizer.Whatif.Spec_nlj "p_partkey") ]))

let () =
  Alcotest.run "optimizer"
    [
      ( "cost_model",
        [
          Alcotest.test_case "sort nonlinear" `Quick test_sort_cost_nonlinear;
          Alcotest.test_case "selectivity" `Quick test_selectivity_combination;
          Alcotest.test_case "join selectivity" `Quick test_join_selectivity;
          Alcotest.test_case "group cardinality" `Quick test_group_cardinality;
        ] );
      ( "access",
        [
          Alcotest.test_case "selective index wins" `Quick test_seq_vs_index_selective;
          Alcotest.test_case "unselective scan wins" `Quick test_unselective_prefers_scan;
          Alcotest.test_case "covering beats fetch" `Quick test_covering_avoids_fetch;
          Alcotest.test_case "eq-skip order" `Quick test_order_satisfaction_eq_skip;
          Alcotest.test_case "composite seek" `Quick test_composite_seek;
        ] );
      ( "joins",
        [
          Alcotest.test_case "indexes help joins" `Quick test_join_plan_improves_with_index;
          Alcotest.test_case "what-if call counting" `Quick test_whatif_counts_calls;
          Alcotest.test_case "cumulative costs" `Quick test_plan_cost_cumulative;
          Alcotest.test_case "disconnected join graph" `Quick
            test_disconnected_join_graph;
        ] );
      ( "updates",
        [
          Alcotest.test_case "maintenance costs" `Quick test_update_costs;
          Alcotest.test_case "workload additivity" `Quick test_workload_cost_additive;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_more_indexes_never_hurt;
          QCheck_alcotest.to_alcotest prop_satisfies_prefix_closed;
          QCheck_alcotest.to_alcotest prop_satisfies_monotone_eq;
          Alcotest.test_case "plan printing" `Quick test_plan_pp_smoke;
        ] );
    ]
