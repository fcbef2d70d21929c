(* Tests for the baseline advisors and the evaluation harness. *)

let schema = Catalog.Tpch.schema ()

let db_size = Catalog.Tpch.database_size schema

let workload ?(n = 6) ?(seed = 3) () = Workload.Gen.hom schema ~n ~seed

let x0 = Advisors.Eval.baseline_config ()

(* --- Eval --- *)

let test_baseline_config () =
  Alcotest.(check int) "8 clustered pks" 8 (Storage.Config.cardinal x0);
  Storage.Config.iter
    (fun ix -> Alcotest.(check bool) "clustered" true (Storage.Index.clustered ix))
    x0

let test_perf_metric () =
  let env = Optimizer.Whatif.make_env schema in
  let w = workload () in
  (* recommending nothing gives perf 0 *)
  Alcotest.(check (float 1e-9)) "empty rec" 0.0
    (Advisors.Eval.perf env w Storage.Config.empty ~baseline:x0);
  (* a genuinely useful configuration gives positive perf < 1 *)
  let useful = Storage.Config.of_list (Cophy.Cgen.generate w) in
  let p = Advisors.Eval.perf env w useful ~baseline:x0 in
  Alcotest.(check bool) "positive" true (p > 0.0 && p < 1.0)

(* --- Tool-B --- *)

let test_tool_b_respects_budget () =
  let env = Optimizer.Whatif.make_env schema in
  let budget = 0.3 *. db_size in
  let r = Advisors.Tool_b.solve env (workload ~n:10 ()) ~budget in
  Alcotest.(check bool) "within budget" true
    (Storage.Config.total_size schema r.Advisors.Eval.config <= budget +. 1.0);
  Alcotest.(check bool) "made what-if calls" true (r.Advisors.Eval.whatif_calls > 0)

let test_tool_b_compression_determinism () =
  let w = workload ~n:10 () in
  let r1 =
    Advisors.Tool_b.solve (Optimizer.Whatif.make_env schema) w ~budget:db_size
  in
  let r2 =
    Advisors.Tool_b.solve (Optimizer.Whatif.make_env schema) w ~budget:db_size
  in
  Alcotest.(check bool) "same seed, same result" true
    (Storage.Config.equal r1.Advisors.Eval.config r2.Advisors.Eval.config)

let test_tool_b_improves () =
  let env = Optimizer.Whatif.make_env schema in
  let w = workload ~n:10 () in
  let r = Advisors.Tool_b.solve env w ~budget:db_size in
  let p = Advisors.Eval.perf (Optimizer.Whatif.make_env schema) w r.Advisors.Eval.config ~baseline:x0 in
  Alcotest.(check bool) "positive improvement" true (p > 0.0)

(* --- Tool-A --- *)

let test_tool_a_respects_budget () =
  let env = Optimizer.Whatif.make_env schema in
  let budget = 0.3 *. db_size in
  let r = Advisors.Tool_a.solve env (workload ~n:6 ()) ~budget in
  Alcotest.(check bool) "within budget" true
    (Storage.Config.total_size schema r.Advisors.Eval.config <= budget +. 1.0)

let test_tool_a_improves () =
  let env = Optimizer.Whatif.make_env schema in
  let w = workload ~n:6 () in
  let r = Advisors.Tool_a.solve env w ~budget:db_size in
  let p = Advisors.Eval.perf (Optimizer.Whatif.make_env schema) w r.Advisors.Eval.config ~baseline:x0 in
  Alcotest.(check bool) "positive improvement" true (p > 0.0)

let test_tool_a_time_limit () =
  let env = Optimizer.Whatif.make_env schema in
  let options = { Advisors.Tool_a.time_limit = 0.0 } in
  let r = Advisors.Tool_a.solve ~options env (workload ~n:6 ()) ~budget:(0.1 *. db_size) in
  Alcotest.(check bool) "reports timeout" true r.Advisors.Eval.timed_out

let test_merge_indexes () =
  let a =
    Storage.Index.create ~table:"lineitem" ~includes:[ "l_tax" ]
      [ "l_shipdate"; "l_quantity" ]
  in
  let b =
    Storage.Index.create ~table:"lineitem" ~includes:[ "l_discount" ]
      [ "l_shipdate"; "l_extendedprice" ]
  in
  let m = Advisors.Tool_a.merge_indexes a b in
  Alcotest.(check (list string)) "prefix preserved"
    [ "l_shipdate"; "l_quantity"; "l_extendedprice" ]
    (Storage.Index.key_columns m);
  Alcotest.(check bool) "includes unioned" true
    (List.mem "l_tax" (Storage.Index.include_columns m)
    && List.mem "l_discount" (Storage.Index.include_columns m))

(* --- ILP --- *)

let test_ilp_small () =
  let env = Optimizer.Whatif.make_env schema in
  let w = workload ~n:4 ~seed:5 () in
  let cands =
    Cophy.Cgen.generate w |> List.filteri (fun i _ -> i mod 5 = 0)
    |> Array.of_list
  in
  let options =
    { Advisors.Ilp.default_options with
      Advisors.Ilp.per_table_cap = 2; per_query_cap = 8 }
  in
  let r = Advisors.Ilp.solve ~options env w cands ~budget:(0.5 *. db_size) in
  Alcotest.(check bool) "configurations enumerated" true
    (r.Advisors.Ilp.configurations > 0);
  (* an empty configuration is within any budget: the search must also
     have found an incumbent *)
  Alcotest.(check bool) "incumbent found" true
    (r.Advisors.Ilp.objective < infinity);
  (* a tiny instance: the search closes the gap long before its limit *)
  Alcotest.(check bool) "status optimal" true
    (r.Advisors.Ilp.status = Lp.Branch_bound.Optimal);
  Alcotest.(check bool) "within budget" true
    (Storage.Config.total_size schema r.Advisors.Ilp.config
     <= (0.5 *. db_size) +. 1.0);
  Alcotest.(check bool) "build time recorded" true
    (r.Advisors.Ilp.timings.Advisors.Ilp.build_seconds >= 0.0)

(* [jobs] reaches the ILP's branch and bound, whose rounds are
   bit-identical at every job count: jobs 1 and 2 give the same
   configuration, objective bits and status on a small W_hom instance. *)
let test_ilp_jobs_agree () =
  let env = Optimizer.Whatif.make_env schema in
  let w = workload ~n:6 ~seed:5 () in
  let cands =
    Cophy.Cgen.generate w |> List.filteri (fun i _ -> i mod 3 = 0)
    |> Array.of_list
  in
  let solve jobs =
    let options =
      { Advisors.Ilp.default_options with
        Advisors.Ilp.per_table_cap = 3; per_query_cap = 16; jobs }
    in
    Advisors.Ilp.solve ~options env w cands ~budget:(0.3 *. db_size)
  in
  let r1 = solve 1 and r2 = solve 2 in
  Alcotest.(check bool) "same configuration" true
    (Storage.Config.equal r1.Advisors.Ilp.config r2.Advisors.Ilp.config);
  Alcotest.(check int64) "same objective bits"
    (Int64.bits_of_float r1.Advisors.Ilp.objective)
    (Int64.bits_of_float r2.Advisors.Ilp.objective);
  Alcotest.(check bool) "same status" true
    (r1.Advisors.Ilp.status = r2.Advisors.Ilp.status)

let test_ilp_vs_cophy_quality () =
  (* on a tiny instance both formulations should find solutions of
     comparable quality *)
  let env = Optimizer.Whatif.make_env schema in
  let w = workload ~n:4 ~seed:5 () in
  let cands =
    Cophy.Cgen.generate w |> List.filteri (fun i _ -> i mod 5 = 0)
    |> Array.of_list
  in
  let budget = 0.5 *. db_size in
  let options =
    { Advisors.Ilp.default_options with
      Advisors.Ilp.per_table_cap = 3; per_query_cap = 16 }
  in
  let ri = Advisors.Ilp.solve ~options env w cands ~budget in
  Alcotest.(check bool) "ilp incumbent found" true
    (ri.Advisors.Ilp.objective < infinity);
  let rc =
    Cophy.Advisor.advise ~candidates:(Array.to_list cands) schema w
      ~budget_fraction:0.5
  in
  let eval_env = Optimizer.Whatif.make_env schema in
  let p_ilp = Advisors.Eval.perf eval_env w ri.Advisors.Ilp.config ~baseline:x0 in
  let p_cophy = Advisors.Eval.perf eval_env w rc.Cophy.Advisor.config ~baseline:x0 in
  (* CoPhy searches the unpruned space: it should be at least as good,
     modulo its 5% gap *)
  Alcotest.(check bool)
    (Printf.sprintf "cophy (%.3f) >= ilp (%.3f) - slack" p_cophy p_ilp)
    true
    (p_cophy >= p_ilp -. 0.08)

let () =
  Alcotest.run "advisors"
    [
      ( "eval",
        [
          Alcotest.test_case "baseline" `Quick test_baseline_config;
          Alcotest.test_case "perf metric" `Quick test_perf_metric;
        ] );
      ( "tool_b",
        [
          Alcotest.test_case "budget" `Quick test_tool_b_respects_budget;
          Alcotest.test_case "deterministic" `Quick test_tool_b_compression_determinism;
          Alcotest.test_case "improves" `Quick test_tool_b_improves;
        ] );
      ( "tool_a",
        [
          Alcotest.test_case "budget" `Quick test_tool_a_respects_budget;
          Alcotest.test_case "improves" `Quick test_tool_a_improves;
          Alcotest.test_case "time limit" `Quick test_tool_a_time_limit;
          Alcotest.test_case "merge" `Quick test_merge_indexes;
        ] );
      ( "ilp",
        [
          Alcotest.test_case "small instance" `Slow test_ilp_small;
          Alcotest.test_case "jobs 1/2 agree" `Slow test_ilp_jobs_agree;
          Alcotest.test_case "vs cophy" `Slow test_ilp_vs_cophy_quality;
        ] );
    ]
