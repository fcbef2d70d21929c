(* The experiment harness: one function per table/figure of the paper's
   evaluation (§5 and appendix C).  Each experiment prints the series the
   paper reports; EXPERIMENTS.md records paper-vs-measured.

   Scale note: the paper runs 250-1000-statement workloads against CPLEX
   and commercial advisors on a 2.4 GHz machine.  Our substrate is a
   self-built optimizer and solver, so absolute numbers differ; the
   workload/candidate scales below are chosen so the full suite finishes
   in minutes while preserving the relative shapes.  The scale map is
   {250 -> 50, 500 -> 100, 1000 -> 200} statements, and ILP runs on a
   further-reduced grid because its atomic-configuration BIP (the very
   bottleneck the paper demonstrates) explodes. *)

let scaled = [ (250, 50); (500, 100); (1000, 200) ]

type scenario = {
  label : string;
  z : float;
  shape : [ `Hom | `Het ];
  n : int;
}

(* memoizes TPC-H schema construction across figures *)
let[@lint.allow
     global_state
       "the bench driver runs experiments sequentially, so the table is \
        never shared between domains"] schema_cache :
    (float, Catalog.Schema.t) Hashtbl.t =
  Hashtbl.create 4

let schema_for z =
  match Hashtbl.find_opt schema_cache z with
  | Some s -> s
  | None ->
      let s = Catalog.Tpch.schema ~sf:1.0 ~z () in
      Hashtbl.add schema_cache z s;
      s

let workload_for schema shape n ~seed =
  match shape with
  | `Hom -> Workload.Gen.hom schema ~n ~seed
  | `Het -> Workload.Gen.het schema ~n ~seed

let baseline = Advisors.Eval.baseline_config ()

let fresh_env schema = Optimizer.Whatif.make_env schema

(* Ground-truth perf via direct what-if (§5.1). *)
let perf_of schema w config =
  Advisors.Eval.perf (fresh_env schema) w config ~baseline

(* --- Advisor runners (uniform interface) --- *)

type run = {
  config : Storage.Config.t;
  seconds : float;
  inum_s : float;     (* INUM cache time, when the technique uses INUM *)
  build_s : float;    (* BIP/enumeration building time *)
  solve_s : float;
  note : string;
}

let run_cophy ?candidates ?(gap = 0.05) schema w ~m =
  let solver_options =
    { Cophy.Solver.default_options with Cophy.Solver.gap_tolerance = gap }
  in
  let r =
    Cophy.Advisor.advise ?candidates ~baseline ~solver_options schema w
      ~budget_fraction:m
  in
  {
    config = r.Cophy.Advisor.config;
    seconds = Cophy.Advisor.total_seconds r;
    inum_s = r.Cophy.Advisor.timings.Cophy.Advisor.inum_seconds;
    build_s = r.Cophy.Advisor.timings.Cophy.Advisor.build_seconds;
    solve_s = r.Cophy.Advisor.timings.Cophy.Advisor.solve_seconds;
    note = "";
  }

let run_tool_a ?(time_limit = 120.0) schema w ~m =
  let env = fresh_env schema in
  let options = { Advisors.Tool_a.time_limit } in
  let budget = m *. Catalog.Tpch.database_size schema in
  let r = Advisors.Tool_a.solve ~options env w ~budget in
  {
    config = r.Advisors.Eval.config;
    seconds = r.Advisors.Eval.seconds;
    inum_s = 0.0;
    build_s = 0.0;
    solve_s = r.Advisors.Eval.seconds;
    note = (if r.Advisors.Eval.timed_out then "timed out" else "");
  }

let run_tool_b ?(time_limit = 300.0) schema w ~m =
  let env = fresh_env schema in
  let options = { Advisors.Tool_b.time_limit } in
  let budget = m *. Catalog.Tpch.database_size schema in
  let r = Advisors.Tool_b.solve ~options env w ~budget in
  {
    config = r.Advisors.Eval.config;
    seconds = r.Advisors.Eval.seconds;
    inum_s = 0.0;
    build_s = 0.0;
    solve_s = r.Advisors.Eval.seconds;
    note = "";
  }

let run_ilp ?(options = Advisors.Ilp.default_options) schema w ~m ~candidates =
  let env = fresh_env schema in
  let budget = m *. Catalog.Tpch.database_size schema in
  let r = Advisors.Ilp.solve ~options env w candidates ~budget in
  {
    config = r.Advisors.Ilp.config;
    seconds =
      r.Advisors.Ilp.timings.Advisors.Ilp.inum_seconds
      +. r.Advisors.Ilp.timings.Advisors.Ilp.build_seconds
      +. r.Advisors.Ilp.timings.Advisors.Ilp.solve_seconds;
    inum_s = r.Advisors.Ilp.timings.Advisors.Ilp.inum_seconds;
    build_s = r.Advisors.Ilp.timings.Advisors.Ilp.build_seconds;
    solve_s = r.Advisors.Ilp.timings.Advisors.Ilp.solve_seconds;
    note =
      (* A [Limit] status means branch and bound stopped at its time
         limit: with an incumbent the objective is unproven, without one
         the configuration is empty and the time is the limit, not a
         result. *)
      (match r.Advisors.Ilp.status with
      | Lp.Branch_bound.Limit when r.Advisors.Ilp.objective < infinity ->
          Printf.sprintf "%d atomic configs, obj %.2f (limit, unproven)"
            r.Advisors.Ilp.configurations r.Advisors.Ilp.objective
      | Lp.Branch_bound.Limit ->
          Printf.sprintf "%d atomic configs; limit, no incumbent"
            r.Advisors.Ilp.configurations
      | Lp.Branch_bound.Optimal | Lp.Branch_bound.Infeasible
      | Lp.Branch_bound.Unbounded ->
          Printf.sprintf "%d atomic configs, obj %.2f"
            r.Advisors.Ilp.configurations r.Advisors.Ilp.objective);
  }

let section title =
  Fmt.pr "@.==========================================================@.";
  Fmt.pr "%s@." title;
  Fmt.pr "==========================================================@."

(* --- Table 1 (+ appendix z=1): quality ratio vs commercial tools --- *)

let table1 () =
  section
    "Table 1: perf(CoPhy)/perf(tool) for data skew x workload shape\n\
     (paper: ratios 1.02-2.29, Tool-A times out on z=2 het)";
  Fmt.pr "%-6s %-10s %-12s %-12s %-10s@." "z" "workload" "vs Tool-A"
    "vs Tool-B" "notes";
  let scenarios =
    [ (0.0, `Hom); (0.0, `Het); (1.0, `Hom); (2.0, `Hom); (2.0, `Het) ]
  in
  List.iter
    (fun (z, shape) ->
      let schema = schema_for z in
      let n = 200 in
      let w = workload_for schema shape n ~seed:7 in
      let cophy = run_cophy schema w ~m:1.0 in
      let ta = run_tool_a ~time_limit:240.0 schema w ~m:1.0 in
      let tb = run_tool_b ~time_limit:120.0 schema w ~m:1.0 in
      let p_cophy = perf_of schema w cophy.config in
      let p_a = perf_of schema w ta.config in
      let p_b = perf_of schema w tb.config in
      let ratio p = if p <= 0.0 then infinity else p_cophy /. p in
      Fmt.pr "%-6.1f %-10s %-12.2f %-12.2f %s@." z
        (match shape with `Hom -> "hom" | `Het -> "het")
        (ratio p_a) (ratio p_b)
        (if ta.note <> "" then "Tool-A " ^ ta.note else ""))
    scenarios

(* --- Figure 4: execution time vs workload size (hom, z=0) --- *)

let fig4 () =
  section
    "Figure 4: advisor execution time vs workload size (hom, z=0)\n\
     (paper: CoPhy fastest at 500/1000; >=10x faster than Tool-A)";
  Fmt.pr "%-8s %-10s %-10s %-10s@." "|W|" "CoPhy(s)" "Tool-A(s)" "Tool-B(s)";
  let schema = schema_for 0.0 in
  List.iter
    (fun (paper_n, n) ->
      let w = workload_for schema `Hom n ~seed:7 in
      let c = run_cophy schema w ~m:1.0 in
      let a = run_tool_a ~time_limit:600.0 schema w ~m:1.0 in
      let b = run_tool_b schema w ~m:1.0 in
      Fmt.pr "%-8s %-10.2f %-10.2f %-10.2f@."
        (Printf.sprintf "%d(%d)" paper_n n)
        c.seconds a.seconds b.seconds)
    scaled

(* --- Figure 5: CoPhy vs ILP, time vs candidate-set size --- *)

let fig5 () =
  section
    "Figure 5: CoPhy vs ILP execution time vs |S| (with breakdown)\n\
     (paper: CoPhy an order of magnitude faster; ILP dominated by build)";
  let schema = schema_for 0.0 in
  let n = 30 in
  let w = workload_for schema `Hom n ~seed:7 in
  let all = Cophy.Cgen.generate w in
  let s_all = Array.of_list all in
  let sized name cands =
    (name, cands)
  in
  let sets =
    [ sized "S_50" (Array.sub s_all 0 (min 50 (Array.length s_all)));
      sized "S_100" (Array.sub s_all 0 (min 100 (Array.length s_all)));
      sized "S_ALL" s_all;
      sized "S_L"
        (Array.of_list
           (all @ Cophy.Cgen.random_candidates schema ~n:1000 ~seed:5)) ]
  in
  Fmt.pr "%-8s %-6s | %-28s | %-28s@." "S" "|S|" "CoPhy inum/build/solve (s)"
    "ILP inum/build/solve (s)";
  List.iter
    (fun (name, cands) ->
      let c = run_cophy ~candidates:(Array.to_list cands) schema w ~m:1.0 in
      let ilp_opts =
        { Advisors.Ilp.default_options with
          Advisors.Ilp.per_table_cap = 3; per_query_cap = 12;
          time_limit = 180.0 }
      in
      let i = run_ilp ~options:ilp_opts schema w ~m:1.0 ~candidates:cands in
      Fmt.pr "%-8s %-6d | %6.2f %6.2f %6.2f (%6.2f) | %6.2f %6.2f %6.2f (%6.2f) %s@."
        name (Array.length cands) c.inum_s c.build_s c.solve_s c.seconds
        i.inum_s i.build_s i.solve_s i.seconds i.note)
    sets

(* --- Figure 6a: solution-quality feedback over time --- *)

let fig6a () =
  section
    "Figure 6a: optimality-gap feedback over time, three workloads\n\
     (paper: bound drops fast early, then a long tail to optimal)";
  let schema = schema_for 0.0 in
  List.iter
    (fun (paper_n, n) ->
      let w = workload_for schema `Hom n ~seed:7 in
      let env = fresh_env schema in
      let cache = Inum.build_workload env w in
      let cands = Array.of_list (Cophy.Cgen.generate w) in
      let sp = Cophy.Sproblem.build env cache cands in
      let budget = Catalog.Tpch.database_size schema in
      let events = ref [] in
      let options =
        { Cophy.Solver.default_options with
          Cophy.Solver.gap_tolerance = 0.005;
          max_iters = 150;
          on_feedback = (fun e -> events := e :: !events) }
      in
      ignore (Cophy.Solver.solve ~options sp ~budget ~z_rows:[] ~block_caps:[]);
      let events = List.rev !events in
      Fmt.pr "@.W_%d (%d stmts): %d feedback events@." paper_n n
        (List.length events);
      Fmt.pr "  %-10s %-14s %-14s %-8s@." "t(s)" "incumbent" "bound" "gap%";
      let total = List.length events in
      List.iteri
        (fun i (e : Cophy.Solver.feedback) ->
          if i < 3 || i mod (max 1 (total / 8)) = 0 || i = total - 1 then
            Fmt.pr "  %-10.3f %-14.0f %-14.0f %-8.2f@." e.Cophy.Solver.elapsed
              e.Cophy.Solver.incumbent e.Cophy.Solver.bound
              (100.0
              *. (e.Cophy.Solver.incumbent -. e.Cophy.Solver.bound)
              /. (abs_float e.Cophy.Solver.incumbent +. 1e-9)))
        events)
    scaled

(* --- Figure 6b: interactive re-tuning time vs added candidates --- *)

let fig6b () =
  section
    "Figure 6b: re-tune time after adding candidates (warm vs initial)\n\
     (paper: retuning ~an order of magnitude faster than solving fresh)";
  let schema = schema_for 0.0 in
  let w = workload_for schema `Hom 100 ~seed:7 in
  let budget = Catalog.Tpch.database_size schema in
  let session = Cophy.Interactive.create schema w ~budget in
  let t0 = Runtime.Clock.now () in
  ignore (Cophy.Interactive.retune session);
  let initial = Runtime.Clock.now () -. t0 in
  Fmt.pr "initial solve: %.2fs@." initial;
  Fmt.pr "%-12s %-12s %-10s@." "+candidates" "retune(s)" "speedup";
  List.iter
    (fun k ->
      let extra = Cophy.Cgen.random_candidates schema ~n:k ~seed:(1000 + k) in
      Cophy.Interactive.add_candidates session extra;
      let t1 = Runtime.Clock.now () in
      ignore (Cophy.Interactive.retune session);
      let dt = Runtime.Clock.now () -. t1 in
      Fmt.pr "%-12d %-12.2f %-10.1fx@." k dt (initial /. dt))
    [ 10; 25; 50; 100 ]

(* --- Figure 6c: Pareto curve generation time --- *)

let fig6c () =
  section
    "Figure 6c: time per Pareto point, warm-start reuse vs naive\n\
     (paper: ~4x speedup from reusing computation across points)";
  let schema = schema_for 0.0 in
  let w = workload_for schema `Hom 60 ~seed:7 in
  let env = fresh_env schema in
  let cache = Inum.build_workload env w in
  let cands = Array.of_list (Cophy.Cgen.generate w) in
  let sp = Cophy.Sproblem.build env cache cands in
  let metric = Cophy.Pareto.storage_metric sp in
  let t0 = Runtime.Clock.now () in
  let warm_points, warm_solves =
    Cophy.Pareto.sweep ~epsilon:0.02 ~max_points:5 sp ~metric_coeff:metric
  in
  let warm = Runtime.Clock.now () -. t0 in
  let t1 = Runtime.Clock.now () in
  let _, naive_solves =
    Cophy.Pareto.sweep ~epsilon:0.02 ~max_points:5 ~reuse:false sp
      ~metric_coeff:metric
  in
  let naive = Runtime.Clock.now () -. t1 in
  Fmt.pr "points=%d  warm: %.2fs (%d solves)  naive: %.2fs (%d solves)  speedup %.1fx@."
    (List.length warm_points) warm warm_solves naive naive_solves
    (naive /. warm);
  Fmt.pr "%-10s %-14s %-14s@." "lambda" "storage(MB)" "cost";
  List.iter
    (fun (p : Cophy.Pareto.point) ->
      Fmt.pr "%-10.3f %-14.1f %-14.0f@." p.Cophy.Pareto.lambda
        (p.Cophy.Pareto.metric /. 1e6) p.Cophy.Pareto.cost)
    warm_points

(* --- Figure 7: quality vs workload size (hom) --- *)

let fig7 () =
  section
    "Figure 7: solution quality vs workload size (hom, z=0)\n\
     (paper: CoPhy highest and flat; Tool-A degrades with size)";
  Fmt.pr "%-8s %-10s %-10s %-10s@." "|W|" "CoPhy" "Tool-A" "Tool-B";
  let schema = schema_for 0.0 in
  List.iter
    (fun (paper_n, n) ->
      let w = workload_for schema `Hom n ~seed:7 in
      let c = run_cophy schema w ~m:1.0 in
      let a = run_tool_a ~time_limit:(10.0 +. (float_of_int n *. 0.6)) schema w ~m:1.0 in
      let b = run_tool_b schema w ~m:1.0 in
      Fmt.pr "%-8s %-10.3f %-10.3f %-10.3f@."
        (Printf.sprintf "%d(%d)" paper_n n)
        (perf_of schema w c.config) (perf_of schema w a.config)
        (perf_of schema w b.config))
    scaled

(* --- Figure 8: quality vs space budget --- *)

let fig8 () =
  section
    "Figure 8: perf ratio vs space budget M in {0.5, 1, 2} (hom, z=0)\n\
     (paper: CoPhy better at every budget)";
  Fmt.pr "%-8s %-12s %-12s@." "M" "vs Tool-A" "vs Tool-B";
  let schema = schema_for 0.0 in
  let w = workload_for schema `Hom 100 ~seed:7 in
  List.iter
    (fun m ->
      let c = run_cophy schema w ~m in
      let a = run_tool_a ~time_limit:90.0 schema w ~m in
      let b = run_tool_b schema w ~m in
      let pc = perf_of schema w c.config in
      let pa = perf_of schema w a.config in
      let pb = perf_of schema w b.config in
      Fmt.pr "%-8.1f %-12.2f %-12.2f@." m
        (if pa <= 0.0 then infinity else pc /. pa)
        (if pb <= 0.0 then infinity else pc /. pb))
    [ 0.5; 1.0; 2.0 ]

(* --- Figure 9: quality vs workload size (het), CoPhy vs Tool-B --- *)

let fig9 () =
  section
    "Figure 9: quality on heterogeneous workloads, CoPhy vs Tool-B\n\
     (paper: compression hurts Tool-B on het; CoPhy stays high)";
  Fmt.pr "%-8s %-10s %-10s@." "|W|" "CoPhy" "Tool-B";
  let schema = schema_for 0.0 in
  List.iter
    (fun (paper_n, n) ->
      let w = workload_for schema `Het n ~seed:7 in
      let c = run_cophy schema w ~m:1.0 in
      let b = run_tool_b ~time_limit:120.0 schema w ~m:1.0 in
      Fmt.pr "%-8s %-10.3f %-10.3f@."
        (Printf.sprintf "%d(%d)" paper_n n)
        (perf_of schema w c.config) (perf_of schema w b.config))
    scaled

(* --- Figure 10: CoPhy vs ILP, time vs workload size --- *)

let fig10 () =
  section
    "Figure 10: CoPhy vs ILP execution time vs |W| (with breakdown)\n\
     (paper: >=5x gap at every size; ILP dominated by pruning/building)";
  let schema = schema_for 0.0 in
  Fmt.pr "%-8s | %-30s | %-30s@." "|W|" "CoPhy inum/build/solve (s)"
    "ILP inum/build/solve (s)";
  List.iter
    (fun n ->
      let w = workload_for schema `Hom n ~seed:7 in
      let cands = Array.of_list (Cophy.Cgen.generate w) in
      let c = run_cophy ~candidates:(Array.to_list cands) schema w ~m:1.0 in
      let ilp_opts =
        { Advisors.Ilp.default_options with
          Advisors.Ilp.per_table_cap = 3; per_query_cap = 12;
          time_limit = 180.0 }
      in
      let i = run_ilp ~options:ilp_opts schema w ~m:1.0 ~candidates:cands in
      Fmt.pr "%-8d | %6.2f %6.2f %6.2f (%6.2f) | %6.2f %6.2f %6.2f (%6.2f) %s@."
        n c.inum_s c.build_s c.solve_s c.seconds i.inum_s i.build_s i.solve_s
        i.seconds i.note)
    [ 15; 30; 60 ]

(* --- Ablations: the design choices DESIGN.md calls out --- *)

let ablations () =
  section "Ablations: slot dominance pruning, warm-started Pareto sweeps";
  let schema = schema_for 0.0 in
  let w = workload_for schema `Hom 30 ~seed:7 in
  let env = fresh_env schema in
  let cache = Inum.build_workload env w in
  let cands = Array.of_list (Cophy.Cgen.generate w) in
  let sp = Cophy.Sproblem.build env cache cands in

  (* 1. slot dominance pruning on/off *)
  let sp_nopruning = Cophy.Sproblem.build ~prune:false env cache cands in
  Fmt.pr "@.[slot pruning] BIP variables with pruning: %d, without: %d (%.1fx)@."
    (Cophy.Sproblem.variable_count sp)
    (Cophy.Sproblem.variable_count sp_nopruning)
    (float_of_int (Cophy.Sproblem.variable_count sp_nopruning)
    /. float_of_int (Cophy.Sproblem.variable_count sp));

  (* 2. warm vs cold Pareto sweep (also in fig6c, repeated here compactly) *)
  let metric = Cophy.Pareto.storage_metric sp in
  let t0 = Runtime.Clock.now () in
  let _, s_warm = Cophy.Pareto.sweep ~epsilon:0.02 ~max_points:5 sp ~metric_coeff:metric in
  let warm = Runtime.Clock.now () -. t0 in
  let t1 = Runtime.Clock.now () in
  let _, s_cold =
    Cophy.Pareto.sweep ~epsilon:0.02 ~max_points:5 ~reuse:false sp
      ~metric_coeff:metric
  in
  let cold = Runtime.Clock.now () -. t1 in
  Fmt.pr "@.[pareto reuse] warm %.2fs (%d solves) vs cold %.2fs (%d solves)@."
    warm s_warm cold s_cold

let all =
  [ ("table1", table1); ("fig4", fig4); ("fig5", fig5); ("fig6a", fig6a);
    ("fig6b", fig6b); ("fig6c", fig6c); ("fig7", fig7); ("fig8", fig8);
    ("fig9", fig9); ("fig10", fig10); ("ablations", ablations) ]
