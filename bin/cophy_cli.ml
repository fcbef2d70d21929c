(* The cophy command-line interface.

     cophy advise   — run the CoPhy advisor on a generated or SQL workload
     cophy compare  — run CoPhy and the baselines, report quality and time
     cophy pareto   — sweep the storage/cost Pareto curve (soft budget)

   All subcommands share the workload/schema options. *)

open Cmdliner

(* --- Shared options --- *)

let queries =
  let doc = "Number of statements in the generated workload." in
  Arg.(value & opt int 100 & info [ "n"; "queries" ] ~docv:"N" ~doc)

let seed =
  let doc = "Random seed for workload generation." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let skew =
  let doc = "Zipf skew z of the data (tpcdskew style; 0 = uniform)." in
  Arg.(value & opt float 0.0 & info [ "z"; "skew" ] ~docv:"Z" ~doc)

let scale =
  let doc = "TPC-H scale factor (1.0 is roughly 1 GB)." in
  Arg.(value & opt float 1.0 & info [ "sf"; "scale" ] ~docv:"SF" ~doc)

let budget =
  let doc = "Storage budget as a fraction of the database size." in
  Arg.(value & opt float 1.0 & info [ "m"; "budget" ] ~docv:"M" ~doc)

let shape =
  let doc = "Workload shape: $(b,hom) (15 TPC-H templates) or $(b,het) \
             (heterogeneous SPJ benchmark)." in
  Arg.(value & opt (enum [ ("hom", `Hom); ("het", `Het) ]) `Hom
       & info [ "workload" ] ~docv:"SHAPE" ~doc)

let updates =
  let doc = "Fraction of statements turned into UPDATEs." in
  Arg.(value & opt float 0.0 & info [ "updates" ] ~docv:"FRAC" ~doc)

let sql_file =
  let doc = "Tune the ';'-separated SQL statements in $(docv) instead of a \
             generated workload." in
  Arg.(value & opt (some file) None & info [ "sql" ] ~docv:"FILE" ~doc)

let gap =
  let doc = "Early-termination optimality gap (the paper uses 0.05)." in
  Arg.(value & opt float 0.05 & info [ "gap" ] ~docv:"GAP" ~doc)

let verbose =
  let doc = "Stream solver feedback (incumbent and bound) to stderr." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let jobs =
  let doc = "Worker domains for the parallel pipeline stages (INUM build, \
             decomposition).  0 means one per core.  The recommendation is \
             identical at every job count." in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let resolve_jobs j = if j <= 0 then Runtime.recommended_jobs () else j

let probe_budget_arg =
  let doc =
    "Up-front INUM what-if probes per query (0 = unlimited).  Deferred \
     probes resolve lazily when the advisor consults the incumbent \
     configuration, and the report carries a certified regret bound on \
     the remaining gap."
  in
  Arg.(value & opt int 16 & info [ "probe-budget" ] ~docv:"N" ~doc)

let resolve_probe_budget b = if b <= 0 then None else Some b

let explain_flag =
  let doc = "Print a per-statement explanation of the recommendation." in
  Arg.(value & flag & info [ "explain" ] ~doc)

let trace_arg =
  let doc =
    "Record pipeline spans and counters and write them as Chrome \
     trace_event JSON to $(docv) (open in chrome://tracing or Perfetto).  \
     Tracing never changes the recommendation."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* Start tracing before any work, so an unwritable path fails up front;
   the export is written when the process exits. *)
let with_trace trace f =
  (match trace with
  | None -> ()
  | Some file -> (
      match Runtime.Trace.record_to_file file with
      | Ok () -> ()
      | Error msg ->
          Fmt.epr "cannot write %s@." msg;
          exit 2));
  f ()

let make_inputs sf z shape n seed updates sql_file =
  let schema = Catalog.Tpch.schema ~sf ~z () in
  let workload =
    match sql_file with
    | Some file ->
        let ic = open_in file in
        let len = in_channel_length ic in
        let text = really_input_string ic len in
        close_in ic;
        List.map
          (fun stmt -> { Sqlast.Ast.stmt; weight = 1.0 })
          (Sqlast.Parse.script schema text)
    | None ->
        let base =
          match shape with
          | `Hom -> Workload.Gen.hom schema ~n ~seed
          | `Het -> Workload.Gen.het schema ~n ~seed
        in
        if updates > 0.0 then
          Workload.Gen.with_updates schema ~fraction:updates ~seed base
        else base
  in
  (schema, workload)

(* --- advise --- *)

let advise_cmd =
  let run n seed z sf m shape updates sql_file gap verbose explain jobs
      probe_budget trace =
    with_trace trace @@ fun () ->
    let jobs = resolve_jobs jobs in
    let probe_budget = resolve_probe_budget probe_budget in
    let schema, workload = make_inputs sf z shape n seed updates sql_file in
    let baseline = Advisors.Eval.baseline_config () in
    let solver_options =
      { Cophy.Solver.default_options with
        Cophy.Solver.gap_tolerance = gap;
        on_feedback =
          (if verbose then fun (f : Cophy.Solver.feedback) ->
             Fmt.epr "[%6.2fs] incumbent=%.0f bound=%.0f@."
               f.Cophy.Solver.elapsed f.Cophy.Solver.incumbent
               f.Cophy.Solver.bound
           else ignore) }
    in
    let r =
      Cophy.Advisor.advise ~baseline ~solver_options ~jobs ?probe_budget schema
        workload ~budget_fraction:m
    in
    Fmt.pr "# CoPhy recommendation (%d statements, budget %.2fx data)@."
      (List.length workload) m;
    Fmt.pr "# candidates=%d bip_variables=%d gap=%.1f%% jobs=%d@."
      (Array.length r.Cophy.Advisor.candidates)
      (Cophy.Sproblem.variable_count r.Cophy.Advisor.problem)
      (100.0 *. r.Cophy.Advisor.report.Cophy.Solver.gap)
      jobs;
    Fmt.pr "# time: inum=%.2fs build=%.2fs solve=%.2fs@."
      r.Cophy.Advisor.timings.Cophy.Advisor.inum_seconds
      r.Cophy.Advisor.timings.Cophy.Advisor.build_seconds
      r.Cophy.Advisor.timings.Cophy.Advisor.solve_seconds;
    Storage.Config.iter
      (fun ix ->
        Fmt.pr "CREATE INDEX ON %s; -- %.1f MB@."
          (Storage.Index.to_string ix)
          (Storage.Index.size_bytes schema ix /. 1e6))
      r.Cophy.Advisor.config;
    let env = Optimizer.Whatif.make_env schema in
    Fmt.pr "# estimated cost reduction: %.1f%%@."
      (100.0
      *. Advisors.Eval.perf env workload r.Cophy.Advisor.config ~baseline);
    if explain then begin
      Fmt.pr "@.# per-statement explanation (INUM model):@.";
      List.iter
        (fun (e : Cophy.Advisor.explanation) ->
          Fmt.pr "q%-4d %10.0f -> %10.0f  %s@." e.Cophy.Advisor.statement_id
            e.Cophy.Advisor.cost_before e.Cophy.Advisor.cost_after
            (String.concat "; "
               (List.map
                  (fun (t, pick) ->
                    match pick with
                    | Some ix -> Storage.Index.to_string ix
                    | None -> t ^ ": scan")
                  e.Cophy.Advisor.picks)))
        (Cophy.Advisor.explain r)
    end
  in
  let doc = "Recommend indexes with the CoPhy advisor." in
  Cmd.v (Cmd.info "advise" ~doc)
    Term.(
      const run $ queries $ seed $ skew $ scale $ budget $ shape $ updates
      $ sql_file $ gap $ verbose $ explain_flag $ jobs $ probe_budget_arg
      $ trace_arg)

(* --- compare --- *)

let compare_cmd =
  let advisors_arg =
    let doc = "Advisors to run (comma-separated): cophy, ilp, tool-a, tool-b." in
    Arg.(
      value
      & opt (list (enum [ ("cophy", `Cophy); ("ilp", `Ilp); ("tool-a", `ToolA);
                          ("tool-b", `ToolB) ]))
          [ `Cophy; `ToolB ]
      & info [ "advisors" ] ~docv:"LIST" ~doc)
  in
  let run n seed z sf m shape updates sql_file advisors jobs probe_budget trace
      =
    with_trace trace @@ fun () ->
    let jobs = resolve_jobs jobs in
    let probe_budget = resolve_probe_budget probe_budget in
    let schema, workload = make_inputs sf z shape n seed updates sql_file in
    let baseline = Advisors.Eval.baseline_config () in
    let budget_bytes = m *. Catalog.Tpch.database_size schema in
    Fmt.pr "%-8s %-8s %-10s %-8s@." "advisor" "perf" "time(s)" "indexes";
    List.iter
      (fun which ->
        let name, config, seconds =
          match which with
          | `Cophy ->
              let r =
                Cophy.Advisor.advise ~baseline ~jobs ?probe_budget schema
                  workload ~budget_fraction:m
              in
              ("cophy", r.Cophy.Advisor.config, Cophy.Advisor.total_seconds r)
          | `Ilp ->
              let env = Optimizer.Whatif.make_env schema in
              let cands = Array.of_list (Cophy.Cgen.generate workload) in
              let options = { Advisors.Ilp.default_options with jobs } in
              let r =
                Advisors.Ilp.solve ~options env workload cands
                  ~budget:budget_bytes
              in
              ( "ilp",
                r.Advisors.Ilp.config,
                r.Advisors.Ilp.timings.Advisors.Ilp.inum_seconds
                +. r.Advisors.Ilp.timings.Advisors.Ilp.build_seconds
                +. r.Advisors.Ilp.timings.Advisors.Ilp.solve_seconds )
          | `ToolA ->
              let env = Optimizer.Whatif.make_env schema in
              let r = Advisors.Tool_a.solve env workload ~budget:budget_bytes in
              ("tool-a", r.Advisors.Eval.config, r.Advisors.Eval.seconds)
          | `ToolB ->
              let env = Optimizer.Whatif.make_env schema in
              let r = Advisors.Tool_b.solve env workload ~budget:budget_bytes in
              ("tool-b", r.Advisors.Eval.config, r.Advisors.Eval.seconds)
        in
        let env = Optimizer.Whatif.make_env schema in
        Fmt.pr "%-8s %-8.4f %-10.2f %-8d@." name
          (Advisors.Eval.perf env workload config ~baseline)
          seconds
          (Storage.Config.cardinal config))
      advisors
  in
  let doc = "Run several advisors on the same input and compare them." in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(
      const run $ queries $ seed $ skew $ scale $ budget $ shape $ updates
      $ sql_file $ advisors_arg $ jobs $ probe_budget_arg $ trace_arg)

(* --- pareto --- *)

let pareto_cmd =
  let run n seed z sf shape updates sql_file jobs probe_budget trace =
    with_trace trace @@ fun () ->
    let jobs = resolve_jobs jobs in
    let probe_budget = resolve_probe_budget probe_budget in
    let schema, workload = make_inputs sf z shape n seed updates sql_file in
    let env = Optimizer.Whatif.make_env schema in
    let cache = Inum.build_workload ~jobs ?probe_budget env workload in
    let candidates = Array.of_list (Cophy.Cgen.generate workload) in
    let sp = Cophy.Sproblem.build env cache candidates in
    let points, solves =
      Cophy.Pareto.sweep sp ~metric_coeff:(Cophy.Pareto.storage_metric sp)
    in
    Fmt.pr "%-10s %-16s %-16s %s@." "lambda" "storage(MB)" "cost" "indexes";
    List.iter
      (fun (p : Cophy.Pareto.point) ->
        Fmt.pr "%-10.3f %-16.1f %-16.0f %d@." p.Cophy.Pareto.lambda
          (p.Cophy.Pareto.metric /. 1e6)
          p.Cophy.Pareto.cost
          (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0
             p.Cophy.Pareto.z))
      points;
    Fmt.pr "# %d solver invocations@." solves
  in
  let doc = "Generate the Pareto curve for a soft storage constraint." in
  Cmd.v (Cmd.info "pareto" ~doc)
    Term.(
      const run $ queries $ seed $ skew $ scale $ shape $ updates $ sql_file
      $ jobs $ probe_budget_arg $ trace_arg)

let main =
  let doc = "CoPhy: a scalable, portable, interactive index advisor" in
  Cmd.group (Cmd.info "cophy" ~doc ~version:"1.0.0")
    [ advise_cmd; compare_cmd; pareto_cmd ]

let () = exit (Cmd.eval main)
