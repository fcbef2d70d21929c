(* Benchmark entry point.

   Default mode runs the paper-reproduction experiment harness: one
   section per table/figure of the evaluation (Table 1, Figures 4-10),
   printing the same series the paper reports.

     dune exec bench/main.exe                    # every experiment
     dune exec bench/main.exe -- table1 fig5     # a subset
     dune exec bench/main.exe -- --micro         # micro + macro benchmarks
     dune exec bench/main.exe -- --micro --jobs 4
     dune exec bench/main.exe -- --json out.json # machine-readable baseline

   The micro suite measures the primitives with Bechamel (what-if
   optimization, INUM cache construction and cost evaluation, simplex
   solves, decomposition iterations) and then times the macro INUM
   workload-cache build on a 100-statement workload at the requested
   --jobs, printing the total what-if call count and the final
   recommendation so job counts can be checked for identical results.

   --json <file> runs the full pipeline once and writes stage wall-times
   and the result in a stable schema (schema_version 9) as a
   machine-readable perf baseline; per-layer counters come from
   --trace.  The pipeline runs at the --probe-budget (default 16 per
   query; 0 = unlimited) and the
   "inum" section records the lazy-probing stats of that run next to an
   unlimited-budget leg whose certified objective is bit-identical to
   eager probing (regret 0).  It also times the LP relaxation of a
   materialized Theorem-1 BIP (presolve + sparse simplex, the production
   LP path), replays a drifting workload through the serve engine (the
   "serve" section: events/sec, latency quantiles, cache hit
   rate, warm-vs-scratch retune latency at equal certified objective).

   --trace <file> turns on Runtime.Trace for the run and writes the
   Chrome trace_event export to <file>; under --json the flat trace
   metrics (per-phase span totals and counters) are additionally
   embedded in the bench JSON under the "trace" key (null when tracing
   is off). *)

let bench_n = 100
let bench_seed = 7
let bench_budget_fraction = 0.5

(* Default per-query INUM probe budget (--probe-budget; 0 = unlimited).
   16 keeps the hom n=100 pipeline >= 3x under BENCH_4's 3145 probes
   (build + completion-loop forcing included) while the advisor's refine
   loop still certifies the recommendation's cost exactly. *)
let default_probe_budget = 16

(* Workload size for the materialized-BIP LP timing (kept at the size
   every committed BENCH_*.json "lp" section used). *)
let lp_bench_n = 20

(* Sorted index list of a configuration — a stable identity for
   cross-job-count comparisons. *)
let config_indexes config =
  let acc = ref [] in
  Storage.Config.iter (fun ix -> acc := Storage.Index.to_string ix :: !acc) config;
  List.sort compare !acc

(* Macro benchmark backing the acceptance criterion: INUM workload-cache
   construction on a 100-statement workload, then a full advise, with
   everything needed to compare job counts printed. *)
let macro_suite ~jobs ~probe_budget =
  let schema = Catalog.Tpch.schema () in
  let w = Workload.Gen.hom schema ~n:bench_n ~seed:bench_seed in
  let env = Optimizer.Whatif.make_env schema in
  let t0 = Runtime.Clock.now () in
  let cache = Inum.build_workload ~jobs ?probe_budget env w in
  let dt = Runtime.Clock.now () -. t0 in
  Fmt.pr
    "inum_build n=%d jobs=%d: %.3fs (total_init_calls=%d pending=%d \
     regret=%.3f truncated=%d)@."
    bench_n jobs dt
    (Inum.total_init_calls cache)
    (Inum.cache_pending cache) (Inum.cache_regret cache)
    (Inum.cache_truncated cache);
  let r =
    Cophy.Advisor.advise ~jobs ?probe_budget schema w
      ~budget_fraction:bench_budget_fraction
  in
  Fmt.pr "recommendation jobs=%d: objective=%.6f indexes=[%s]@." jobs
    r.Cophy.Advisor.report.Cophy.Solver.objective
    (String.concat "; " (config_indexes r.Cophy.Advisor.config))

(* LP solve-phase timing on a materialized Theorem-1 BIP — the instance
   class where the kernel dominates the solve.  Returns the JSON
   fragment; its kernel and presolve counters are the Runtime.Trace
   counters the solve ticked (tracing is switched on for the solve when
   --trace is off).  With [check] set, the model is analyzed with
   [Lp.Analyze.check] before the solve (static errors abort) and the
   relaxation optimum is certified afterwards; the certificate summary
   lands in the JSON. *)
let lp_phase ?(check = false) () =
  let schema = Catalog.Tpch.schema () in
  let w = Workload.Gen.hom schema ~n:lp_bench_n ~seed:bench_seed in
  let env = Optimizer.Whatif.make_env schema in
  let cache = Inum.build_workload env w in
  let cands = Array.of_list (Cophy.Cgen.generate w) in
  let sp = Cophy.Sproblem.build env cache cands in
  let budget = bench_budget_fraction *. Catalog.Tpch.database_size schema in
  let p, _vars = Cophy.Sproblem.to_lp ~budget sp in
  if check then begin
    let issues = Lp.Analyze.check p in
    List.iter (fun i -> Fmt.epr "check: %a@." Lp.Analyze.pp_issue i) issues;
    if Lp.Analyze.has_errors issues then begin
      Fmt.epr "check: BIP scenario model has errors@.";
      exit 1
    end
  end;
  let traced = Runtime.Trace.enabled () in
  Runtime.Trace.enable ();
  let before = Runtime.Trace.counters () in
  let t0 = Runtime.Clock.now () in
  let r = Lp.Presolve.solve p in
  let dt = Runtime.Clock.now () -. t0 in
  let after = Runtime.Trace.counters () in
  if not traced then Runtime.Trace.disable ();
  let count name =
    let get l = Option.value ~default:0 (List.assoc_opt name l) in
    get after - get before
  in
  let cert_json =
    if not check then ""
    else
      match r.Lp.Simplex.status with
      | Lp.Simplex.Optimal ->
          (* Certify against rows and bounds; duals come along for the
             dual-residual check, report-only because presolve ran.
             [int_vars:[]]: this is the LP relaxation, so the binary
             marks are intentionally not enforced on the optimum. *)
          let cert =
            Lp.Analyze.certify ~duals:r.Lp.Simplex.duals
              ~obj:(r.Lp.Simplex.obj +. Lp.Problem.obj_offset p)
              ~int_vars:[] p r.Lp.Simplex.x
          in
          if not cert.Lp.Analyze.cert_ok then begin
            List.iter (Fmt.epr "certify: %s@.") cert.Lp.Analyze.cert_issues;
            Fmt.epr "certify: BIP scenario relaxation failed certification@.";
            exit 1
          end;
          Printf.sprintf {|,"certificate":%S|}
            (Lp.Analyze.certificate_summary cert)
      | _ ->
          Fmt.epr "certify: BIP scenario relaxation did not solve to optimal@.";
          exit 1
  in
  Printf.sprintf
    {|{"n":%d,"rows":%d,"vars":%d,"status":"%s","objective":%.6f,"solve_seconds":%.6f,"pivots":%d,"refactorizations":%d,"presolve":{"rows_removed":%d,"vars_removed":%d,"bounds_tightened":%d}%s}|}
    lp_bench_n (Lp.Problem.nrows p) (Lp.Problem.nvars p)
    (match r.Lp.Simplex.status with
    | Lp.Simplex.Optimal -> "optimal"
    | Lp.Simplex.Infeasible -> "infeasible"
    | Lp.Simplex.Unbounded -> "unbounded"
    | Lp.Simplex.Iter_limit -> "iter_limit")
    r.Lp.Simplex.obj dt (count "simplex.pivots")
    (count "simplex.refactorizations")
    (count "presolve.rows_removed")
    (count "presolve.vars_removed")
    (count "presolve.bounds_tightened")
    cert_json

(* Serving benchmark backing the daemon's acceptance criteria: replay a
   drifting workload (bench_n templates) through the serve engine, then
   compare warm retunes against cold from-scratch solves.

   Reported invariants:
   - [repeat_probes] must be 0: a repeat query (same canonical key) never
     costs an optimizer probe, so keyed-store misses = distinct keys.
   - [objectives_equal]: every warm retune lands on the same certified
     objective as a from-scratch solve of the identical instance, up to
     the solver's termination gap (both paths stop at [gap_tolerance],
     so their incumbents can differ within it; the observed worst case
     is recorded as [max_objective_rel_diff], typically ~1e-4).
     Certification itself runs inside the solver ([certify:true]), so a
     bad solution on either path aborts the bench.
   - [speedup]: median warm retune latency vs. median cold solve (fresh
     optimizer env, fresh store: the batch path the daemon replaces). *)
let serve_events = 300
let serve_drift_steps = 3

let serve_phase ~jobs () =
  let schema = Catalog.Tpch.schema () in
  let events =
    Workload.Replay.drift ~recommend_every:50 schema ~n:bench_n
      ~events:serve_events ~seed:bench_seed
  in
  let engine = Serve.Engine.create ~window:256 ~jobs schema in
  let distinct = Hashtbl.create 64 in
  let n_statements = ref 0 in
  let n_recommends = ref 0 in
  let t0 = Runtime.Clock.now () in
  List.iter
    (fun ev ->
      match ev with
      | Workload.Replay.Statement (s, d) ->
          incr n_statements;
          Hashtbl.replace distinct (Sqlast.Canon.statement_key s) ();
          Serve.Engine.observe engine s d
      | Workload.Replay.Recommend ->
          incr n_recommends;
          ignore (Serve.Engine.recommend engine))
    events;
  let replay_seconds = Runtime.Clock.now () -. t0 in
  let st = Serve.Engine.stats_response engine in
  let fget k =
    match Option.bind (Serve.Json.member k st) Serve.Json.to_float with
    | Some f -> f
    | None ->
        Fmt.epr "serve stats missing %S@." k;
        exit 1
  in
  let session = Serve.Engine.session engine in
  let store = Cophy.Interactive.store session in
  let repeat_probes = Inum.Keyed.misses store - Hashtbl.length distinct in
  (* warm retunes after small frequency deltas vs. cold solves of the
     identical workload (fresh env + store + candidates = batch path) *)
  let options =
    {
      Cophy.Solver.default_options with
      Cophy.Solver.method_ = Cophy.Solver.Decomposed;
      certify = true;
    }
  in
  let budget = 0.25 *. Catalog.Tpch.database_size schema in
  let warm_ms = ref [] in
  let scratch_ms = ref [] in
  let max_rel_diff = ref 0.0 in
  for step = 1 to serve_drift_steps do
    let w = Cophy.Interactive.workload session in
    (* bump one statement's frequency per step, round-robin *)
    let victim = List.nth w (step mod List.length w) in
    Cophy.Interactive.set_weight session
      (Sqlast.Ast.statement_id victim.Sqlast.Ast.stmt)
      (victim.Sqlast.Ast.weight *. 1.5);
    let t0 = Runtime.Clock.now () in
    let warm = Cophy.Interactive.retune ~options session in
    warm_ms := ((Runtime.Clock.now () -. t0) *. 1000.0) :: !warm_ms;
    let t0 = Runtime.Clock.now () in
    (* same instance (workload, weights, candidate pool), but cold: fresh
       optimizer env and keyed store, so every INUM template rebuilds and
       the decomposition starts without multipliers or an incumbent *)
    let cold_session =
      Cophy.Interactive.create ~jobs
        ~candidates:(Cophy.Interactive.candidates session)
        schema
        (Cophy.Interactive.workload session)
        ~budget
    in
    let cold = Cophy.Interactive.retune ~options cold_session in
    scratch_ms := ((Runtime.Clock.now () -. t0) *. 1000.0) :: !scratch_ms;
    let rel =
      Float.abs (warm.Cophy.Solver.objective -. cold.Cophy.Solver.objective)
      /. Float.max 1.0 cold.Cophy.Solver.objective
    in
    max_rel_diff := Float.max !max_rel_diff rel
  done;
  let objectives_equal = !max_rel_diff <= options.Cophy.Solver.gap_tolerance in
  let median xs =
    let arr = Array.of_list xs in
    Array.sort Float.compare arr;
    arr.(Array.length arr / 2)
  in
  let warm_median = median !warm_ms in
  let scratch_median = median !scratch_ms in
  Fmt.pr
    "serve jobs=%d: %d events (%d recommends) in %.3fs, hit_rate=%.3f, \
     repeat_probes=%d, warm=%.1fms scratch=%.1fms (x%.1f), \
     objectives_equal=%b (max rel diff %.2e)@."
    jobs !n_statements !n_recommends replay_seconds (fget "cache_hit_rate")
    repeat_probes warm_median scratch_median
    (scratch_median /. Float.max 1e-9 warm_median)
    objectives_equal !max_rel_diff;
  Printf.sprintf
    {|{"events":%d,"recommends":%d,"events_per_sec":%.1f,"p50_ms":%.3f,"p99_ms":%.3f,"cache_hit_rate":%.6f,"distinct_keys":%d,"repeat_probes":%d,"warm_median_ms":%.3f,"scratch_median_ms":%.3f,"speedup":%.2f,"objectives_equal":%b,"max_objective_rel_diff":%.6e}|}
    !n_statements !n_recommends
    (float_of_int !n_statements /. Float.max 1e-9 replay_seconds)
    (fget "p50_ms") (fget "p99_ms") (fget "cache_hit_rate")
    (Hashtbl.length distinct) repeat_probes warm_median scratch_median
    (scratch_median /. Float.max 1e-9 warm_median)
    objectives_equal !max_rel_diff

(* --json: one pipeline run, stable machine-readable schema.  [check]
   turns on Solver certification for the pipeline solve and the
   analyzer + certifier on the materialized BIP scenario. *)
let json_mode ?(check = false) ~jobs ~probe_budget file =
  (* Fail on an unwritable path before the (expensive) pipeline run. *)
  let oc =
    try open_out file
    with Sys_error msg ->
      Fmt.epr "cannot write %s: %s@." file msg;
      exit 1
  in
  let schema = Catalog.Tpch.schema () in
  let w = Workload.Gen.hom schema ~n:bench_n ~seed:bench_seed in
  let r =
    Cophy.Advisor.advise ~jobs ~certify:check ?probe_budget schema w
      ~budget_fraction:bench_budget_fraction
  in
  let t = r.Cophy.Advisor.timings in
  (* Second leg: the same pipeline with an unlimited budget.  The lazy
     probe loop then certifies every skip, so its kept template sets —
     and the certified objective — are bit-identical to eager probing
     with zero residual regret; the leg anchors the budgeted headline
     numbers. *)
  let r_unl =
    Cophy.Advisor.advise ~jobs ~certify:check schema w
      ~budget_fraction:bench_budget_fraction
  in
  let inum_json =
    Printf.sprintf
      {|{"probe_budget":%d,"total_init_calls":%d,"pending_probes":%d,"probe_regret":%.6f,"combos_truncated":%d,"unlimited":{"total_init_calls":%d,"objective":%.6f,"probe_regret":%.6f,"combos_truncated":%d}}|}
      (Option.value ~default:0 probe_budget)
      (Inum.total_init_calls r.Cophy.Advisor.cache)
      (Inum.cache_pending r.Cophy.Advisor.cache)
      r.Cophy.Advisor.report.Cophy.Solver.probe_regret
      (Inum.cache_truncated r.Cophy.Advisor.cache)
      (Inum.total_init_calls r_unl.Cophy.Advisor.cache)
      r_unl.Cophy.Advisor.report.Cophy.Solver.objective
      r_unl.Cophy.Advisor.report.Cophy.Solver.probe_regret
      (Inum.cache_truncated r_unl.Cophy.Advisor.cache)
  in
  let lp_json = lp_phase ~check () in
  let serve_json = serve_phase ~jobs () in
  let trace_json =
    if Runtime.Trace.enabled () then Runtime.Trace.to_metrics_json ()
    else "null"
  in
  let json =
    Printf.sprintf
      {|{"schema_version":9,"workload":{"shape":"hom","n":%d,"seed":%d},"jobs":%d,"budget_fraction":%g,"timings":{"inum_seconds":%.6f,"build_seconds":%.6f,"solve_seconds":%.6f},"result":{"objective":%.6f,"bound":%.6f,"gap":%.6f,"probe_regret":%.6f,"total_init_calls":%d,"indexes":[%s]},"inum":%s,"lp":%s,"serve":%s,"trace":%s}|}
      bench_n bench_seed jobs bench_budget_fraction t.Cophy.Advisor.inum_seconds
      t.Cophy.Advisor.build_seconds t.Cophy.Advisor.solve_seconds
      r.Cophy.Advisor.report.Cophy.Solver.objective
      r.Cophy.Advisor.report.Cophy.Solver.bound
      r.Cophy.Advisor.report.Cophy.Solver.gap
      r.Cophy.Advisor.report.Cophy.Solver.probe_regret
      (Inum.total_init_calls r.Cophy.Advisor.cache)
      (String.concat ","
         (List.map
            (fun s -> Printf.sprintf "%S" s)
            (config_indexes r.Cophy.Advisor.config)))
      inum_json lp_json serve_json trace_json
  in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Fmt.pr "wrote %s@." file

let micro_suite () =
  let open Bechamel in
  let schema = Catalog.Tpch.schema () in
  let w = Workload.Gen.hom schema ~n:15 ~seed:7 in
  let env = Optimizer.Whatif.make_env schema in
  let q =
    match (List.hd w).Sqlast.Ast.stmt with
    | Sqlast.Ast.Select q -> q
    | Sqlast.Ast.Update u -> Sqlast.Ast.query_shell u
  in
  let cands = Cophy.Cgen.generate w in
  let config = Storage.Config.of_list cands in
  let inum_cache = Inum.build env q in
  let wl_cache = Inum.build_workload env w in
  let sp = Cophy.Sproblem.build env wl_cache (Array.of_list cands) in
  let budget = Catalog.Tpch.database_size schema in
  let lp =
    (* a small dense LP representative of the z subproblem *)
    let p = Lp.Problem.create () in
    let vars =
      List.map
        (fun ix ->
          Lp.Problem.add_var ~ub:1.0
            ~obj:(-.(Storage.Index.size_bytes schema ix) /. 1e9)
            p)
        cands
    in
    ignore
      (Lp.Problem.add_row p
         (List.map (fun v -> (v, 1.0)) vars)
         Lp.Problem.Le 10.0);
    p
  in
  let tests =
    [
      Test.make ~name:"whatif_optimize"
        (Staged.stage (fun () -> ignore (Optimizer.Whatif.cost env q config)));
      Test.make ~name:"inum_build"
        (Staged.stage (fun () -> ignore (Inum.build env q)));
      Test.make ~name:"inum_cost_eval"
        (Staged.stage (fun () -> ignore (Inum.cost inum_cache config)));
      Test.make ~name:"sproblem_eval"
        (Staged.stage
           (fun () ->
             ignore
               (Cophy.Sproblem.eval sp
                  (Array.make (Cophy.Sproblem.num_candidates sp) true))));
      Test.make ~name:"simplex_small"
        (Staged.stage (fun () -> ignore (Lp.Simplex.solve lp)));
      Test.make ~name:"decomposition_5iters"
        (Staged.stage
           (fun () ->
             let options =
               { Cophy.Decomposition.default_options with
                 Cophy.Decomposition.max_iters = 5 }
             in
             ignore (Cophy.Decomposition.solve ~options sp ~budget ~z_rows:[])));
    ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let stats = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      List.iter
        (fun (name, result) ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] -> Fmt.pr "%-28s %14.1f ns/run@." name est
          | _ -> Fmt.pr "%-28s (no estimate)@." name)
        (Runtime.Tbl.sorted_bindings stats))
    tests

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* --jobs N and --json FILE take a value; strip them before the
     experiment-name filter. *)
  let jobs = ref 1 in
  let json = ref None in
  let check = ref false in
  let trace = ref None in
  let probe_budget = ref default_probe_budget in
  let rest = ref [] in
  let rec parse = function
    | [] -> ()
    | "--trace" :: f :: tl ->
        trace := Some f;
        parse tl
    | [ "--trace" ] ->
        Fmt.epr "--trace expects a file path@.";
        exit 2
    | "--jobs" :: v :: tl -> (
        match int_of_string_opt v with
        | Some n ->
            jobs := n;
            parse tl
        | None ->
            Fmt.epr "--jobs expects an integer, got %S@." v;
            exit 2)
    | [ "--jobs" ] ->
        Fmt.epr "--jobs expects a value@.";
        exit 2
    | "--probe-budget" :: v :: tl -> (
        match int_of_string_opt v with
        | Some n when n >= 0 ->
            probe_budget := n;
            parse tl
        | _ ->
            Fmt.epr "--probe-budget expects a non-negative integer, got %S@." v;
            exit 2)
    | [ "--probe-budget" ] ->
        Fmt.epr "--probe-budget expects a value@.";
        exit 2
    | "--json" :: f :: tl ->
        json := Some f;
        parse tl
    | [ "--json" ] ->
        Fmt.epr "--json expects a file path@.";
        exit 2
    | "--check" :: tl ->
        check := true;
        parse tl
    | a :: tl ->
        rest := a :: !rest;
        parse tl
  in
  parse args;
  let args = List.rev !rest in
  let jobs = if !jobs <= 0 then Runtime.recommended_jobs () else !jobs in
  (* 0 = unlimited: probe everything not certified away. *)
  let probe_budget = if !probe_budget = 0 then None else Some !probe_budget in
  (match !trace with
  | None -> ()
  | Some tf ->
      Runtime.Trace.enable ();
      (* at_exit keeps the (partial) trace on early-exit paths too. *)
      at_exit (fun () ->
          let oc = open_out tf in
          output_string oc (Runtime.Trace.to_chrome_json ());
          output_char oc '\n';
          close_out oc;
          Fmt.pr "wrote trace %s@." tf));
  match !json with
  | Some file ->
      json_mode ~check:!check ~jobs ~probe_budget file
  | None ->
  if !check then begin
    (* Standalone --check: analyze + certify the committed BIP scenario
       and stop (combine with --json to also record the certificate). *)
    ignore (lp_phase ~check:true ());
    Fmt.pr "check: BIP scenario certified ok@."
  end
  else
  if List.mem "--micro" args then begin
    micro_suite ();
    macro_suite ~jobs ~probe_budget
  end
  else begin
    let selected =
      List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args
    in
    let to_run =
      if selected = [] then Experiments.all
      else
        List.filter (fun (name, _) -> List.mem name selected) Experiments.all
    in
    if to_run = [] then begin
      Fmt.epr "unknown experiment; available: %a@."
        (Fmt.list ~sep:Fmt.sp Fmt.string)
        (List.map fst Experiments.all);
      exit 1
    end;
    let t0 = Runtime.Clock.now () in
    List.iter (fun (_, f) -> f ()) to_run;
    Fmt.pr "@.Total experiment time: %.1fs@." (Runtime.Clock.now () -. t0)
  end
