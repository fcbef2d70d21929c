(* CoPhy top-level (paper Fig. 2): INUM -> CGen -> BIPGen -> Solver.

   [advise] runs the full pipeline and reports the recommended
   configuration together with the per-phase timing breakdown the paper's
   Figure 5/10 analysis uses (INUM time, BIP building time, solving
   time). *)

type timings = {
  inum_seconds : float;
  build_seconds : float;   (* candidate generation + BIP construction *)
  solve_seconds : float;   (* first solve + probe-budget refine rounds *)
}

type recommendation = {
  config : Storage.Config.t;
  report : Solver.report;
  problem : Sproblem.t;
  cache : Inum.workload_cache;
  candidates : Storage.Index.t array;
  timings : timings;
}

let total_seconds r =
  r.timings.inum_seconds +. r.timings.build_seconds +. r.timings.solve_seconds

let advise ?constraints ?candidates ?(dba_candidates = [])
    ?(solver_options = Solver.default_options)
    ?(baseline = Storage.Config.empty) ?(jobs = 1)
    ?probe_budget schema (w : Sqlast.Ast.workload) ~budget_fraction =
  (* Batch advice is the one-shot form of an interactive session: create
     (INUM through the keyed store + candidate generation), build the
     BIP, recommend.  The two entry points share one code spine. *)
  let budget = budget_fraction *. Catalog.Tpch.database_size schema in
  let t0 = Runtime.Clock.now () in
  let session =
    Runtime.Trace.span "advisor.inum_build" (fun () ->
        let store =
          Inum.Keyed.create ?probe_budget (Optimizer.Whatif.make_env schema)
        in
        Interactive.create ?constraints ~baseline ~jobs ?candidates
          ~dba_candidates ~store schema w ~budget)
  in
  let t1 = Runtime.Clock.now () in
  ignore
    (Runtime.Trace.span "advisor.bip_build" (fun () ->
         Interactive.problem session));
  let t2 = Runtime.Clock.now () in
  let report = Interactive.recommend ~options:solver_options session in
  let t3 = Runtime.Clock.now () in
  (* The BIP the final re-solve ran on: refine rounds rebuild it, so the
     one built above may predate the tightened cost model. *)
  {
    config = report.Solver.config;
    report;
    problem = Interactive.problem session;
    cache = Interactive.cache session;
    candidates = Array.of_list (Interactive.candidates session);
    timings =
      {
        inum_seconds = t1 -. t0;
        build_seconds = t2 -. t1;
        solve_seconds = t3 -. t2;
      };
  }

(* Per-statement explanation of a recommendation: which template the INUM
   model picks under the recommended configuration and which index fills
   each slot. *)
type explanation = {
  statement_id : int;
  cost_before : float;         (* INUM cost under no candidate *)
  cost_after : float;          (* INUM cost under the recommendation *)
  picks : (string * Storage.Index.t option) list;  (* table, chosen index *)
}

let explain (r : recommendation) =
  List.map
    (fun (q, _, inum) ->
      let before = Inum.cost inum Storage.Config.empty in
      let after, _, picks = Inum.best_instantiation inum r.config in
      let tables = Inum.tables inum in
      {
        statement_id = q.Sqlast.Ast.query_id;
        cost_before = before;
        cost_after = after;
        picks = List.combine tables (Array.to_list picks);
      })
    r.cache.Inum.selects
