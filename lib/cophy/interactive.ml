(* Interactive tuning (paper §4.2).

   A session keeps everything the advisor computed — the keyed INUM
   store, the candidate set, the structured BIP, the solver's
   multipliers and the previous incumbent — so that when the DBA (or
   the serve daemon) tweaks the problem (adds candidate indexes,
   changes the budget, the constraints or statement weights, appends
   statements) only the delta is recomputed: INUM runs only for
   statements whose canonical key was never seen, and the solver
   warm-starts from the previous multipliers and incumbent.  A delta to
   the candidates or the statements drops the structured BIP (budget
   and constraint changes keep it: the BIP does not encode them,
   [resolve_constraints] reads them at every re-tune), and the
   next re-tune rebuilds it, but through the session's pricing memo
   ([Sproblem.prices]): a template the last build priced is reused as
   is, or extended by the candidates appended since, so only new
   templates (new statement shapes, or templates a refine added) and
   new candidates are priced.
   The memo resets when a candidate is removed, since positions shift.
   This is what makes re-tuning an order of magnitude faster than
   solving from scratch (Fig. 6b).

   [Advisor.advise] is the one-shot form of a session: create, build
   the problem, [recommend]. *)

open Sqlast

type session = {
  env : Optimizer.Whatif.env;
  jobs : int;  (* domains for INUM builds and solver fan-outs *)
  store : Inum.Keyed.store;  (* canonical key -> INUM templates *)
  mutable workload : Ast.workload;
  mutable cache : Inum.workload_cache;
  mutable candidates : Storage.Index.t array;
  mutable budget : float;
  mutable constraints : Constr.t list;
  baseline : Storage.Config.t;  (* what query-cost caps are relative to *)
  mutable problem : Sproblem.t option;          (* invalidated by deltas *)
  prices : Sproblem.prices;  (* template pricings, reused across rebuilds *)
  mutable multipliers : Solver.multipliers option;
  mutable last : Solver.report option;  (* previous selection and report *)
}

let create ?(constraints = [ Constr.At_most_one_clustered ])
    ?(baseline = Storage.Config.empty) ?(jobs = 1) ?candidates
    ?(dba_candidates = []) ?store ?probe_budget schema workload ~budget =
  let store =
    match store with
    | Some st -> st
    | None ->
        Inum.Keyed.create ?probe_budget (Optimizer.Whatif.make_env schema)
  in
  let env = Inum.Keyed.env store in
  let cache = Inum.add_statements ~jobs store Inum.empty_cache workload in
  let candidates =
    match candidates with
    | Some c -> Array.of_list c
    | None -> Array.of_list (Cgen.generate ~dba:dba_candidates workload)
  in
  {
    env;
    jobs;
    store;
    workload;
    cache;
    candidates;
    budget;
    constraints;
    baseline;
    problem = None;
    prices = Sproblem.prices ();
    multipliers = None;
    last = None;
  }

let env s = s.env
let store s = s.store
let workload s = s.workload
let cache s = s.cache
let candidates s = Array.to_list s.candidates
let last_report s = s.last

(* --- Deltas --- *)

let add_candidates s ixs =
  let existing = Storage.Config.of_list (Array.to_list s.candidates) in
  let fresh =
    List.filter (fun ix -> not (Storage.Config.mem ix existing)) ixs
  in
  s.candidates <- Array.append s.candidates (Array.of_list fresh);
  s.problem <- None

let remove_candidates s ixs =
  s.candidates <-
    Array.of_list
      (List.filter
         (fun c -> not (List.exists (Storage.Index.equal c) ixs))
         (Array.to_list s.candidates));
  (* Multipliers are keyed by index identity, so survivors keep theirs. *)
  s.problem <- None

let set_budget s budget = s.budget <- budget

let set_constraints s cs = s.constraints <- cs

(* Append statements.  INUM preprocessing runs only for statements whose
   canonical key the session's store has never seen: repeats — including
   statements already in the session — are cache hits and cost zero
   optimizer probes (counted in the [inum.cache_hits] trace counter). *)
let add_statements s stmts =
  s.cache <- Inum.add_statements ~jobs:s.jobs s.store s.cache stmts;
  s.workload <- s.workload @ stmts;
  s.problem <- None

(* Change one statement's weight in place: no INUM work, the next
   [retune] rebuilds the BIP with every template reused from the
   pricing memo, and the multipliers survive (they are keyed by
   statement id and index). *)
let set_weight s id weight =
  let stmt_matches = function
    | Ast.Select q -> q.Ast.query_id = id
    | Ast.Update u -> u.Ast.update_id = id
  in
  s.workload <-
    List.map
      (fun (wt : Ast.weighted) ->
        if stmt_matches wt.Ast.stmt then { wt with Ast.weight } else wt)
      s.workload;
  s.cache <-
    {
      s.cache with
      Inum.selects =
        List.map
          (fun ((q : Ast.query), w0, t) ->
            if q.Ast.query_id = id then (q, weight, t) else (q, w0, t))
          s.cache.Inum.selects;
      updates =
        List.map
          (fun ((u : Ast.update), w0) ->
            if u.Ast.update_id = id then (u, weight) else (u, w0))
          s.cache.Inum.updates;
    };
  s.problem <- None

(* Drop statements.  The keyed store keeps its entries, so re-adding a
   dropped statement later is still free. *)
let remove_statements s ~drop =
  s.workload <-
    List.filter (fun (wt : Ast.weighted) -> not (drop wt.Ast.stmt)) s.workload;
  s.cache <- Inum.remove_statements s.cache ~drop;
  s.problem <- None

(* --- Re-tuning --- *)

let problem s =
  match s.problem with
  | Some sp -> sp
  | None ->
      let sp = Sproblem.build ~prices:s.prices s.env s.cache s.candidates in
      s.problem <- Some sp;
      sp

(* Classify the session's constraints ([Constr.split]) and price each
   query-cost cap against the baseline configuration: a cap becomes one
   (statement id, factor * baseline cost) pair per covered statement. *)
let resolve_constraints s =
  let { Constr.z_rows; caps; accept } =
    Constr.split s.env.Optimizer.Whatif.schema s.candidates s.constraints
  in
  let block_caps =
    List.concat_map
      (fun { Constr.query_pred; factor } ->
        List.filter_map
          (fun ((q : Ast.query), _, inum) ->
            if query_pred q.Ast.query_id then
              Some (q.Ast.query_id, factor *. Inum.cost inum s.baseline)
            else None)
          s.cache.Inum.selects)
      caps
  in
  (z_rows, block_caps, accept)

let retune ?(options = Solver.default_options) s =
  let sp = problem s in
  let z_rows, block_caps, accept = resolve_constraints s in
  let options =
    {
      options with
      Solver.warm = s.multipliers;
      warm_z = Option.map (fun r -> r.Solver.config) s.last;
      jobs = s.jobs;
    }
  in
  let report =
    Solver.solve ~options ?accept sp ~budget:s.budget ~z_rows ~block_caps
  in
  s.multipliers <- Some report.Solver.multipliers;
  s.last <- Some report;
  report

(* Force the deferred INUM probes whose bound interval overlaps the best
   instantiation under [config] (see [Inum.refine]).  When any probe was
   forced the kept template sets changed, so the structured BIP is
   invalidated; warm-start state (multipliers, incumbent) survives —
   forcing only tightens per-block costs, it does not reshape the
   variable space.  Returns the number of probes forced; [0] means the
   session's cost model is already exact at [config]. *)
let refine_at s config =
  let forced = Inum.refine_cache s.cache ~config in
  if forced > 0 then s.problem <- None;
  forced

(* Probe-budget completion loop: solve, then force the deferred INUM
   probes whose bound interval overlaps the recommendation's best
   instantiation and re-solve warm against the tightened (at this
   configuration, exact) cost model; repeat until [refine_at] forces
   nothing.  The round cap is a safety net — each round spends probes
   only where the previous recommendation was optimistic, so rounds
   shrink fast; if the cap ever bites, the report still carries the
   certified [probe_regret] bound.  With an unlimited probe budget
   [refine_at] is a no-op and the first report stands. *)
let max_refine_rounds = 8

let recommend ?options s =
  Runtime.Trace.span "interactive.recommend" @@ fun () ->
  let rec converge report rounds =
    if rounds = 0 || refine_at s report.Solver.config = 0 then report
    else converge (retune ?options s) (rounds - 1)
  in
  converge (retune ?options s) max_refine_rounds

(* Certified INUM probe regret of the session's current cost model
   (weighted; zero when probing was unlimited or fully refined). *)
let probe_regret s = Inum.cache_regret s.cache
