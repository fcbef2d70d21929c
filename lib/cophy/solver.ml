(* The Solver component (paper §4.1, Fig. 3).

   1. Check the feasibility of the hard constraints (the paper's line 1);
      an [Infeasible] exception reports which constraints cannot hold.
   2. Apply the relaxation and hand the program to a BIP solver: the
      exact simplex + branch-and-bound path for small instances or when
      requested, and the Lagrangian decomposition path (the "relax"
      transformation of Fig. 3 taken to its conclusion) for large ones.
   3. Stream feedback events so the DBA can terminate early; stop at the
      configured optimality gap (the paper tunes CPLEX to 5%). *)

exception Infeasible of string list

(* Trace probe: warm-started prior selections that had to be dropped.
   (The decomposed path's repaired/rejected counters live in
   [Decomposition]; this one covers the exact path, which cannot
   repair.) *)
let tr_warm_rejected = Runtime.Trace.counter "solver.warm_rejected"


type solve_method = Auto | Exact | Decomposed

type feedback = {
  elapsed : float;
  incumbent : float option;  (* best feasible objective so far *)
  bound : float;             (* proven lower bound *)
}

type options = {
  method_ : solve_method;
  gap_tolerance : float;
  time_limit : float;
  on_feedback : feedback -> unit;
  warm : Decomposition.multipliers option;
  (* Prior incumbent selection: seeds Branch_bound's initial incumbent
     on the exact path and the decomposition's first [consider] on the
     decomposed path. *)
  warm_z : Storage.Config.t option;
  jobs : int;                (* domains for the decomposition fan-outs *)
  (* Debug mode: statically check the materialized BIP before solving,
     certify branch-and-bound incumbents, and certify the final selection
     against the hard constraints.  Raises
     [Lp.Analyze.Certification_failed] on any failure. *)
  certify : bool;
}

let default_options =
  {
    method_ = Auto;
    gap_tolerance = 0.05;
    time_limit = infinity;
    on_feedback = ignore;
    warm = None;
    warm_z = None;
    jobs = 1;
    certify = false;
  }

type report = {
  z : bool array;
  config : Storage.Config.t;
  objective : float;          (* INUM-estimated workload cost of [config] *)
  bound : float;
  gap : float;
  multipliers : Decomposition.multipliers option;
  (* certified INUM probe regret carried from the problem: [objective]
     and [bound] describe the surrogate surface; the exhaustive-INUM
     objective of [config] lies in [objective - probe_regret,
     objective] *)
  probe_regret : float;
}

(* Above this many BIP variables, Auto switches to the decomposition.
   The threshold is deliberately low: the decomposition is CoPhy's
   production path, and the materialized-BIP path mainly serves
   correctness tests and query-cost-cap constraints. *)
let exact_variable_limit = 800

(* The z-only polytope (storage budget + linear z rows) over relaxed
   binary variables; shared by the feasibility probe and the decomposed
   path's certification of the final selection. *)
let z_polytope (sp : Sproblem.t) ~budget ~z_rows =
  let n = Array.length sp.Sproblem.candidates in
  let p = Lp.Problem.create () in
  let vars = Array.init n (fun _ -> Lp.Problem.add_var ~ub:1.0 p) in
  if budget < infinity then
    ignore
      (Lp.Problem.add_row ~name:"storage" p
         (Array.to_list (Array.mapi (fun a v -> (v, sp.Sproblem.sizes.(a))) vars))
         Lp.Problem.Le budget);
  Constr.add_rows p vars z_rows;
  (p, vars)

(* Feasibility of the z-only polytope (mandatory/forbidden/budget/...). *)
let check_feasibility (sp : Sproblem.t) ~budget ~z_rows =
  let infeasible ~budget ~z_rows =
    let p, _ = z_polytope sp ~budget ~z_rows in
    match (Lp.Presolve.solve p).Lp.Simplex.status with
    | Lp.Simplex.Infeasible -> true
    | _ -> false
  in
  if infeasible ~budget ~z_rows then begin
    (* Identify offenders: re-test each row alone against the bounds. *)
    let offenders =
      List.filter_map
        (fun (row : Constr.z_row) ->
          if infeasible ~budget:infinity ~z_rows:[ row ] then
            Some row.Constr.row_name
          else None)
        z_rows
    in
    let offenders =
      if offenders = [] then [ "constraint conjunction (no single offender)" ]
      else offenders
    in
    raise (Infeasible offenders)
  end

(* The one place a constraint is mapped to a path.  Query-cost caps are
   encoded only as cost rows of the materialized BIP; black-box (UDF)
   acceptance is enforced only by the decomposition's incumbent gate.
   [method_] and the size rule choose only when both paths can enforce
   every constraint. *)
let route options ~block_caps ~accept sp =
  match (block_caps, accept) with
  | _ :: _, Some _ ->
      invalid_arg
        "Solver.solve: query-cost caps need the exact path and black-box \
         constraints the decomposed path; they cannot be combined"
  | _ :: _, None -> Exact
  | [], Some _ -> Decomposed
  | [], None -> (
      match options.method_ with
      | Auto ->
          if Sproblem.variable_count sp <= exact_variable_limit then Exact
          else Decomposed
      | m -> m)

let solve ?(options = default_options) ?(block_caps = []) ?accept
    (sp : Sproblem.t) ~budget ~z_rows =
  let method_ = route options ~block_caps ~accept sp in
  Runtime.Trace.span "solver.feasibility_check" (fun () ->
      check_feasibility sp ~budget ~z_rows);
  match method_ with
  | Exact | Auto ->
      let p, vars =
        Runtime.Trace.span "solver.bip_to_lp" (fun () ->
            Sproblem.to_lp ~budget ~z_rows ~block_caps sp)
      in
      if options.certify then begin
        (* Static model analysis before the solve: a malformed BIP makes
           every downstream certificate meaningless. *)
        let issues = Lp.Analyze.errors (Lp.Analyze.check p) in
        if issues <> [] then
          raise
            (Lp.Analyze.Certification_failed
               (String.concat "; "
                  (List.map
                     (fun (i : Lp.Analyze.issue) ->
                       Printf.sprintf "%s(%s): %s" i.Lp.Analyze.code
                         i.Lp.Analyze.where i.Lp.Analyze.message)
                     issues)))
      end;
      (* Seed the search with the prior selection lifted to a BIP point,
         else with the empty selection, so a stopped search still answers
         with an honest gap.  The exact path cannot repair: an infeasible
         seed is dropped (a prior one observably, in warm_rejected). *)
      let seed config =
        let x0 =
          Sproblem.lp_point_of_z sp p vars (Sproblem.z_of_config sp config)
        in
        if Lp.Problem.feasible p x0 then Some x0 else None
      in
      let initial_incumbent =
        match options.warm_z with
        | None -> seed Storage.Config.empty
        | Some config ->
            let x0 = seed config in
            if Option.is_none x0 then Runtime.Trace.incr tr_warm_rejected;
            x0
      in
      let bb_options =
        {
          Lp.Branch_bound.default_options with
          Lp.Branch_bound.gap_tolerance = options.gap_tolerance;
          time_limit = options.time_limit;
          initial_incumbent;
          (* Branch on the index-selection variables only: once z is
             integral the per-block LP is a pure minimum with an integral
             optimum (Theorem 1's structure).  With caps, branch on every
             binary: only then does the root rounding heuristic run, and
             it finds capped incumbents z-only branching is slow to reach. *)
          decision_vars =
            (if block_caps = [] then Some (Array.to_list vars.Sproblem.z_var)
             else None);
          certify_incumbents = options.certify;
          jobs = options.jobs;
          on_event =
            (fun (e : Lp.Branch_bound.event) ->
              options.on_feedback
                {
                  elapsed = e.Lp.Branch_bound.elapsed;
                  incumbent = e.Lp.Branch_bound.incumbent;
                  bound = e.Lp.Branch_bound.bound;
                });
        }
      in
      let r =
        Runtime.Trace.span "solver.branch_bound" (fun () ->
            Lp.Branch_bound.solve ~options:bb_options p)
      in
      (match r.Lp.Branch_bound.status with
      | Lp.Branch_bound.Infeasible ->
          raise (Infeasible [ "BIP infeasible (query-cost or linking rows)" ])
      | _ -> ());
      let x =
        match r.Lp.Branch_bound.x with
        | Some x -> x
        | None -> raise (Infeasible [ "no feasible solution found" ])
      in
      let z = Sproblem.z_of_lp_solution sp vars x in
      if options.certify then begin
        (* Final-answer certificate: the returned BIP point satisfies
           every row and bound, and the z part is integral. *)
        let cert =
          Lp.Analyze.certify
            ~int_vars:(Array.to_list vars.Sproblem.z_var)
            p x
        in
        if not cert.Lp.Analyze.cert_ok then
          raise
            (Lp.Analyze.Certification_failed
               (Printf.sprintf "exact-path solution rejected: %s"
                  (Lp.Analyze.certificate_summary cert)))
      end;
      let objective = Sproblem.eval ~jobs:options.jobs sp z in
      {
        z;
        config = Sproblem.config_of sp z;
        objective;
        bound = r.Lp.Branch_bound.bound;
        gap =
          (objective -. r.Lp.Branch_bound.bound)
          /. (abs_float objective +. 1e-9);
        multipliers = None;
        probe_regret = sp.Sproblem.probe_regret;
      }
  | Decomposed ->
      let d_options =
        {
          Decomposition.default_options with
          Decomposition.gap_tolerance = options.gap_tolerance;
          time_limit = options.time_limit;
          warm = options.warm;
          warm_z = options.warm_z;
          jobs = options.jobs;
          on_event =
            (fun (e : Decomposition.event) ->
              options.on_feedback
                {
                  elapsed = e.Decomposition.elapsed;
                  incumbent = Some e.Decomposition.incumbent;
                  bound = e.Decomposition.bound;
                });
        }
      in
      let r =
        Runtime.Trace.span "solver.decomposition" (fun () ->
            Decomposition.solve ~options:d_options ?accept sp ~budget ~z_rows)
      in
      if Runtime.Fx.is_inf r.Decomposition.bound then
        raise (Infeasible [ "z polytope infeasible" ]);
      if Runtime.Fx.is_inf r.Decomposition.obj then
        raise (Infeasible [ "no selection satisfies the black-box constraints" ]);
      if options.certify then begin
        (* The decomposition never materializes the BIP, so certify what
           it does promise: the returned 0/1 selection lies in the z
           polytope (budget + every linear hard-constraint row). *)
        let zp, zvars = z_polytope sp ~budget ~z_rows in
        let zx = Array.make (Lp.Problem.nvars zp) 0.0 in
        Array.iteri
          (fun a v -> zx.(v) <- (if r.Decomposition.z.(a) then 1.0 else 0.0))
          zvars;
        let cert =
          Lp.Analyze.certify ~int_vars:(Array.to_list zvars) zp zx
        in
        if not cert.Lp.Analyze.cert_ok then
          raise
            (Lp.Analyze.Certification_failed
               (Printf.sprintf "decomposed-path selection rejected: %s"
                  (Lp.Analyze.certificate_summary cert)))
      end;
      {
        z = r.Decomposition.z;
        config = Sproblem.config_of sp r.Decomposition.z;
        objective = r.Decomposition.obj;
        bound = r.Decomposition.bound;
        gap =
          (r.Decomposition.obj -. r.Decomposition.bound)
          /. (abs_float r.Decomposition.obj +. 1e-9);
        multipliers = Some r.Decomposition.multipliers;
        probe_regret = sp.Sproblem.probe_regret;
      }
