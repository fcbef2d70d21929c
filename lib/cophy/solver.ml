(* The Solver component (paper §4.1, Fig. 3).

   1. Check the feasibility of the hard constraints (the paper's line 1);
      an [Infeasible] exception reports which constraints cannot hold.
   2. Apply the relaxation and solve: the Lagrangian decomposition (the
      "relax" transformation of Fig. 3 taken to its conclusion) is the
      one path, and every constraint — z rows, query-cost caps, the
      black-box gate — is enforced on it.
   3. Stream feedback events so the DBA can terminate early; stop at the
      configured optimality gap (the paper tunes CPLEX to 5%). *)

exception Infeasible of string list

type feedback = {
  elapsed : float;
  incumbent : float;         (* best feasible objective so far; inf: none *)
  bound : float;             (* proven lower bound *)
}

type options = {
  gap_tolerance : float;
  time_limit : float;
  on_feedback : feedback -> unit;
  warm : Decomposition.multipliers option;
  (* Prior incumbent selection: the decomposition's first incumbent
     candidate. *)
  warm_z : Storage.Config.t option;
  jobs : int;                (* domains for the decomposition fan-outs *)
  (* Debug mode: certify the returned selection against the z polytope
     and the query-cost caps.  Raises [Lp.Analyze.Certification_failed]
     on any failure. *)
  certify : bool;
}

let default_options =
  {
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
  multipliers : Decomposition.multipliers;
  (* certified INUM probe regret carried from the problem: [objective]
     and [bound] describe the surrogate surface; the exhaustive-INUM
     objective of [config] lies in [objective - probe_regret,
     objective] *)
  probe_regret : float;
}

(* The z-only polytope (storage budget + linear z rows) over relaxed
   binary variables; shared by the feasibility probe and the
   certification of the final selection. *)
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

(* Feasibility of the hard constraints: the z-only polytope
   (mandatory/forbidden/budget/...), then each query-cost cap at the
   cheapest cost its block can reach, with every candidate selected.
   Without z rows and with a nonnegative budget the empty selection lies
   in the polytope (it uses no storage), so no LP is needed. *)
let check_feasibility (sp : Sproblem.t) ~budget ~z_rows ~block_caps =
  let infeasible ~budget ~z_rows =
    let p, _ = z_polytope sp ~budget ~z_rows in
    match (Lp.Presolve.solve p).Lp.Simplex.status with
    | Lp.Simplex.Infeasible -> true
    | _ -> false
  in
  let empty_fits = z_rows = [] && budget >= 0.0 in
  if (not empty_fits) && infeasible ~budget ~z_rows then begin
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
  end;
  let all = Array.make (Sproblem.num_candidates sp) true in
  let offenders =
    List.filter_map
      (fun (qid, cap) ->
        if
          Array.exists
            (fun (b : Sproblem.block) ->
              b.Sproblem.qid = qid && Sproblem.block_cost_z b all > cap)
            sp.Sproblem.blocks
        then Some (Printf.sprintf "cost_cap_%d" qid)
        else None)
      block_caps
  in
  if offenders <> [] then raise (Infeasible offenders)

let solve ?(options = default_options) ?accept (sp : Sproblem.t) ~budget
    ~z_rows ~block_caps =
  Runtime.Trace.span "solver.feasibility_check" (fun () ->
      check_feasibility sp ~budget ~z_rows ~block_caps);
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
              incumbent = e.Decomposition.incumbent;
              bound = e.Decomposition.bound;
            });
    }
  in
  let r =
    Runtime.Trace.span "solver.decomposition" (fun () ->
        Decomposition.solve ~options:d_options ?accept sp ~budget ~z_rows
          ~block_caps)
  in
  if Runtime.Fx.is_inf r.Decomposition.bound then
    raise (Infeasible [ "z polytope infeasible" ]);
  (* The constraints passed the check above, so a missing incumbent is a
     search that found none, not a proof that none exists. *)
  if Runtime.Fx.is_inf r.Decomposition.obj then
    raise
      (Infeasible
         [ "no selection meeting every constraint was found (not proven \
            impossible)" ]);
  if options.certify then begin
    (* The decomposition never materializes the BIP, so certify what it
       does promise: the returned 0/1 selection lies in the z polytope
       (budget + every linear hard-constraint row) and meets every
       query-cost cap. *)
    let zp, zvars = z_polytope sp ~budget ~z_rows in
    let zx = Array.make (Lp.Problem.nvars zp) 0.0 in
    Array.iteri
      (fun a v -> zx.(v) <- (if r.Decomposition.z.(a) then 1.0 else 0.0))
      zvars;
    let cert = Lp.Analyze.certify ~int_vars:(Array.to_list zvars) zp zx in
    if not cert.Lp.Analyze.cert_ok then
      raise
        (Lp.Analyze.Certification_failed
           (Printf.sprintf "selection rejected: %s"
              (Lp.Analyze.certificate_summary cert)));
    List.iter
      (fun (qid, cap) ->
        Array.iter
          (fun (b : Sproblem.block) ->
            if b.Sproblem.qid = qid then
              let cost = Sproblem.block_cost_z b r.Decomposition.z in
              if not (cost <= cap) then
                raise
                  (Lp.Analyze.Certification_failed
                     (Printf.sprintf
                        "selection rejected: cost_cap_%d: %h > %h" qid cost
                        cap)))
          sp.Sproblem.blocks)
      block_caps
  end;
  {
    z = r.Decomposition.z;
    config = Sproblem.config_of sp r.Decomposition.z;
    objective = r.Decomposition.obj;
    bound = r.Decomposition.bound;
    gap =
      (r.Decomposition.obj -. r.Decomposition.bound)
      /. (abs_float r.Decomposition.obj +. 1e-9);
    multipliers = r.Decomposition.multipliers;
    probe_regret = sp.Sproblem.probe_regret;
  }
