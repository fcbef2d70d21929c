(* Soft constraints (paper §4.1 "Handling Soft Constraints", App. D).

   A soft constraint contributes a linear violation metric v(z) (e.g.
   total index storage minus the budget).  Instead of enforcing it, CoPhy
   generates solutions along the Pareto-optimal curve of (workload cost,
   metric) by minimizing the scalarization

       lambda * cost(X, W) + (1 - lambda) * v(X)

   for a few well-chosen lambdas.  The Chord algorithm of Daskalakis,
   Diakonikolas & Yannakakis picks those lambdas: it recursively refines
   the segment whose midpoint-slope solve lands farthest from the chord,
   stopping at a relative tolerance — with provable approximation bounds.

   Every scalarized program is the same block-structured BIP with shifted
   z coefficients, so the decomposition solver's multipliers are reused
   from point to point (the 4x reuse speedup of Fig. 6c). *)

type point = {
  lambda : float;
  z : bool array;
  cost : float;            (* workload cost of the solution *)
  metric : float;          (* soft-constraint metric of the solution *)
}

(* Scalarized solve: min lambda*cost + (1-lambda)*metric where metric =
   sum metric_coeff_a z_a + metric_offset.  Implemented by scaling the
   problem's per-candidate fixed coefficients.  [warm] carries multipliers
   across solves; every solve runs at [Solver.default_options]. *)
let scalarized_solve sp ~(metric_coeff : float array) ~lambda ~warm =
  (* Shift the per-candidate coefficient: lambda*ucost + (1-lambda)*coeff.
     Because the Lagrangian multipliers are tied to (statement, index)
     pairs — not to the objective scaling — they remain valid warm starts
     after the shift, up to the lambda scaling of the block part.  We also
     scale block weights by lambda through a modified problem view. *)
  let ncand = Array.length sp.Sproblem.candidates in
  let ucost' =
    Array.init ncand (fun a ->
        (lambda *. sp.Sproblem.ucost.(a)) +. ((1.0 -. lambda) *. metric_coeff.(a)))
  in
  let blocks' =
    Array.map
      (fun (b : Sproblem.block) ->
        { b with Sproblem.weight = lambda *. b.Sproblem.weight })
      sp.Sproblem.blocks
  in
  let sp' =
    { sp with
      Sproblem.ucost = ucost';
      Sproblem.blocks = blocks';
      Sproblem.fixed = lambda *. sp.Sproblem.fixed }
  in
  let options = { Solver.default_options with Solver.warm } in
  let r = Solver.solve ~options sp' ~budget:infinity ~z_rows:[] ~block_caps:[] in
  let z = r.Solver.z in
  let cost = Sproblem.eval sp z in
  let metric =
    let acc = ref 0.0 in
    Array.iteri (fun a sel -> if sel then acc := !acc +. metric_coeff.(a)) z;
    !acc
  in
  ({ lambda; z; cost; metric }, r.Solver.multipliers)

(* Perpendicular distance of point p from the segment (a, b) in the
   normalized (metric, cost) plane. *)
let chord_distance a b p ~cost_scale ~metric_scale =
  let ax = a.metric /. metric_scale and ay = a.cost /. cost_scale in
  let bx = b.metric /. metric_scale and by = b.cost /. cost_scale in
  let px = p.metric /. metric_scale and py = p.cost /. cost_scale in
  let dx = bx -. ax and dy = by -. ay in
  let len = sqrt ((dx *. dx) +. (dy *. dy)) in
  if len < 1e-12 then 0.0
  else abs_float ((dx *. (ay -. py)) -. (dy *. (ax -. px))) /. len

(* The Chord sweep.  Returns Pareto points sorted by metric, and the
   number of solver invocations spent.  [reuse = false] disables the
   multiplier warm start (for the Fig. 6c comparison). *)
let sweep ?(epsilon = 0.05) ?(max_points = 16) ?(reuse = true) sp
    ~metric_coeff =
  let solves = ref 0 in
  let warm = ref None in
  let solve lambda =
    incr solves;
    let p, mult =
      scalarized_solve sp ~metric_coeff ~lambda
        ~warm:(if reuse then !warm else None)
    in
    if reuse then warm := Some mult;
    p
  in
  (* endpoints: all-cost (lambda ~ 1) and all-metric (lambda ~ 0) *)
  let a = solve 0.999 in
  let b = solve 0.001 in
  let cost_scale = max 1.0 (abs_float b.cost) in
  let metric_scale = max 1.0 (abs_float a.metric) in
  let points = ref [ a; b ] in
  let rec refine a b depth =
    if depth <= 0 || List.length !points >= max_points then ()
    else begin
      let dcost = a.cost -. b.cost and dmetric = b.metric -. a.metric in
      if abs_float dmetric > 1e-9 && abs_float dcost > 1e-9 then begin
        (* lambda whose scalarization is normal to the chord:
           lambda/(1-lambda) = dmetric/dcost *)
        let slope = abs_float (dmetric /. dcost) in
        let lambda = slope /. (1.0 +. slope) in
        let s = solve lambda in
        let d = chord_distance a b s ~cost_scale ~metric_scale in
        if d > epsilon then begin
          points := s :: !points;
          refine a s (depth - 1);
          refine s b (depth - 1)
        end
      end
    end
  in
  refine a b 6;
  (* Explicit lexicographic float comparator: polymorphic [compare] on
     (float, float) tuples orders nan by its boxed representation and is
     exactly the pattern lint rule L1 rejects; [Float.compare] gives a
     total, nan-consistent order. *)
  let sorted =
    List.sort_uniq
      (fun p q ->
        let c = Float.compare p.metric q.metric in
        if c <> 0 then c else Float.compare p.cost q.cost)
      !points
  in
  (sorted, !solves)

(* Storage metric helper: coefficient = index size; the curve then trades
   workload cost against total storage (the paper's soft-budget demo). *)
let storage_metric (sp : Sproblem.t) = Array.copy sp.Sproblem.sizes
