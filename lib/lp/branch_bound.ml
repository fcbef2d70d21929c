(* Branch & bound for binary/mixed-integer programs over the simplex
   relaxation: a cold, best-first, parallel node-pool search.

   The engine never mutates the input problem: a node is a list of bound
   tightenings passed to {!Simplex.solve} as overrides, which is what
   lets one immutable {!Problem.t} be shared by every worker domain.
   Every node LP is a stateless two-phase sparse solve.

   Parallelism is bulk-synchronous through {!Runtime.Search}: each round
   pops up to [batch] best nodes, evaluates their LPs concurrently, and
   merges sequentially in pop order.  Pop order and merge order are
   independent of the job count, so the search trajectory — incumbent,
   bound, and node counts — is bit-identical at any [jobs].  The
   incumbent objective lives in an [Atomic] cell: written only during
   the sequential merge, read by concurrent evaluators for
   start-of-round pruning. *)

type options = {
  gap_tolerance : float;     (* stop when (inc - bound)/|inc| <= this *)
  time_limit : float;        (* seconds; infinity = none *)
  (* When set, branch only on these variables and accept an LP solution
     as an incumbent once they are integral.  Sound only when fixing
     these variables makes the remaining LP have an integral optimum of
     equal objective — which holds for selection-style programs like the
     CoPhy and ILP BIPs, where the y/x part is a per-block minimum. *)
  decision_vars : int list option;
  (* Debug mode: certify every candidate incumbent with [Analyze.certify]
     before accepting it; raise [Analyze.Certification_failed] if one
     violates rows, bounds, or integrality of the branched variables. *)
  certify_incumbents : bool;
  jobs : int;                (* concurrent node evaluations per round *)
}

let default_options =
  {
    gap_tolerance = 1e-6;
    time_limit = infinity;
    decision_vars = None;
    certify_incumbents = false;
    jobs = 1;
  }

type status = Optimal | Infeasible | Unbounded | Limit

type result = {
  status : status;
  x : float array option;    (* best integer solution *)
  obj : float;               (* objective of [x] (with problem offset) *)
  bound : float;             (* proven lower bound (with offset) *)
  nodes : int;
}

let int_tol = 1e-6

(* Nodes popped per bulk-synchronous round, and the node budget after
   which the search stops with [Limit]. *)
let batch = 8
let node_limit = 200_000

(* Most-fractional branching variable of the relaxation solution (the
   first one on ties); [None] when every integer variable is integral. *)
let branch_var int_vars x =
  let best = ref (-1) and best_score = ref 0.0 in
  List.iter
    (fun v ->
      let f = abs_float (x.(v) -. Float.round x.(v)) in
      if f > int_tol && f > !best_score then begin
        best := v;
        best_score := f
      end)
    int_vars;
  if !best >= 0 then Some !best else None

(* A node: its parent's LP bound and the accumulated bound tightenings
   (newest first; they are passed oldest-first to the simplex so the
   newest — tightest — override wins).  [seq] is the deterministic
   creation index used to break every ordering tie. *)
type node = {
  nb : float;
  fixings : (int * float * float) list;
  depth : int;
  seq : int;
}

type eval_out =
  | Pruned  (* start-of-round bound prune, no LP solved *)
  | Solved of Simplex.result

(* Trace probes: single [Atomic.get] each when tracing is off. *)
let tr_nodes = Runtime.Trace.counter "bb.nodes"
let tr_incumbents = Runtime.Trace.counter "bb.incumbents"
let tr_prunes = Runtime.Trace.counter "bb.prunes"

let rounding_heuristic p int_vars x =
  let x' = Array.copy x in
  List.iter (fun v -> x'.(v) <- Float.round x.(v)) int_vars;
  if Problem.feasible p x' then Some x' else None

(* Best-bound order: lowest parent bound first, deeper first on ties,
   then creation order. *)
let node_compare (a : node) (b : node) =
  match Float.compare a.nb b.nb with
  | 0 -> (
      match Int.compare b.depth a.depth with
      | 0 -> Int.compare a.seq b.seq
      | c -> c)
  | c -> c

let solve ?(options = default_options) (p : Problem.t) =
  let t0 = Runtime.Clock.now () in
  let elapsed () = Runtime.Clock.now () -. t0 in
  let int_vars =
    match options.decision_vars with
    | Some vs -> vs
    | None -> Problem.integer_vars p
  in
  let restricted = options.decision_vars <> None in
  let offset = Problem.obj_offset p in
  let jobs = max 1 options.jobs in
  let incumbent = ref None in
  (* Objective of the incumbent, without offset.  Written only in the
     sequential merge; read concurrently by evaluators for the
     start-of-round prune. *)
  let incumbent_obj = Atomic.make infinity in
  let nodes = ref 0 in
  let global_bound = ref neg_infinity in
  let try_incumbent x obj =
    if obj < Atomic.get incumbent_obj -. 1e-9 then begin
      if options.certify_incumbents then begin
        (* Bounds of the shared problem are never tightened, so the
           certificate is directly against the original box.  Only the
           branched variables are certified integral (restricted mode
           leaves the per-block continuous part fractional by design). *)
        let cert = Analyze.certify ~int_vars ~obj:(obj +. offset) p x in
        if not cert.Analyze.cert_ok then
          raise
            (Analyze.Certification_failed
               (Printf.sprintf "branch_bound incumbent rejected: %s"
                  (Analyze.certificate_summary cert)))
      end;
      incumbent := Some (Array.copy x);
      Atomic.set incumbent_obj
        (obj
        [@bound.sink incumbent
            "the accepted objective becomes the pruning threshold and the \
             reported optimum; an unproven iterate here silently cuts off \
             the true optimum"]);
      Runtime.Trace.incr tr_incumbents
    end
  in
  let gap_ok () =
    let inc = Atomic.get incumbent_obj in
    inc < infinity
    && inc -. !global_bound <= options.gap_tolerance *. (abs_float inc +. 1e-9)
  in
  let mk_result status =
    let best_x = !incumbent in
    let inc = Atomic.get incumbent_obj in
    {
      status =
        (match (status, best_x) with
        | Infeasible, _ -> Infeasible
        | s, Some _ -> s
        | Optimal, None -> Infeasible
        | Limit, None -> Limit
        | Unbounded, None -> Unbounded);
      x = best_x;
      obj =
        (inc +. offset
        [@bound.sink certified_output
            "reported incumbent objective: callers treat it as a certified \
             upper bound on the optimum"]);
      bound =
        (!global_bound +. offset
        [@bound.sink certified_output
            "reported dual bound: callers derive the certified optimality \
             gap from it"]);
      nodes = !nodes;
    }
  in
  (* --- Root relaxation (sequential) --- *)
  let root = Simplex.solve p in
  match root.Simplex.status with
  | Simplex.Infeasible ->
      global_bound := infinity;
      Atomic.set incumbent_obj infinity;
      incumbent := None;
      mk_result Infeasible
  | Simplex.Unbounded ->
      global_bound := neg_infinity;
      mk_result Unbounded
  | Simplex.Iter_limit | Simplex.Optimal ->
      (* An iteration-limited relaxation proves nothing: its objective is
         the value of an arbitrary iterate, so it must not seed the
         proven bound. *)
      let root_solved = root.Simplex.status = Simplex.Optimal in
      let root_bound =
        (if root_solved then root.Simplex.obj else neg_infinity)
        [@bound.sink bound
            "seed of the proven dual bound: an Iter_limit relaxation \
             objective here fabricates the reported gap"]
      in
      let root_x = root.Simplex.x in
      global_bound := root_bound;
      (match branch_var int_vars root_x with
      | None ->
          (* Root already integral on the branched variables. *)
          if root_solved || Problem.feasible p root_x then
            try_incumbent root_x
              (if root_solved then root_bound
               else Problem.objective_value p root_x -. offset);
          global_bound := Atomic.get incumbent_obj;
          mk_result
            (if Atomic.get incumbent_obj < infinity then Optimal else Infeasible)
      | Some v ->
          (* Root incumbent by rounding. *)
          (if not restricted then
             match rounding_heuristic p int_vars root_x with
             | Some xr ->
                 try_incumbent xr (Problem.objective_value p xr -. offset)
             | None -> ());
          (* --- Best-first node-pool search over Runtime.Search --- *)
          let seq = ref 0 in
          let next_seq () =
            incr seq;
            !seq
          in
          let eff_bounds fixings v =
            let rec find = function
              | (u, lb, ub) :: _ when u = v -> (lb, ub)
              | _ :: rest -> find rest
              | [] ->
                  let vr = Problem.var p v in
                  (vr.Problem.lb, vr.Problem.ub)
            in
            find fixings
          in
          (* Children of a node at branching variable [v]: the child
             diving toward the rounded LP value is created first (smaller
             seq), so on equal bounds the heap explores it first. *)
          let children node v xv =
            let lb, ub = eff_bounds node.fixings v in
            let lo = floor xv in
            let frac = xv -. lo in
            let mk fixing =
              {
                nb = node.nb;
                fixings = fixing :: node.fixings;
                depth = node.depth + 1;
                seq = next_seq ();
              }
            in
            let down () = mk (v, lb, min ub lo) in
            let up () = mk (v, max lb (lo +. 1.0), ub) in
            if frac >= 0.5 then
              let u = up () in
              let d = down () in
              [ u; d ]
            else
              let d = down () in
              let u = up () in
              [ d; u ]
          in
          let root_node = { nb = root_bound; fixings = []; depth = 0; seq = 0 } in
          let roots = children root_node v root_x.(v) in
          let stop_status = ref None in
          (* [stop] is polled once per round; it also marks the round
             boundary so the first merge of each round can advance the
             proven bound (under best-first order the first pop of a
             round is the open-pool minimum, and it is non-decreasing).
             A pool minimum at or above the incumbent proves the
             incumbent optimal, not the minimum, so the bound advances
             to the incumbent at most and never exceeds the reported
             objective.  A closed gap is [Optimal] (within
             [gap_tolerance]), the same label an exhausted pool gets. *)
          let round_fresh = ref true in
          let stop () =
            round_fresh := true;
            if gap_ok () then begin
              stop_status := Some Optimal;
              true
            end
            else if elapsed () > options.time_limit || !nodes >= node_limit
            then begin
              stop_status := Some Limit;
              true
            end
            else false
          in
          let eval node =
            if
              (node.nb >= Atomic.get incumbent_obj -. 1e-9)
              [@bound.sink prune
                  "start-of-round prune: discards the subtree for good, so \
                   both sides must be proven (node bound / certified \
                   incumbent)"]
            then Pruned
            else
              Solved (Simplex.solve ~bounds:(List.rev node.fixings) p)
          in
          let expand node out =
            if !round_fresh then begin
              global_bound :=
                max !global_bound (min node.nb (Atomic.get incumbent_obj));
              round_fresh := false
            end;
            match out with
            | Pruned ->
                Runtime.Trace.incr tr_prunes;
                []
            | Solved r -> (
                incr nodes;
                Runtime.Trace.incr tr_nodes;
                match r.Simplex.status with
                | Simplex.Infeasible -> []
                | Simplex.Unbounded -> []
                | Simplex.Iter_limit | Simplex.Optimal ->
                    let solved = r.Simplex.status = Simplex.Optimal in
                    (* An Iter_limit iterate is not a certified optimum:
                       its objective is no lower bound (keep the parent's
                       for the children), and its point only becomes an
                       incumbent after an explicit feasibility check. *)
                    let[@bound.sink bound
                         "bound inherited by the children's node records; an \
                          unproven objective here would mis-order and \
                          mis-prune the whole subtree"] nb =
                      if solved then r.Simplex.obj else node.nb
                    in
                    if
                      (nb >= Atomic.get incumbent_obj -. 1e-9)
                      [@bound.sink prune
                          "post-solve prune against the incumbent; both \
                           sides must be proven"]
                    then begin
                      Runtime.Trace.incr tr_prunes;
                      []
                    end
                    else (
                      match branch_var int_vars r.Simplex.x with
                      | None ->
                          if solved || Problem.feasible p r.Simplex.x then
                            try_incumbent r.Simplex.x r.Simplex.obj;
                          []
                      | Some v ->
                          (if not restricted then
                             match rounding_heuristic p int_vars r.Simplex.x with
                             | Some xr ->
                                 try_incumbent xr
                                   (Problem.objective_value p xr -. offset)
                             | None -> ());
                          children { node with nb } v r.Simplex.x.(v)))
          in
          Runtime.Search.run ~jobs ~batch ~compare:node_compare ~roots ~eval
            ~expand ~stop ();
          let status =
            match !stop_status with
            | Some s -> s
            | None ->
                (* Pool exhausted: the incumbent is proven optimal (or
                   the problem integer-infeasible). *)
                global_bound := Atomic.get incumbent_obj;
                if Atomic.get incumbent_obj < infinity then Optimal
                else Infeasible
          in
          mk_result status)
