(* The Solver component (paper §4.1, Fig. 3).

   1. Check the feasibility of the hard constraints (the paper's line 1);
      an [Infeasible] exception reports which constraints cannot hold.
   2. Apply the relaxation and solve: the Lagrangian decomposition below
      (the "relax" transformation of Fig. 3 taken to its conclusion) is
      the one path, and every constraint — z rows, query-cost caps, the
      black-box gate — is enforced on it.
   3. Stream feedback events so the DBA can terminate early; stop at the
      configured optimality gap (the paper tunes CPLEX to 5%).

   The BIP of Theorem 1 has a block structure: the only coupling between
   statements is through the z variables (the linking rows x_qkia <= z_a
   and the constraints over z).  The decomposition puts multipliers on
   the linking rows:

   - per-block subproblems pick the cheapest (template, slot choices)
     with candidate usage priced at gamma + lambda, in closed form;
   - the z subproblem is a {0,1} knapsack over the storage budget (plus
     any linear z constraints), solved as an LP for a valid lower bound;
   - subgradient ascent from benefit-initialized multipliers tightens
     the bound, and without extra z rows the knapsack's reduced costs
     harden z variables against the incumbent;
   - rounding plus incremental local search produce incumbents.

   Blocks are merged by [Sproblem.compress] first.  Nothing in the loop
   solves an integer program: a re-solve is closed-form block passes and
   greedy knapsack fills, never a branch-and-bound tree.  Warm-started
   multipliers are what make incremental re-tuning and Pareto sweeps
   fast (Figs. 6b, 6c). *)

exception Infeasible of string list

type feedback = {
  elapsed : float;
  incumbent : float;         (* best feasible objective so far; inf: none *)
  bound : float;             (* proven lower bound *)
}

(* Multipliers keyed by statement id and candidate index, so they survive
   re-building the problem with more candidates or changed constraints. *)
type multipliers = (int * Storage.Index.t, float) Hashtbl.t

type options = {
  max_iters : int;
  gap_tolerance : float;
  time_limit : float;
  on_feedback : feedback -> unit;
  warm : multipliers option;
  (* Prior incumbent selection, by index (so it survives candidate-set
     changes between re-solves).  Considered before the greedy initial:
     repaired if the budget shrank, so a warm restart is never worse
     than the repaired prior incumbent. *)
  warm_z : Storage.Config.t option;
  jobs : int;                (* domains for the decomposition fan-outs *)
  (* Debug mode: certify the returned selection against the z polytope
     and the query-cost caps.  Raises [Lp.Analyze.Certification_failed]
     on any failure. *)
  certify : bool;
}

let default_options =
  {
    max_iters = 400;
    gap_tolerance = 0.05;     (* the paper's default CPLEX setting *)
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
  iterations : int;
  multipliers : multipliers;
  (* certified INUM probe regret carried from the problem: [objective]
     and [bound] describe the surrogate surface; the exhaustive-INUM
     objective of [config] lies in [objective - probe_regret,
     objective] *)
  probe_regret : float;
}

(* A near-best rounded incumbent is polished by local search every this
   many iterations (and whenever it beats the best): running without it
   gave worse incumbents (EXPERIMENTS.md, ablations). *)
let local_search_period = 10

(* --- Block subproblem --- *)

(* Trace probes: single [Atomic.get] each when tracing is off. *)
let tr_iterations = Runtime.Trace.counter "decomposition.iterations"
let tr_block_solves = Runtime.Trace.counter "decomposition.block_solves"
let tr_ls_moves = Runtime.Trace.counter "decomposition.local_search_moves"
let tr_cg_hardened = Runtime.Trace.counter "cg.hardened"
let tr_warm_repaired = Runtime.Trace.counter "solver.warm_repaired"
let tr_warm_rejected = Runtime.Trace.counter "solver.warm_rejected"

(* Position of candidate [cand] in a block's sorted [cands_used] array:
   a read-only binary search, for the once-per-solve multiplier
   initialization. *)
let pos_in block cand =
  let cands_used = block.Sproblem.cands_used in
  let lo = ref 0 and hi = ref (Array.length cands_used - 1) in
  let res = ref (-1) in
  while !res < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = cands_used.(mid) in
    if c = cand then res := mid
    else if c < cand then lo := mid + 1
    else hi := mid - 1
  done;
  assert (!res >= 0);
  !res

(* Cheapest (template, choices) at [weight] with usage priced by lam;
   returns the value, the candidates the first cheapest assignment uses,
   and that assignment's unweighted cost (beta plus its gammas).
   [weight] is the block's own weight, or that plus the block's cap
   multiplier (scaled by the cap) when the block is capped.

   The kernels from here on are [for] loops over local refs, with no
   calls in their loop nests: a float ref captured by an iterator's
   closure, or a float returned from a call, is boxed.  Each does the
   float operations of the closure form it replaced, in the same order,
   so every value is bit-identical.

   [price] is the caller's private scratch over all candidates; the
   block's multipliers are scattered into it first, so the innermost
   loop reads a candidate's multiplier in O(1).  Only the block's own
   candidates are read back, so the scratch needs no clearing between
   blocks. *)
let block_subproblem (b : Sproblem.block) (lam : float array) ~weight ~price
    ~excluded =
  let cands_used = b.Sproblem.cands_used in
  for i = 0 to Array.length cands_used - 1 do
    price.(cands_used.(i)) <- lam.(i)
  done;
  let templates = b.Sproblem.templates in
  let best = ref infinity and best_k = ref (-1) in
  for k = 0 to Array.length templates - 1 do
    let tpl = templates.(k) in
    let total = ref (weight *. tpl.Sproblem.beta) in
    let choices = tpl.Sproblem.choices in
    for s = 0 to Array.length choices - 1 do
      let slot = choices.(s) in
      let m = ref infinity in
      for i = 0 to Array.length slot - 1 do
        let { Sproblem.cand; gamma } = slot.(i) in
        if cand < 0 then begin
          let c = weight *. gamma in
          if c < !m then m := c
        end
        else if not excluded.(cand) then begin
          let c = (weight *. gamma) +. price.(cand) in
          if c < !m then m := c
        end
      done;
      total := !total +. !m
    done;
    if !total < !best then begin
      best := !total;
      best_k := k
    end
  done;
  (* The winning template's picks: the same scan again, remembering the
     choice that last lowered each slot minimum and its gamma. *)
  let used = ref [] in
  let cost = ref infinity in
  if !best_k >= 0 then begin
    let tpl = templates.(!best_k) in
    let choices = tpl.Sproblem.choices in
    cost := tpl.Sproblem.beta;
    for s = 0 to Array.length choices - 1 do
      let slot = choices.(s) in
      let m = ref infinity and pick = ref (-1) and g = ref infinity in
      for i = 0 to Array.length slot - 1 do
        let { Sproblem.cand; gamma } = slot.(i) in
        if cand < 0 then begin
          let c = weight *. gamma in
          if c < !m then begin
            m := c;
            pick := -1;
            g := gamma
          end
        end
        else if not excluded.(cand) then begin
          let c = (weight *. gamma) +. price.(cand) in
          if c < !m then begin
            m := c;
            pick := cand;
            g := gamma
          end
        end
      done;
      cost := !cost +. !g;
      if !pick >= 0 then used := !pick :: !used
    done
  end;
  (!best, !used, !cost)

(* --- z subproblem --- *)

(* Without extra z rows the z subproblem
     min sum w_a z_a  s.t.  sizes.z <= budget, 0 <= z <= 1
   is a fractional knapsack, solved greedily: its value is the analytic
   LP optimum, so it carries a proof.  It also returns the knapsack dual
   [y] (<= 0): the reduced cost [w_a - y * max 1 s_a] prices moving a
   variable to its opposite bound, which is what the hardening
   consumes.  The dual is the ratio of the first
   fractional item, or of the best unselected item when the capacity
   came out exactly, or 0 when the budget does not bind — each a valid
   dual by complementary slackness over the sorted ratios.

   [denom.(a)] is [max 1.0 sizes.(a)], the per-byte denominator,
   computed once per solve.  [knapsack_order ~w ~denom ~ratio] fills
   [ratio.(a)] with [w.(a) /. denom.(a)] and returns the greedy's item
   order: the candidates with [w < 0] by ascending ratio, stably.  It
   depends on [w] only, so one subgradient iteration sorts it once and
   every greedy call of the iteration walks it, skipping its own forced
   candidates — a filtered stable sort is the stable sort of the
   filtered list. *)
let knapsack_order ~w ~denom ~ratio =
  let n = Array.length w in
  let count = ref 0 in
  for a = 0 to n - 1 do
    ratio.(a) <- w.(a) /. denom.(a);
    if w.(a) < 0.0 then incr count
  done;
  let order = Array.make !count 0 in
  let k = ref 0 in
  for a = 0 to n - 1 do
    if w.(a) < 0.0 then begin
      order.(!k) <- a;
      incr k
    end
  done;
  Array.stable_sort (fun a b -> Float.compare ratio.(a) ratio.(b)) order;
  order

(* [min 1.0 (cap /. d)], written out: [Stdlib.min] on floats is a
   polymorphic call. *)
let[@inline] fill_fraction cap d =
  let r = cap /. d in
  if 1.0 <= r then 1.0 else r

let greedy_z_with_duals ~order ~w ~(sizes : float array) ~denom ~ratio
    ~budget ~forced_one ~forced_zero =
  let n = Array.length w in
  let z = Array.make n 0.0 in
  let value = ref 0.0 in
  let cap = ref budget in
  for a = 0 to n - 1 do
    if forced_one.(a) then begin
      z.(a) <- 1.0;
      value := !value +. w.(a);
      cap := !cap -. sizes.(a)
    end
  done;
  let y = ref 0.0 in
  (* once the capacity is spent and the dual is set, nothing changes *)
  let i = ref 0 in
  while !i < Array.length order && (!cap > 0.0 || Runtime.Fx.is_zero !y) do
    let a = order.(!i) in
    if forced_one.(a) || forced_zero.(a) then ()
    else if !cap > 0.0 then begin
      let frac = fill_fraction !cap denom.(a) in
      z.(a) <- frac;
      value := !value +. (frac *. w.(a));
      cap := !cap -. (frac *. sizes.(a));
      if frac < 1.0 && Runtime.Fx.is_zero !y then y := ratio.(a)
    end
    else y := ratio.(a);
    incr i
  done;
  (!value, z, !y)

(* The z polytope: the storage budget and the linear z rows over
   relaxed binary variables, one per candidate.  The feasibility probe,
   the certification of the final selection and the LP z subproblem
   below all build it here. *)
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

(* With extra z rows, the z subproblem is the z polytope with the
   objective [w] and the forced bounds set on top, a small LP handed to
   the simplex.  Returns the solve status alongside (value, z): only an
   [Optimal] value is a valid Lagrangian bound component — an
   [Iter_limit] iterate is feasible (so its rounding still seeds the
   primal side) but its objective proves nothing, and the caller must
   not fold it into the bound. *)
let z_lp (sp : Sproblem.t) ~w ~budget ~(z_rows : Constr.z_row list)
    ~forced_one ~forced_zero =
  let n = Array.length w in
  let p, vars = z_polytope sp ~budget ~z_rows in
  Array.iteri
    (fun a v ->
      let lb = if forced_one.(a) then 1.0 else 0.0 in
      let ub = if forced_zero.(a) then 0.0 else 1.0 in
      Lp.Problem.set_bounds p v ~lb ~ub:(max lb ub);
      Lp.Problem.set_obj p v w.(a))
    vars;
  let r = Lp.Simplex.solve p in
  match r.Lp.Simplex.status with
  | Lp.Simplex.Optimal ->
      ( r.Lp.Simplex.obj,
        Array.init n (fun a -> r.Lp.Simplex.x.(vars.(a))),
        Lp.Simplex.Optimal )
  | Lp.Simplex.Iter_limit ->
      (* last iterate: primal-feasible, so still a usable rounding
         direction, but its objective is no lower bound *)
      ( r.Lp.Simplex.obj,
        Array.init n (fun a -> r.Lp.Simplex.x.(vars.(a))),
        Lp.Simplex.Iter_limit )
  | (Lp.Simplex.Infeasible | Lp.Simplex.Unbounded) as s ->
      (* infeasible z polytope: signal with +inf bound *)
      (infinity, Array.make n 0.0, s)

(* --- Feasibility repair and local search --- *)

let z_feasible (sp : Sproblem.t) ~budget ~z_rows (z : bool array) =
  Sproblem.total_size sp z <= budget +. 1e-6
  && List.for_all (fun row -> Constr.row_holds row z) z_rows

(* Query-cost caps on the compressed blocks: [cap.(bi)] is block [bi]'s
   cap on its unweighted cost ([infinity] when uncapped), [scale.(bi)]
   divides its cost row through (so the row is [cost * scale <= cap *
   scale], 1 for a positive cap, and its subgradient is on the scale of
   the linking rows'), and [capped] lists the capped blocks in order. *)
type caps = { cap : float array; scale : float array; capped : int array }

(* The caps [(qid, cap)] of [sp]'s statements on the blocks of its
   compression, [group] mapping each block of [sp] to its merged block:
   merged blocks cost the same under every selection, so a merged block
   keeps the smallest cap of its members. *)
let merged_caps (sp : Sproblem.t) ~group ~nblocks block_caps =
  let cap = Array.make nblocks infinity in
  List.iter
    (fun (qid, c) ->
      Array.iteri
        (fun bi (b : Sproblem.block) ->
          let g = group.(bi) in
          if b.Sproblem.qid = qid && c < cap.(g) then cap.(g) <- c)
        sp.Sproblem.blocks)
    block_caps;
  let capped = ref [] in
  for bi = nblocks - 1 downto 0 do
    if cap.(bi) < infinity then capped := bi :: !capped
  done;
  {
    cap;
    scale =
      Array.map
        (fun c -> if c > 0.0 && c < infinity then 1.0 /. c else 1.0)
        cap;
    capped = Array.of_list !capped;
  }

let caps_hold (sp : Sproblem.t) caps (z : bool array) =
  Array.for_all
    (fun bi -> Sproblem.block_cost_z sp.Sproblem.blocks.(bi) z <= caps.cap.(bi))
    caps.capped

(* A move's re-priced blocks ([(block, new cost)], from [add_delta] or
   [drop_delta]) keep every cap they met under the slot minima [mins]
   before it.  Always true without caps. *)
let caps_kept caps (mins : Sproblem.minima array) changed =
  List.for_all
    (fun (bi, c) -> c <= caps.cap.(bi) || c <= mins.(bi).Sproblem.tcost)
    changed

(* Every block's slot minima under [z], and a [cost_without] scratch at
   least as long as any of them. *)
let minima_of ~jobs (sp : Sproblem.t) (z : bool array) =
  let mins =
    Runtime.parallel_map ~jobs
      (fun b -> Sproblem.slot_minima b z)
      sp.Sproblem.blocks
  in
  let vals =
    Array.make
      (Array.fold_left
         (fun n mn -> Int.max n (Array.length mn.Sproblem.smin))
         0 mins)
      0.0
  in
  (mins, vals)

(* After [a] was toggled in [z]: the slot minima of the blocks that
   reference it, scanned again. *)
let rescan (sp : Sproblem.t) mins (z : bool array) a =
  Array.iter
    (fun bi -> mins.(bi) <- Sproblem.slot_minima sp.Sproblem.blocks.(bi) z)
    sp.Sproblem.cand_blocks.(a)

(* The objective change of selecting the unselected [a], with each
   re-priced block's new cost: only blocks referencing [a] change. *)
let add_delta (sp : Sproblem.t) (z : bool array) (mins : Sproblem.minima array)
    a =
  let delta = ref sp.Sproblem.ucost.(a) in
  z.(a) <- true;
  let changed = ref [] in
  let blocks = sp.Sproblem.cand_blocks.(a) in
  for j = 0 to Array.length blocks - 1 do
    let bi = blocks.(j) in
    let b = sp.Sproblem.blocks.(bi) in
    let c = Sproblem.block_cost_z b z in
    delta := !delta +. (b.Sproblem.weight *. (c -. mins.(bi).Sproblem.tcost));
    changed := (bi, c) :: !changed
  done;
  z.(a) <- false;
  (!delta, !changed)

(* The least template total of [b] over per-slot values [vals],
   numbered as [Sproblem.slot_minima]'s: each template's [beta] plus its
   slot values in slot order, the first least one kept.  With the slot
   minima under [z] as [vals], these are [Sproblem.block_cost_z]'s
   operations in its order, so the value is bit-identical to it. *)
let least_total (b : Sproblem.block) (vals : float array) =
  let templates = b.Sproblem.templates in
  let best = ref infinity in
  let off = ref 0 in
  for k = 0 to Array.length templates - 1 do
    let tpl = templates.(k) in
    let total = ref tpl.Sproblem.beta in
    let n = Array.length tpl.Sproblem.choices in
    for s = 0 to n - 1 do
      total := !total +. vals.(!off + s)
    done;
    off := !off + n;
    if !total < !best then best := !total
  done;
  !best

(* [Sproblem.block_cost_z b z] for [z] with [a] unselected, where [mn] is
   [Sproblem.slot_minima] of [z] with [a] selected: a slot whose first
   argmin is not [a] keeps that argmin, so its minimum is read from
   [mn]; only the slots [a] won are scanned again.  [vals] is scratch
   at least as long as [mn.smin]. *)
let cost_without (b : Sproblem.block) (mn : Sproblem.minima) ~vals
    (z : bool array) a =
  Array.blit mn.Sproblem.smin 0 vals 0 (Array.length mn.Sproblem.smin);
  let templates = b.Sproblem.templates in
  let off = ref 0 in
  for k = 0 to Array.length templates - 1 do
    let choices = templates.(k).Sproblem.choices in
    for s = 0 to Array.length choices - 1 do
      if mn.Sproblem.sarg.(!off + s) = a then begin
        let slot = choices.(s) in
        let m = ref infinity in
        for i = 0 to Array.length slot - 1 do
          let { Sproblem.cand; gamma } = slot.(i) in
          if (cand < 0 || z.(cand)) && gamma < !m then m := gamma
        done;
        vals.(!off + s) <- !m
      end
    done;
    off := !off + Array.length choices
  done;
  least_total b vals

(* The objective change of dropping the selected [a], against the slot
   minima [mins] of [z], with each re-priced block's new cost.  A block
   whose picks do not contain [a] keeps its cost bit for bit (its first
   least assignment survives the drop), so it is not re-priced: its term
   is [weight *. (c -. c)] on the cost it already has, the very value
   re-pricing would give (a signed zero, or nan on an infinite cost).
   A block that loses a pick is re-priced from its slot minima. *)
let drop_delta (sp : Sproblem.t) (z : bool array) mins ~vals a =
  let delta = ref (-.sp.Sproblem.ucost.(a)) in
  z.(a) <- false;
  let changed = ref [] in
  let blocks = sp.Sproblem.cand_blocks.(a) in
  for j = 0 to Array.length blocks - 1 do
    let bi = blocks.(j) in
    let b = sp.Sproblem.blocks.(bi) in
    let mn = mins.(bi) in
    let c0 = mn.Sproblem.tcost in
    let c =
      if List.exists (Int.equal a) mn.Sproblem.tpicks then begin
        let c = cost_without b mn ~vals z a in
        changed := (bi, c) :: !changed;
        c
      end
      else c0
    in
    delta := !delta +. (b.Sproblem.weight *. (c -. c0))
  done;
  z.(a) <- true;
  (!delta, !changed)

(* Add candidates to [z] until every capped block meets its cap.  A
   block over its cap takes [allowed] candidates of its own one at a
   time, the largest cost cut per byte first; when no single candidate
   cuts its cost, it takes its cheapest assignment over [allowed], which
   meets the cap whenever the cap can hold at all.  Repair then trades
   the added size back against the budget. *)
let cover_caps (sp : Sproblem.t) caps ~allowed (z : bool array) =
  Array.iter
    (fun bi ->
      let b = sp.Sproblem.blocks.(bi) in
      let cap = caps.cap.(bi) in
      let cost = ref (Sproblem.block_cost_z b z) in
      while !cost > cap do
        let best = ref (-1) and best_score = ref 0.0 in
        let best_cost = ref !cost in
        Array.iter
          (fun a ->
            if allowed.(a) && not z.(a) then begin
              z.(a) <- true;
              let c = Sproblem.block_cost_z b z in
              z.(a) <- false;
              let score = (!cost -. c) /. max 1.0 sp.Sproblem.sizes.(a) in
              if score > !best_score then begin
                best := a;
                best_score := score;
                best_cost := c
              end
            end)
          b.Sproblem.cands_used;
        if !best >= 0 then begin
          z.(!best) <- true;
          cost := !best_cost
        end
        else begin
          List.iter
            (fun a -> z.(a) <- true)
            (snd (Sproblem.block_cost_picks b allowed));
          cost := neg_infinity
        end
      done)
    caps.capped

(* Drop selected candidates (smallest cost increase per byte freed first)
   until feasible, and evaluate the result: [(z', Sproblem.eval sp z')].
   One delta evaluation per selected candidate against the starting
   state, then a greedy sweep — an approximation that keeps repair
   linear, refined later by the local search.  A [mandatory] candidate
   is never dropped: no selection without it satisfies its Ge row.
   The evaluation re-costs only the blocks that lost a pick of the
   starting state: every other block keeps its first least assignment,
   so its cost is the starting one, bit for bit; the sum runs as
   [Sproblem.eval]'s. *)
let repair_eval ~jobs (sp : Sproblem.t) ~budget ~z_rows ~mandatory
    (z : bool array) =
  let z = Array.copy z in
  if z_feasible sp ~budget ~z_rows z then (z, Sproblem.eval ~jobs sp z)
  else begin
    let start, vals = minima_of ~jobs sp z in
    let scored = ref [] in
    for a = 0 to Array.length z - 1 do
      if z.(a) && not mandatory.(a) then begin
        let d, _ = drop_delta sp z start ~vals a in
        (* dropping increases cost by [d]; prefer small increase per byte
           freed *)
        scored := (a, -.d /. max 1.0 sp.Sproblem.sizes.(a)) :: !scored
      end
    done;
    let order =
      List.sort (fun (_, s1) (_, s2) -> compare s2 s1) !scored
      |> List.map fst
    in
    let rec drop = function
      | [] -> ()
      | a :: rest ->
          if z_feasible sp ~budget ~z_rows z then ()
          else begin
            z.(a) <- false;
            drop rest
          end
    in
    drop order;
    let costs =
      Runtime.parallel_map ~jobs
        (fun bi ->
          let mn = start.(bi) in
          if List.exists (fun a -> not z.(a)) mn.Sproblem.tpicks then
            Sproblem.block_cost_z sp.Sproblem.blocks.(bi) z
          else mn.Sproblem.tcost)
        (Array.init (Array.length start) Fun.id)
    in
    (z, Sproblem.eval_costs sp z costs)
  end

(* Toggle single candidates while one lowers the objective and keeps
   [z] feasible, for at most six sweeps.  Drops are scored by
   [drop_delta], adds by [add_delta], both against the slot minima of
   the current [z]. *)
let local_search ~jobs (sp : Sproblem.t) ~budget ~z_rows (z : bool array) obj0
    =
  let z = Array.copy z in
  let n = Array.length z in
  let mins, vals = minima_of ~jobs sp z in
  let obj = ref obj0 in
  let size = ref (Sproblem.total_size sp z) in
  let improved = ref true in
  let rounds = ref 0 in
  while !improved && !rounds < 6 do
    improved := false;
    incr rounds;
    for a = 0 to n - 1 do
      let fits =
        if z.(a) then true else !size +. sp.Sproblem.sizes.(a) <= budget +. 1e-6
      in
      if fits then begin
        let d =
          if z.(a) then fst (drop_delta sp z mins ~vals a)
          else fst (add_delta sp z mins a)
        in
        if d < -1e-6 then begin
          z.(a) <- not z.(a);
          if z_feasible sp ~budget ~z_rows z then begin
            obj := !obj +. d;
            size :=
              (if z.(a) then !size +. sp.Sproblem.sizes.(a)
               else !size -. sp.Sproblem.sizes.(a));
            rescan sp mins z a;
            Runtime.Trace.incr tr_ls_moves;
            improved := true
          end
          else z.(a) <- not z.(a)
        end
      end
    done
  done;
  (z, !obj)

(* [singleton_saving b].(j): the weighted cost block [b] saves when its
   candidate [cands_used.(j)] is the only index selected.  One pass over
   the block: the empty selection's slot minima [m0] (the no-index
   choices' scan), then per candidate the scan of each slot it appears
   in, restricted to the no-index choices and its own — the scan
   [Sproblem.block_cost_z] makes of that slot under the singleton — and
   every other slot's [m0], totalled by [least_total], so each saving
   is bit-identical to
   [weight *. (block_cost_z b empty -. block_cost_z b {a})]. *)
let singleton_saving (b : Sproblem.block) =
  let templates = b.Sproblem.templates in
  let cands_used = b.Sproblem.cands_used in
  let nslots = ref 0 in
  for k = 0 to Array.length templates - 1 do
    nslots := !nslots + Array.length templates.(k).Sproblem.choices
  done;
  let scan slot a =
    let m = ref infinity in
    for i = 0 to Array.length slot - 1 do
      let { Sproblem.cand; gamma } = slot.(i) in
      if (cand < 0 || cand = a) && gamma < !m then m := gamma
    done;
    !m
  in
  let m0 = Array.make !nslots infinity in
  (* [occ.(j)]: the slots holding a choice of [cands_used.(j)], with
     their minimum under that singleton *)
  let occ = Array.make (Array.length cands_used) [] in
  let off = ref 0 in
  for k = 0 to Array.length templates - 1 do
    let choices = templates.(k).Sproblem.choices in
    for s = 0 to Array.length choices - 1 do
      let slot = choices.(s) in
      let f = !off + s in
      m0.(f) <- scan slot (-1);
      for i = 0 to Array.length slot - 1 do
        let a = slot.(i).Sproblem.cand in
        if a >= 0 then begin
          let j = pos_in b a in
          occ.(j) <- (f, scan slot a) :: occ.(j)
        end
      done
    done;
    off := !off + Array.length choices
  done;
  let vals = Array.copy m0 in
  let empty = least_total b vals in
  Array.map
    (fun l ->
      List.iter (fun (f, v) -> vals.(f) <- v) l;
      let c = least_total b vals in
      List.iter (fun (f, _) -> vals.(f) <- m0.(f)) l;
      b.Sproblem.weight *. (empty -. c))
    occ

(* [singleton_savings sp].(a).(j): the weighted cost the block
   [cand_blocks.(a).(j)] saves when [a] is the only index selected.  The
   benefit-based multiplier initialization and the greedy initial
   incumbent both start from these.  Each block is scored once, for all
   its candidates ([singleton_saving]), fanned over the pool. *)
let singleton_savings ~jobs (sp : Sproblem.t) =
  let per_block =
    Runtime.parallel_map ~jobs singleton_saving sp.Sproblem.blocks
  in
  Array.mapi
    (fun a blocks ->
      Array.map
        (fun bi -> per_block.(bi).(pos_in sp.Sproblem.blocks.(bi) a))
        blocks)
    sp.Sproblem.cand_blocks

(* Greedy benefit/size construction for the initial incumbent: a
   candidate's benefit is its savings net of its creation cost. *)
let greedy_initial (sp : Sproblem.t) ~savings ~budget ~z_rows =
  let n = Array.length sp.Sproblem.candidates in
  let scored =
    List.init n (fun a ->
        let benefit =
          Array.fold_left ( +. ) (-.sp.Sproblem.ucost.(a)) savings.(a)
        in
        (a, benefit /. max 1.0 sp.Sproblem.sizes.(a), benefit))
    |> List.filter (fun (_, _, ben) -> ben > 0.0)
    |> List.sort (fun (_, r1, _) (_, r2, _) -> compare r2 r1)
  in
  let z = Array.make n false in
  let size = ref 0.0 in
  List.iter
    (fun (a, _, _) ->
      if !size +. sp.Sproblem.sizes.(a) <= budget then begin
        z.(a) <- true;
        if z_feasible sp ~budget ~z_rows z then
          size := !size +. sp.Sproblem.sizes.(a)
        else z.(a) <- false
      end)
    scored;
  z

(* --- The Lagrangian loop --- *)

(* The search behind [solve], once the constraints passed the
   feasibility check: its report has an infinite [bound] when the z
   polytope proved infeasible, and an infinite [objective] when no
   incumbent meeting every constraint was found. *)
let decompose ~options ~accept (sp : Sproblem.t) ~budget
    ~(z_rows : Constr.z_row list) ~block_caps =
  let t0 = Runtime.Clock.now () in
  let elapsed () = Runtime.Clock.now () -. t0 in
  let jobs = max 1 options.jobs in
  (* Workload compression: merging identical blocks preserves every
     selection's objective, so everything downstream — block
     subproblems, cost evaluations, local search — is unchanged except
     in cost. *)
  let sp, caps =
    let csp, group = Sproblem.compress sp in
    let nblocks = Array.length csp.Sproblem.blocks in
    (csp, merged_caps sp ~group ~nblocks block_caps)
  in
  let nblocks = Array.length sp.Sproblem.blocks in
  let ncand = Array.length sp.Sproblem.candidates in
  (* Each cap row is relaxed with the multiplier [mu.(bi) >= 0]: the
     block's subproblem runs at weight [weight + mu * scale] and the
     bound subtracts [mu * cap * scale]. *)
  let mu = Array.make nblocks 0.0 in
  (* forced selections from z rows: mandatory (Ge 1 singleton) and
     forbidden (Le 0 singleton) get special treatment in the subproblems *)
  let forced_one = Array.make ncand false in
  let forced_zero = Array.make ncand false in
  List.iter
    (fun (row : Constr.z_row) ->
      match (row.Constr.row_coeffs, row.Constr.row_cmp) with
      | [ (a, c) ], Constr.Ge when c > 0.0 && row.Constr.row_rhs /. c >= 1.0 ->
          forced_one.(a) <- true
      | [ (a, c) ], Constr.Le when c > 0.0 && row.Constr.row_rhs /. c <= 0.0 ->
          forced_zero.(a) <- true
      | _ -> ())
    z_rows;
  (* the z rows' own fixings, before any reduced-cost hardening: repair
     keeps these, and only these *)
  let mandatory = Array.copy forced_one in
  let feasible z = z_feasible sp ~budget ~z_rows z in
  let meets_caps z = caps_hold sp caps z in
  (* Cover the caps [z] misses, on a copy; [z] itself when it meets
     them. *)
  let covered z =
    if meets_caps z then z
    else begin
      let z = Array.copy z in
      cover_caps sp caps ~allowed:(Array.map not forced_zero) z;
      z
    end
  in
  (* per-block multiplier arrays aligned with cands_used *)
  let lam =
    Array.map
      (fun (b : Sproblem.block) ->
        Array.map
          (fun pos ->
            match options.warm with
            | None -> 0.0
            | Some tbl ->
                Option.value ~default:0.0
                  (Hashtbl.find_opt tbl
                     (b.Sproblem.qid, sp.Sproblem.candidates.(pos))))
          b.Sproblem.cands_used)
      sp.Sproblem.blocks
  in
  (* Benefit-based multiplier initialization (one dual-ascent pass).
     With lambda = 0 the z subproblem sees only creation costs, selects
     nothing, and the first bounds are far below the optimum; priced at
     its per-block benefit, each candidate leaves the block roughly
     indifferent while the z knapsack sees creation cost minus capturable
     value — a dual point already close to the "no index beats its own
     savings" equilibrium. *)
  let savings = singleton_savings ~jobs sp in
  if Option.is_none options.warm then
    Array.iteri
      (fun a sav ->
        Array.iteri
          (fun j bi ->
            if sav.(j) > 0.0 then
              lam.(bi).(pos_in sp.Sproblem.blocks.(bi) a) <- sav.(j))
          sp.Sproblem.cand_blocks.(a))
      savings;
  (* incumbent — black-box (UDF) constraints gate acceptance: the empty
     selection is the fallback when the heuristics produce only rejected
     candidates (appendix E.5), provided it satisfies the z rows (a
     mandatory index excludes it) *)
  let empty = Array.make ncand false in
  let empty_obj = Sproblem.eval ~jobs sp empty in
  let best_z = ref empty in
  let best_obj =
    ref
      (if accept empty && feasible empty && meets_caps empty then empty_obj
       else infinity)
  in
  (* Take [z] when its objective beats the incumbent's by more than
     [margin]. *)
  let improve ?(margin = 0.0) z obj =
    if obj < !best_obj -. margin then begin
      best_z := z;
      best_obj := obj
    end
  in
  (* When the black box rejects a selection, trim it: drop the least
     valuable index (cost increase per byte), among those whose drop
     keeps every cap the selection meets when there are any, and retry —
     this services cardinality-style UDFs and bottoms out at the empty
     selection. *)
  let trim_to_acceptance z =
    let z = Array.copy z in
    let mins, vals = minima_of ~jobs sp z in
    let any_selected () = Array.exists Fun.id z in
    while (not (accept z)) && any_selected () do
      let best_a = ref (-1) and best_score = ref neg_infinity in
      let keep_a = ref (-1) and keep_score = ref neg_infinity in
      Array.iteri
        (fun a selected ->
          if selected then begin
            let d, changed = drop_delta sp z mins ~vals a in
            let score = -.d /. max 1.0 sp.Sproblem.sizes.(a) in
            if score > !best_score then begin
              best_score := score;
              best_a := a
            end;
            if score > !keep_score && caps_kept caps mins changed then begin
              keep_score := score;
              keep_a := a
            end
          end)
        z;
      let a = if !keep_a >= 0 then !keep_a else !best_a in
      if a >= 0 then begin
        z.(a) <- false;
        rescan sp mins z a
      end
    done;
    z
  in
  (* The incumbent gate: cover the caps [z] misses, repair it to the z
     rows, trim it to the black box, and take it if it is usable, meets
     every cap and beats the incumbent.  Says whether [z] was usable as
     is ([`Intact]), only after covering, repair or trimming
     ([`Repaired]), or not at all ([`Rejected]). *)
  let consider z =
    let zr = covered z in
    let zr =
      if feasible zr then zr
      else fst (repair_eval ~jobs sp ~budget ~z_rows ~mandatory zr)
    in
    let zr = if accept zr then zr else trim_to_acceptance zr in
    if feasible zr && accept zr && meets_caps zr then begin
      improve zr (Sproblem.eval ~jobs sp zr);
      (* covering, repair and trimming return copies *)
      if zr == z then `Intact else `Repaired
    end
    else `Rejected
  in
  (match options.warm_z with
  | None -> ()
  | Some config -> (
      (* Map the prior selection into this problem's candidate positions;
         indexes no longer in the candidate set are dropped, forbidden
         ones masked, and the rest goes through the incumbent gate.
         [solver.warm_repaired] ticks when the prior selection needed
         repair or trimming but was used, [solver.warm_rejected] when
         even the repaired selection was unusable. *)
      let zw = Sproblem.z_of_config sp config in
      Array.iteri (fun a f -> if f then zw.(a) <- false) forced_zero;
      match consider zw with
      | `Intact -> ()
      | `Repaired -> Runtime.Trace.incr tr_warm_repaired
      | `Rejected -> Runtime.Trace.incr tr_warm_rejected));
  ignore (consider (greedy_initial sp ~savings ~budget ~z_rows));
  (if !best_obj < infinity then
     let ls_z, ls_obj = local_search ~jobs sp ~budget ~z_rows !best_z !best_obj in
     if accept ls_z && meets_caps ls_z then improve ls_z ls_obj);
  let best_bound = ref neg_infinity in
  let emit () =
    options.on_feedback
      { elapsed = elapsed (); incumbent = !best_obj; bound = !best_bound }
  in
  let theta = ref 2.0 in
  let no_improve = ref 0 in
  let cg_hardened = ref 0 in
  (* Halving the step scale after 10 stalled iterations suits the
     benefit-initialized start: the multipliers begin near the
     equilibrium, so large corrections overshoot more than they
     explore. *)
  let stall_limit = 10 in
  let w = Array.make ncand 0.0 in
  let usage = Array.make nblocks [] in
  (* Per-solve scratch, written only on this domain: the per-byte
     denominators, the knapsack ratios, and the subgradient's mark of
     each block's used candidates. *)
  let denom = Array.map (fun s -> max 1.0 s) sp.Sproblem.sizes in
  let ratio = Array.make ncand 0.0 in
  let mark = Array.make ncand false in
  (* The block subproblems run in contiguous chunks of blocks (one at
     jobs 1), one pool task per chunk.  Each task allocates its own
     [price] scratch, so nothing shared is written inside [parallel_map].
     Each block's result depends on its own inputs only, so the chunking
     moves no value. *)
  let nchunks = if jobs = 1 then 1 else min nblocks (4 * jobs) in
  let chunks =
    Array.init nchunks (fun c ->
        (c * nblocks / nchunks, (c + 1) * nblocks / nchunks))
  in
  (* subgradient of the linking rows, aligned with [lam], and of the cap
     rows, aligned with [mu] *)
  let g = Array.map Array.copy lam in
  let cap_g = Array.make nblocks 0.0 in
  let iter = ref 0 in
  (* the gap closes only on an incumbent *)
  let gap_ok () =
    !best_bound > neg_infinity
    && !best_obj < infinity
    && !best_obj -. !best_bound
       <= options.gap_tolerance *. (abs_float !best_obj +. 1e-9)
  in
  emit ();
  (try
     while
       (not (gap_ok ()))
       && !iter < options.max_iters
       && elapsed () < options.time_limit
     do
       incr iter;
       Runtime.Trace.incr tr_iterations;
       (* z-part costs *)
       Array.blit sp.Sproblem.ucost 0 w 0 ncand;
       for bi = 0 to nblocks - 1 do
         let cands_used = sp.Sproblem.blocks.(bi).Sproblem.cands_used in
         let lb = lam.(bi) in
         for i = 0 to Array.length cands_used - 1 do
           let pos = cands_used.(i) in
           w.(pos) <- w.(pos) -. lb.(i)
         done
       done;
       (* block subproblems: independent given lam, so fan them over the
          pool; the bound accumulation below stays a fixed left-to-right
          sum, keeping the subgradient trajectory identical at every job
          count *)
       let sub =
         Runtime.parallel_map ~jobs
           (fun (lo, hi) ->
             let price = Array.make ncand 0.0 in
             Array.init (hi - lo) (fun k ->
                 let bi = lo + k in
                 let b = sp.Sproblem.blocks.(bi) in
                 let weight =
                   if caps.cap.(bi) < infinity then
                     b.Sproblem.weight +. (mu.(bi) *. caps.scale.(bi))
                   else b.Sproblem.weight
                 in
                 block_subproblem b lam.(bi) ~weight ~price
                   ~excluded:forced_zero))
           chunks
       in
       Runtime.Trace.add tr_block_solves nblocks;
       let lower = ref sp.Sproblem.fixed in
       for c = 0 to nchunks - 1 do
         let lo, _ = chunks.(c) in
         let part = sub.(c) in
         for k = 0 to Array.length part - 1 do
           let v, used, cost = part.(k) in
           let bi = lo + k in
           usage.(bi) <- used;
           if caps.cap.(bi) < infinity then begin
             let rhs = caps.cap.(bi) *. caps.scale.(bi) in
             lower := !lower +. (v -. (mu.(bi) *. rhs));
             cap_g.(bi) <- (cost *. caps.scale.(bi)) -. rhs
           end
           else lower := !lower +. v
         done
       done;
       let base = !lower in
       let order =
         if z_rows = [] then knapsack_order ~w ~denom ~ratio else [||]
       in
       let zval, zfrac, zdual, zstatus =
         if z_rows = [] then
           let v, z, y =
             greedy_z_with_duals ~order ~w ~sizes:sp.Sproblem.sizes ~denom
               ~ratio ~budget ~forced_one ~forced_zero
           in
           (* analytic knapsack optimum: proven by construction *)
           (v, z, Some y, Lp.Simplex.Optimal)
         else
           let v, z, s = z_lp sp ~w ~budget ~z_rows ~forced_one ~forced_zero in
           (v, z, None, s)
       in
       let zproven = zstatus = Lp.Simplex.Optimal in
       if Runtime.Fx.is_inf zval then begin
         (* The z polytope is infeasible.  If variables were hardened the
            restriction is only valid for solutions at least as good as
            the incumbent — emptiness then proves the incumbent optimal,
            not the problem infeasible. *)
         best_bound := (if !cg_hardened > 0 then !best_obj else infinity);
         raise Exit
       end;
       let lower = base +. zval in
       (* An Iter_limit z value must not advance the proven bound (its
          rounding above still feeds the primal side); stalling the
          bound also halves theta on schedule, which is what gives the
          truncated solve a chance to converge next round. *)
       if zproven && lower > !best_bound +. 1e-9 then begin
         best_bound :=
           (lower
           [@bound.sink bound
               "the advertised Lagrangian lower bound; an unproven z \
                value here fabricates the reported gap"]);
         no_improve := 0
       end
       else begin
         incr no_improve;
         if !no_improve > stall_limit then begin
           theta := !theta /. 2.0;
           no_improve := 0
         end
       end;
       (* Reduced-cost tightening against the incumbent [u].  Both moves
          rest on one fact: forcing a variable to its opposite bound
          costs at least the knapsack reduced cost, so [lower + d_a > u]
          proves every solution at least as good as the incumbent agrees
          with the greedy on that variable.  The incumbent itself always
          satisfies the accumulated fixings (its value is [u], not
          above), so the restricted region stays nonempty and the final
          [min bound obj] stays a true lower bound. *)
       (match zdual with
       | Some y when zproven && !best_obj < infinity ->
           let u = !best_obj in
           let margin = 1e-6 *. (1.0 +. abs_float u) in
           (* [lower + rc a] and [lower - rc a], the costs of moving [a] to
              its opposite bound, once per iteration *)
           for a = 0 to ncand - 1 do
             let free = (not forced_one.(a)) && not forced_zero.(a) in
             let at_zero = free && Runtime.Fx.is_zero zfrac.(a) in
             let at_one =
               free && (not at_zero) && Runtime.Fx.exactly 1.0 zfrac.(a)
             in
             let rc = w.(a) -. (y *. denom.(a)) in
             let up = lower +. rc and down = lower -. rc in
             if at_zero && up > u +. margin then begin
               forced_zero.(a) <- true;
               incr cg_hardened;
               Runtime.Trace.incr tr_cg_hardened
             end
             else if at_one && down > u +. margin then begin
               forced_one.(a) <- true;
               incr cg_hardened;
               Runtime.Trace.incr tr_cg_hardened
             end
           done
       | _ -> ());
       (* primal: round the z subproblem, enrich with the most-used
          candidates up to a small budget overshoot, repair, occasionally
          local-search.  This runs on alternate iterations only (after
          the first four): the incumbent settles within a handful of
          iterations while rounding plus evaluation rivals the block
          solves in cost. *)
       if !iter <= 4 || !iter mod 2 = 1 then begin
       let zr = Array.map (fun v -> v > 0.999) zfrac in
       let counts = Array.make ncand 0 in
       Array.iter (List.iter (fun a -> counts.(a) <- counts.(a) + 1)) usage;
       let used_order =
         List.init ncand Fun.id
         |> List.filter (fun a -> counts.(a) > 0 && not zr.(a))
         |> List.sort (fun a b -> compare counts.(b) counts.(a))
       in
       let size_so_far = ref (Sproblem.total_size sp zr) in
       List.iter
         (fun a ->
           if !size_so_far +. sp.Sproblem.sizes.(a) <= 1.3 *. budget then begin
             zr.(a) <- true;
             size_so_far := !size_so_far +. sp.Sproblem.sizes.(a)
           end)
         used_order;
       Array.iteri (fun a f -> if f then zr.(a) <- false) forced_zero;
       let zr = covered zr in
       let zr, obj = repair_eval ~jobs sp ~budget ~z_rows ~mandatory zr in
       let candidate_z, candidate_obj =
         if
           obj < !best_obj *. 1.02
           && (!iter mod local_search_period = 0 || obj < !best_obj)
         then local_search ~jobs sp ~budget ~z_rows zr obj
         else (zr, obj)
       in
       (* repair stops short of feasibility when a Ge row needs an index
          the rounding left out, and trimming can break a Ge row: both
          candidates pass the z rows before they compete *)
       if accept candidate_z then begin
         if feasible candidate_z && meets_caps candidate_z then
           improve ~margin:1e-9 candidate_z candidate_obj
       end
       else begin
         (* trim toward the black box and take the result if it wins *)
         let zt = trim_to_acceptance candidate_z in
         if accept zt && feasible zt && meets_caps zt then
           improve ~margin:1e-9 zt (Sproblem.eval ~jobs sp zt)
       end
       end;
       (* subgradient step *)
       let gnorm2 = ref 0.0 in
       for bi = 0 to nblocks - 1 do
         let used = usage.(bi) in
         List.iter (fun a -> mark.(a) <- true) used;
         let cands_used = sp.Sproblem.blocks.(bi).Sproblem.cands_used in
         let gb = g.(bi) in
         for i = 0 to Array.length cands_used - 1 do
           let pos = cands_used.(i) in
           let u = if mark.(pos) then 1.0 else 0.0 in
           let gi = u -. zfrac.(pos) in
           gb.(i) <- gi;
           gnorm2 := !gnorm2 +. (gi *. gi)
         done;
         List.iter (fun a -> mark.(a) <- false) used
       done;
       Array.iter
         (fun bi -> gnorm2 := !gnorm2 +. (cap_g.(bi) *. cap_g.(bi)))
         caps.capped;
       if !gnorm2 > 1e-12 then begin
         let ub_ref = if !best_obj < infinity then !best_obj else empty_obj in
         let step = !theta *. (ub_ref -. lower) /. !gnorm2 in
         let step = max 0.0 step in
         for bi = 0 to nblocks - 1 do
           let lb = lam.(bi) and gb = g.(bi) in
           for i = 0 to Array.length gb - 1 do
             (* [max 0.0 v], written out: [Stdlib.max] is polymorphic *)
             let v = lb.(i) +. (step *. gb.(i)) in
             lb.(i) <- (if 0.0 >= v then 0.0 else v)
           done
         done;
         Array.iter
           (fun bi ->
             let v = mu.(bi) +. (step *. cap_g.(bi)) in
             mu.(bi) <- (if 0.0 >= v then 0.0 else v))
           caps.capped
       end;
       emit ()
     done
   with Exit -> ());
  (* persist multipliers for warm starts *)
  let tbl = Hashtbl.create 1024 in
  Array.iteri
    (fun bi (b : Sproblem.block) ->
      Array.iteri
        (fun i pos ->
          if Runtime.Fx.nonzero lam.(bi).(i) then
            Hashtbl.replace tbl
              (b.Sproblem.qid, sp.Sproblem.candidates.(pos))
              lam.(bi).(i))
        b.Sproblem.cands_used)
    sp.Sproblem.blocks;
  emit ();
  let objective =
    (!best_obj
    [@bound.sink certified_output
        "reported incumbent cost: must come from true evaluations of \
         concrete configurations, never from a relaxation iterate"])
  in
  let bound =
    (min !best_bound !best_obj
    [@bound.sink certified_output
        "reported Lagrangian bound: advisors and the gap certificate \
         derive the optimality claim from it"])
  in
  {
    z = !best_z;
    config = Sproblem.config_of sp !best_z;
    objective;
    bound;
    gap = (objective -. bound) /. (abs_float objective +. 1e-9);
    iterations = !iter;
    multipliers = tbl;
    probe_regret = sp.Sproblem.probe_regret;
  }

(* --- Feasibility and certification --- *)

(* The query-cost caps [(qid, cap)] that selection [z] misses, named
   [cost_cap_<qid>]: a cap fails when a block of its statement costs
   more than the cap under [z]. *)
let cap_offenders (sp : Sproblem.t) ~block_caps (z : bool array) =
  List.filter_map
    (fun (qid, cap) ->
      if
        Array.exists
          (fun (b : Sproblem.block) ->
            b.Sproblem.qid = qid && not (Sproblem.block_cost_z b z <= cap))
          sp.Sproblem.blocks
      then Some (Printf.sprintf "cost_cap_%d" qid)
      else None)
    block_caps

(* Feasibility of the hard constraints: the z polytope
   (mandatory/forbidden/budget/...), then each query-cost cap at the
   cheapest cost its block can reach, with every candidate selected.
   Without z rows and with a nonnegative budget the empty selection lies
   in the polytope (it uses no storage), so no LP is needed. *)
let check_feasibility (sp : Sproblem.t) ~budget ~z_rows ~block_caps =
  let infeasible ~budget ~z_rows =
    let p, _ = z_polytope sp ~budget ~z_rows in
    match (Lp.Simplex.solve p).Lp.Simplex.status with
    | Lp.Simplex.Infeasible -> true
    | _ -> false
  in
  let empty_fits = z_rows = [] && budget >= 0.0 in
  if (not empty_fits) && infeasible ~budget ~z_rows then begin
    (* Identify offenders: re-test the storage row alone, and each z row
       alone against the bounds. *)
    let offenders =
      (if infeasible ~budget ~z_rows:[] then [ "storage" ] else [])
      @ List.filter_map
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
  match cap_offenders sp ~block_caps all with
  | [] -> ()
  | offenders -> raise (Infeasible offenders)

let solve ?(options = default_options) ?(accept = fun (_ : bool array) -> true)
    (sp : Sproblem.t) ~budget ~z_rows ~block_caps =
  Runtime.Trace.span "solver.feasibility_check" (fun () ->
      check_feasibility sp ~budget ~z_rows ~block_caps);
  let r =
    Runtime.Trace.span "solver.decomposition" (fun () ->
        decompose ~options ~accept sp ~budget ~z_rows ~block_caps)
  in
  if Runtime.Fx.is_inf r.bound then
    raise (Infeasible [ "z polytope infeasible" ]);
  (* The constraints passed the check above, so a missing incumbent is a
     search that found none, not a proof that none exists. *)
  if Runtime.Fx.is_inf r.objective then
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
    Array.iteri (fun a v -> zx.(v) <- (if r.z.(a) then 1.0 else 0.0)) zvars;
    let cert = Lp.Analyze.certify ~int_vars:(Array.to_list zvars) zp zx in
    let failures =
      (if cert.Lp.Analyze.cert_ok then []
       else [ Lp.Analyze.certificate_summary cert ])
      @ cap_offenders sp ~block_caps r.z
    in
    if failures <> [] then
      raise
        (Lp.Analyze.Certification_failed
           ("selection rejected: " ^ String.concat "; " failures))
  end;
  r
