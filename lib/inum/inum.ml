(* INUM — the fast what-if layer of Papadomanolakis, Dash & Ailamaki (VLDB
   2007), rebuilt over our own optimizer, with Wii-style lazy probing.

   For each query we enumerate combinations of per-table access specs —
   unordered, one of the table's interesting orders, or nested-loop inner
   on a join column — and ask the optimizer for the optimal *template
   plan* of each combination: a plan whose leaves are abstract slots with
   zero access cost.  The plan's cost is the internal plan cost beta_qk;
   the cost of instantiating slot i with index a is gamma_qkia (infinite
   when the index cannot satisfy the slot's requirement).  cost(q, X) is
   then min over templates and atomic configurations of beta + sum gamma —
   the linearly composable form of Definition 1, which is what makes index
   tuning a BIP (Theorem 1).

   Probing is bound-driven rather than exhaustive (the Wii idea: skip
   what-if calls whose outcome is boundable without the optimizer).  The
   spec combinations form two partial orders:

   - the *beta order*: c <= c' when c' only strengthens ordered specs of
     c (Spec_any below every Spec_ordered, Spec_ordered by prefix,
     Spec_nlj only equal to itself).  Extra delivered orders are free
     structure, so any plan for c is a plan for c' at no extra cost:
     beta is non-increasing upward, and infeasibility propagates
     downward (a stronger combination with no plan proves the weaker one
     has none).  Probed neighbors therefore bound an unprobed beta:
     below by any probed stronger combination, above (through the gamma
     order) by any probed weaker template.
   - the *gamma order*: the template of c asks no more of every slot
     than the template of c' would (Spec_any below everything,
     Spec_ordered by prefix; NLJ specs are incomparable before probing
     because their outer cardinality is unknown).  A probed template t'
     below c in this order with beta(t') <= lb(c) proves c's template
     would be dominated — it can be skipped with zero regret, and the
     kept template set is provably identical to the eager build's.

   The loop probes the all-any combination first, then repeatedly the
   pending combination with the widest bound interval, until every
   combination is probed or certified, or a probe budget runs out.
   Budget-deferred combinations stay [Pending] with their bounds; the
   worst residual gap is the per-query regret bound, and
   [refine]/[cost]/[best_instantiation] force outstanding probes later
   when (and only when) a pending interval overlaps the best
   instantiation under the configuration actually consulted. *)

open Sqlast

type template = {
  beta : float;
  (* Requirement per referenced table, aligned with [tables]. *)
  slot_reqs : Optimizer.Plan.slot_req array;
  plan : Optimizer.Plan.t;
}

(* Per-combination probe state.  The bounds live beside it in [t]
   ([lb], [ub]), and every probe updates them for every combination it
   relates to, so a later probe can never leave a stale interval
   behind. *)
type probe_state =
  | Probed of template option  (* [None]: the specs admit no plan *)
  | Skipped_dominated  (* certified: its template would be dominated *)
  | Skipped_infeasible  (* certified: a stronger combination has no plan *)
  | Pending  (* deferred by the probe budget *)

type t = {
  (* Unique among the caches of this process (see [fresh_ids]). *)
  id : int;
  query : Ast.query;
  tables : string array;
  (* Spec combinations in enumeration order (the eager probe order),
     with each one's count of constrained (not [Spec_any]) tables. *)
  combos : Optimizer.Whatif.slot_spec array array;
  constrained : int array;
  (* Parallel to [combos]; mutated by the probe loop and by [refine]. *)
  states : probe_state array;
  (* Spec positions of each combination (row [i] is [combos.(i)]'s
     position in every table's spec array), and the spec orders
     tabulated per table [k] and spec position [v] as combination sets
     (see [combo_sets]): [beta_above.(k).(v)] holds the [i] whose spec
     at [k] is [spec_beta_le]-below [v], [gamma_below.(k).(v)] the [i]
     whose spec at [k] is [spec_gamma_le]-above it.  A combination [p]
     lies above [i] in the beta order exactly when [i] is in every
     [beta_above.(k).(ranks.(p).(k))], and below it in the gamma order
     exactly when [i] is in every [gamma_below.(k).(ranks.(p).(k))]. *)
  ranks : int array array;
  beta_above : int array array array;
  gamma_below : int array array array;
  (* Per-combination bounds from the probes so far, kept by
     [certify_pass]: [lb.(i)] is [cost_floor] raised by every probed
     template above [i] in the beta order, [ub.(i)] the cheapest probed
     template below [i] in the gamma order ([infinity] when none),
     [infeasible.(i)] whether a combination above [i] has no plan.
     [lb_arg]/[ub_arg] name the combination each bound was taken from
     ([-1]: the seed), so a tie keeps the lowest combination index, as
     a fold over the neighbors in index order would; [ub_arg] is set by
     any probed neighbor whose beta is not nan. *)
  lb : float array;
  lb_arg : int array;
  ub : float array;
  ub_arg : int array;
  infeasible : bool array;
  (* Probed templates no probed template strictly dominates, duplicates
     included, with their combination index, in combination order;
     updated by every probe. *)
  mutable undominated : (int * template) list;
  (* Kept template snapshot: [undominated] deduplicated; rebuilt after
     every forced probe that changes [undominated].  [kept_combos] holds,
     parallel to it, the combination each kept template was probed
     from. *)
  mutable templates : template array;
  mutable kept_combos : int array;
  (* Optimizer calls spent so far (build + later forcing). *)
  mutable init_calls : int;
  (* Combinations dropped by the [max_combinations] cap. *)
  truncated : int;
  (* Combination-independent beta floor (Whatif.template_cost_floor). *)
  cost_floor : float;
  (* The query's template DP over [tables]' specs, prepared once; every
     probe runs through a [Whatif.dp] of it made for its batch. *)
  prepared : Optimizer.Whatif.prepared;
  env : Optimizer.Whatif.env;
  (* Serializes forcing; builds happen on a single domain before the
     value is published. *)
  lock : Mutex.t;
}

let cost_floor t = t.cost_floor
let id t = t.id
let query t = t.query
let templates t = Array.to_list t.templates
let template_count t = Array.length t.templates
let init_calls t = t.init_calls
let tables t = Array.to_list t.tables
let combos_truncated t = t.truncated

(* --- Interesting orders --- *)

(* Candidate orders for [table] in [q]: join columns, the group-by columns
   on the table (as a unit), and the order-by prefix on the table. *)
let interesting_orders (q : Ast.query) table =
  let joins =
    List.map (fun (c : Ast.col_ref) -> [ c.Ast.column ]) (Ast.join_columns q table)
  in
  let groups =
    match
      List.filter_map
        (fun (c : Ast.col_ref) ->
          if c.Ast.table = table then Some c.Ast.column else None)
        q.Ast.group_by
    with
    | [] -> []
    | cols -> [ cols ]
  in
  let orders =
    match
      List.filter_map
        (fun ((c : Ast.col_ref), _) ->
          if c.Ast.table = table then Some c.Ast.column else None)
        q.Ast.order_by
    with
    | [] -> []
    | cols -> [ cols ]
  in
  let all = joins @ groups @ orders in
  List.fold_left (fun acc o -> if List.mem o acc then acc else o :: acc) [] all
  |> List.rev
  |> List.filteri (fun i _ -> i < 3)

(* Join columns of [table] usable as nested-loop probe targets. *)
let nlj_columns (q : Ast.query) table =
  if List.length q.Ast.tables < 2 then []
  else
    List.map (fun (c : Ast.col_ref) -> c.Ast.column) (Ast.join_columns q table)
    |> List.sort_uniq String.compare
    |> List.filteri (fun i _ -> i < 2)

(* Per-table specs: unordered, each interesting order, each NLJ column. *)
let table_specs q table =
  Optimizer.Whatif.Spec_any
  :: (List.map (fun o -> Optimizer.Whatif.Spec_ordered o) (interesting_orders q table)
     @ List.map (fun c -> Optimizer.Whatif.Spec_nlj c) (nlj_columns q table))

(* Enumerate spec combinations, bounding the number of simultaneously
   constrained tables (long merge/NLJ chains blow up the template count)
   and the total number of combinations per query.  Enumeration visits
   less-constrained combinations first, so truncation drops the most
   exotic templates — mirroring how INUM bounds its plan cache.  The
   combinations dropped by [max_combinations] are counted (per cache in
   [combos_truncated], globally in the [inum.combos_truncated] trace
   counter): the cap is a modeling choice, never a silent one. *)
let max_constrained_tables = 3
let max_combinations = 160

let is_spec_any = function Optimizer.Whatif.Spec_any -> true | _ -> false

(* Combinations over [specs.(k)] (table [k]'s specs), each given as the
   position of its spec in every table's array. *)
let spec_combinations (specs : Optimizer.Whatif.slot_spec array array) =
  let n = Array.length specs in
  let rec go i acc_rev constrained =
    if i = n then [ List.rev acc_rev ]
    else
      List.concat_map
        (fun p ->
          let constrained' =
            if is_spec_any specs.(i).(p) then constrained else constrained + 1
          in
          if constrained' > max_constrained_tables then []
          else go (i + 1) (p :: acc_rev) constrained')
        (List.init (Array.length specs.(i)) Fun.id)
  in
  let all = go 0 [] 0 in
  let constrained_count combo =
    List.length
      (List.filteri (fun k p -> not (is_spec_any specs.(k).(p))) combo)
  in
  (* each combination's count computed once, then a stable sort on it *)
  let sorted =
    List.map (fun c -> (constrained_count c, c)) all
    |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
  in
  (List.filteri (fun i _ -> i < max_combinations) sorted, List.length all)

(* --- Requirement comparison for template domination --- *)

let order_weaker_eq (o1 : string list) (o2 : string list) =
  (* o1 is a prefix of o2 *)
  let rec prefix = function
    | [], _ -> true
    | _, [] -> false
    | a :: xs, b :: ys -> String.equal a b && prefix (xs, ys)
  in
  prefix (o1, o2)

let req_weaker_eq (r1 : Optimizer.Plan.slot_req) (r2 : Optimizer.Plan.slot_req) =
  match (r1, r2) with
  | Optimizer.Plan.Any_order, _ -> true
  | Optimizer.Plan.Ordered o1, Optimizer.Plan.Ordered o2 -> order_weaker_eq o1 o2
  | ( Optimizer.Plan.Nlj_inner { join_col = c1; outer_rows = r1 },
      Optimizer.Plan.Nlj_inner { join_col = c2; outer_rows = r2 } ) ->
      String.equal c1 c2 && r1 <= r2
  | _ -> false

(* Structural slot-requirement equality.  [outer_rows] is a float, so the
   comparison goes through [Runtime.Fx] — polymorphic [=] over values
   embedding floats is exactly the bug class lint rule L1 rejects. *)
let req_equal (r1 : Optimizer.Plan.slot_req) (r2 : Optimizer.Plan.slot_req) =
  match (r1, r2) with
  | Optimizer.Plan.Any_order, Optimizer.Plan.Any_order -> true
  | Optimizer.Plan.Ordered o1, Optimizer.Plan.Ordered o2 ->
      List.length o1 = List.length o2 && List.for_all2 String.equal o1 o2
  | ( Optimizer.Plan.Nlj_inner { join_col = c1; outer_rows = r1 },
      Optimizer.Plan.Nlj_inner { join_col = c2; outer_rows = r2 } ) ->
      String.equal c1 c2 && Runtime.Fx.exactly r1 r2
  | _ -> false

let reqs_equal a b =
  Array.length a = Array.length b
  &&
  let rec go i =
    i >= Array.length a || (req_equal a.(i) b.(i) && go (i + 1))
  in
  go 0

let template_equal t1 t2 =
  Runtime.Fx.exactly t1.beta t2.beta && reqs_equal t1.slot_reqs t2.slot_reqs

(* t1 makes t2 redundant when it is no more expensive internally and
   requires no more from every slot. *)
let dominates t1 t2 =
  t1.beta <= t2.beta
  && Array.for_all2 req_weaker_eq t1.slot_reqs t2.slot_reqs

let strictly_dominates t1 t2 = dominates t1 t2 && not (template_equal t1 t2)

(* --- Spec-level partial orders (pre-probe) --- *)

(* Beta order: [s1 <= s2] when any plan honoring [s1]'s spec is a plan
   honoring [s2]'s at no greater cost (extra orders are free structure).
   NLJ specs pin the plan shape, so they compare only to themselves. *)
let spec_beta_le (s1 : Optimizer.Whatif.slot_spec) s2 =
  match (s1, s2) with
  | Optimizer.Whatif.Spec_any, Optimizer.Whatif.Spec_any -> true
  | Optimizer.Whatif.Spec_any, Optimizer.Whatif.Spec_ordered _ -> true
  | Optimizer.Whatif.Spec_ordered o1, Optimizer.Whatif.Spec_ordered o2 ->
      order_weaker_eq o1 o2
  | Optimizer.Whatif.Spec_nlj a, Optimizer.Whatif.Spec_nlj b -> String.equal a b
  | _ -> false

(* Gamma order: the template probed from [s1] asks no more of the slot
   than the one probed from [s2] would ([req_weaker_eq] at spec level).
   NLJ specs are excluded: their requirement carries the probe-time outer
   cardinality, which is unknown for an unprobed combination. *)
let spec_gamma_le (s1 : Optimizer.Whatif.slot_spec) s2 =
  match (s1, s2) with
  | Optimizer.Whatif.Spec_any, _ -> true
  | Optimizer.Whatif.Spec_ordered o1, Optimizer.Whatif.Spec_ordered o2 ->
      order_weaker_eq o1 o2
  | _ -> false

let constrained_count combo =
  Array.fold_left (fun acc s -> if is_spec_any s then acc else acc + 1) 0 combo

(* Sets of combination indices as bitsets, [set_bits] indices per
   word. *)
let set_bits = 62

(* Per table [k] and spec position [v], the combinations [i] with
   [le (spec of i at k) (spec v)] ([flip = false]) or
   [le (spec v) (spec of i at k)] ([flip = true]). *)
let combo_sets le ~flip (specs : Optimizer.Whatif.slot_spec array array)
    (ranks : int array array) =
  let words = (Array.length ranks + set_bits - 1) / set_bits in
  Array.mapi
    (fun k sp ->
      (* [holds.(v).(u)]: the order between spec positions [u] and [v] *)
      let holds =
        Array.map
          (fun v -> Array.map (fun u -> if flip then le v u else le u v) sp)
          sp
      in
      Array.map
        (fun holds_v ->
          let set = Array.make words 0 in
          Array.iteri
            (fun i r ->
              if holds_v.(r.(k)) then
                set.(i / set_bits) <- set.(i / set_bits) lor (1 lsl (i mod set_bits)))
            ranks;
          set)
        holds)
    specs

(* --- Cache construction --- *)

(* Trace probes: single [Atomic.get] each when tracing is off.  The
   template-plan probes issued to the what-if optimizer (the paper's
   INUM "init" currency) are counted once, by [whatif.template_probes]
   in {!Optimizer.Whatif.template_plan}; [inum.probes_skipped] the
   combinations certified away without a probe;
   [inum.probes_forced] the deferred probes forced later by the lazy
   completion path; [inum.combos_truncated] the combinations dropped by
   the [max_combinations] cap; [inum.probe_regret] the (rounded-up)
   per-query regret bounds left at build time by a finite probe budget;
   [inum.beta_extractions] the templates whose internal cost beta was
   materialized; [inum.gamma_evals] the per-slot gamma lookups at
   cost-evaluation time. *)
let tr_template_enums = Runtime.Trace.counter "inum.template_enumerations"
let tr_beta = Runtime.Trace.counter "inum.beta_extractions"
let tr_gamma = Runtime.Trace.counter "inum.gamma_evals"
let tr_templates_kept = Runtime.Trace.counter "inum.templates_kept"
let tr_skipped = Runtime.Trace.counter "inum.probes_skipped"
let tr_forced = Runtime.Trace.counter "inum.probes_forced"
let tr_truncated = Runtime.Trace.counter "inum.combos_truncated"
let tr_regret = Runtime.Trace.counter "inum.probe_regret"

let is_pending t i = match t.states.(i) with Pending -> true | _ -> false

let has_pending t =
  let n = Array.length t.states in
  let rec go i = i < n && (is_pending t i || go (i + 1)) in
  go 0

(* Lower bound on beta_i: probed combinations above [i] in the beta order
   are no more expensive, seeded with the combination-independent floor. *)
let lower_bound t i = t.lb.(i)

(* Upper bound on the cost contribution of [i]: the cheapest probed
   template below [i] in the gamma order also gamma-dominates it
   pointwise, so beta_i's template can beat it by at most ub - lb. *)
let upper_bound t i = t.ub.(i)

(* The intersection over tables of [sets.(k).(ranks.(p).(k))]. *)
let related t sets p =
  let rp = t.ranks.(p) in
  let acc =
    Array.make ((Array.length t.ranks + set_bits - 1) / set_bits) (-1)
  in
  for k = 0 to Array.length rp - 1 do
    let set = sets.(k).(rp.(k)) in
    for w = 0 to Array.length acc - 1 do
      acc.(w) <- acc.(w) land set.(w)
    done
  done;
  acc

(* The sweep after probing [probed]: fold its outcome into the bounds of
   every combination it relates to, then skip for good the pending ones
   among them proven infeasible (a stronger probed combination has no
   plan) or dominated (a probed gamma-weaker template undercuts the beta
   lower bound: [ub <= lb], with [ub] set by a probe).  A max or min
   taken one probe at a time is the fold over the probed neighbors,
   ties to the lowest index included.  Certifications read only probed
   states, so the sweep after each probe reaches the closure; and as
   the sweep before reached it too, only combinations related to
   [probed] can have become certifiable. *)
let certify_pass t probed =
  let outcome = match t.states.(probed) with Probed r -> r | _ -> None in
  let aboves = related t t.beta_above probed
  and belows = related t t.gamma_below probed in
  let visit i above below =
    if i <> probed && (above || below) then begin
      (match outcome with
      | None -> if above then t.infeasible.(i) <- true
      | Some tpl ->
          let b = tpl.beta in
          if
            above
            && (b > t.lb.(i)
               || (Runtime.Fx.exactly b t.lb.(i) && t.lb_arg.(i) > probed))
          then begin
            t.lb.(i) <- b;
            t.lb_arg.(i) <- probed
          end;
          if
            below
            && (b < t.ub.(i)
               || Runtime.Fx.exactly b t.ub.(i)
                  && (t.ub_arg.(i) < 0 || t.ub_arg.(i) > probed))
          then begin
            t.ub.(i) <- b;
            t.ub_arg.(i) <- probed
          end);
      match t.states.(i) with
      | Pending ->
          if t.infeasible.(i) then begin
            t.states.(i) <- Skipped_infeasible;
            Runtime.Trace.incr tr_skipped
          end
          else if t.ub_arg.(i) >= 0 && t.ub.(i) <= t.lb.(i) then begin
            t.states.(i) <- Skipped_dominated;
            Runtime.Trace.incr tr_skipped
          end
      | Probed _ | Skipped_dominated | Skipped_infeasible -> ()
    end
  in
  (* the related combinations in ascending order, word by word *)
  let n = Array.length t.states in
  for w = 0 to Array.length aboves - 1 do
    let a = aboves.(w) and b = belows.(w) in
    if a lor b <> 0 then
      for bit = 0 to set_bits - 1 do
        let i = (w * set_bits) + bit in
        if i < n then
          visit i ((a lsr bit) land 1 = 1) ((b lsr bit) land 1 = 1)
      done
  done

(* Probe combination [i], record its state and update [undominated];
   returns whether [undominated] changed (only then can the kept
   templates). *)
let probe_combo t dp i =
  t.init_calls <- t.init_calls + 1;
  let result =
    match Optimizer.Whatif.template_plan_at dp t.ranks.(i) with
    | None -> None
    | Some plan ->
        (* Recover each slot's actual requirement (NLJ slots now carry
           their outer cardinality). *)
        let slot_list = Optimizer.Plan.slots plan in
        let slot_reqs =
          Array.map
            (fun tb ->
              match List.find_opt (fun (tb', _, _) -> tb' = tb) slot_list with
              | Some (_, _, req) -> req
              | None -> Optimizer.Plan.Any_order)
            t.tables
        in
        Runtime.Trace.incr tr_beta;
        Some { beta = Optimizer.Plan.cost plan; slot_reqs; plan }
  in
  t.states.(i) <- Probed result;
  match result with
  | None -> false
  | Some tpl ->
      (* The undominated set of the probed templates plus [tpl]: the
         members [tpl] does not strictly dominate, and [tpl] itself,
         at its combination position, unless another probed template
         strictly dominates it.  Exact for any relation, transitive or
         not. *)
      let dominated =
        Array.exists
          (function
            | Probed (Some tpl') -> tpl' != tpl && strictly_dominates tpl' tpl
            | _ -> false)
          t.states
      in
      let rec insert = function
        | ((j, _) as m) :: rest when j < i -> m :: insert rest
        | rest -> (i, tpl) :: rest
      in
      let kept =
        List.filter
          (fun (_, tpl') -> not (strictly_dominates tpl tpl'))
          t.undominated
      in
      let changed =
        (not dominated) || List.compare_lengths kept t.undominated <> 0
      in
      t.undominated <- (if dominated then kept else insert kept);
      changed

(* Kept templates: probed, not strictly dominated by another probed
   template, first occurrence of each structural-duplicate class, in
   combination order — the first-occurrence dedup of [undominated].
   Skipped combinations are exactly those whose template a probed one
   would strictly dominate, so at an unlimited budget this equals the
   eager build's kept set. *)
let rebuild_templates t =
  let kept =
    List.fold_left
      (fun acc ((_, tpl) as m) ->
        if List.exists (fun (_, tpl') -> template_equal tpl' tpl) acc then acc
        else m :: acc)
      [] t.undominated
    |> List.rev
  in
  t.templates <- Array.of_list (List.map snd kept);
  t.kept_combos <- Array.of_list (List.map fst kept)

(* Next probe target: the pending combination with the widest bound
   interval (most information per probe), most-constrained then lowest
   index on ties — a deterministic schedule. *)
let next_probe t =
  let best = ref (-1) in
  let best_gap = ref neg_infinity in
  let best_cc = ref (-1) in
  Array.iteri
    (fun i st ->
      match st with
      | Pending ->
          let gap = upper_bound t i -. lower_bound t i in
          let cc = t.constrained.(i) in
          if
            gap > !best_gap
            || (Runtime.Fx.exactly gap !best_gap && cc > !best_cc)
          then begin
            best := i;
            best_gap := gap;
            best_cc := cc
          end
      | Probed _ | Skipped_dominated | Skipped_infeasible -> ())
    t.states;
  if !best < 0 then None else Some !best

(* Worst residual bound gap over pending combinations — a certified bound
   on how far [cost]/[Sproblem] built from the kept templates can sit
   above the exhaustive INUM surface, at any configuration (the gamma
   order makes the upper bound's template dominate pointwise). *)
let probe_regret t =
  let worst = ref 0.0 in
  Array.iteri
    (fun i st ->
      match st with
      | Pending ->
          let gap = upper_bound t i -. lower_bound t i in
          if gap > !worst then worst := gap
      | Probed _ | Skipped_dominated | Skipped_infeasible -> ())
    t.states;
  !worst

let pending_probes t =
  let n = ref 0 in
  Array.iter
    (fun st -> match st with Pending -> incr n | _ -> ())
    t.states;
  !n

(* Cache identities: [fresh_ids n] reserves [n] consecutive ids.
   [add_statements] reserves them in statement order before it fans the
   builds out over domains, so which cache gets which id does not depend
   on the job count. *)
let next_id = Atomic.make 0
let fresh_ids n = Atomic.fetch_and_add next_id n

let build_internal ~id ~eager ~probe_budget env (q : Ast.query) =
  Runtime.Trace.span "inum.build" @@ fun () ->
  let tables = Array.of_list q.Ast.tables in
  let specs = Array.map (fun t -> Array.of_list (table_specs q t)) tables in
  let combo_list, total = spec_combinations specs in
  Runtime.Trace.incr tr_template_enums;
  let ranks = Array.of_list (List.map Array.of_list combo_list) in
  let combos =
    Array.map (fun r -> Array.mapi (fun k p -> specs.(k).(p)) r) ranks
  in
  let n = Array.length combos in
  let truncated = total - n in
  if truncated > 0 then Runtime.Trace.add tr_truncated truncated;
  let cost_floor = Optimizer.Whatif.template_cost_floor env q in
  let t =
    {
      id;
      query = q;
      tables;
      combos;
      constrained = Array.map constrained_count combos;
      states = Array.make n Pending;
      ranks;
      beta_above = combo_sets spec_beta_le ~flip:false specs ranks;
      gamma_below = combo_sets spec_gamma_le ~flip:true specs ranks;
      lb = Array.make n cost_floor;
      lb_arg = Array.make n (-1);
      ub = Array.make n infinity;
      ub_arg = Array.make n (-1);
      infeasible = Array.make n false;
      undominated = [];
      templates = [||];
      kept_combos = [||];
      init_calls = 0;
      truncated;
      cost_floor;
      prepared = Optimizer.Whatif.prepare env q specs;
      env;
      lock = Mutex.create ();
    }
  in
  if n > 0 then begin
    (* one sub-mask memo for the build's probes, dropped with it *)
    let dp = Optimizer.Whatif.dp t.prepared in
    if eager then
      for i = 0 to n - 1 do
        ignore (probe_combo t dp i)
      done
    else begin
      let budget =
        match probe_budget with None -> max_int | Some b -> max 1 b
      in
      (* The all-any combination anchors every upper bound (its template
         gamma-dominates all others), so it is always probed first. *)
      ignore (probe_combo t dp 0);
      certify_pass t 0;
      let continue_ = ref (t.init_calls < budget) in
      while !continue_ do
        match next_probe t with
        | None -> continue_ := false
        | Some i ->
            ignore (probe_combo t dp i);
            certify_pass t i;
            if t.init_calls >= budget then continue_ := false
      done
    end
  end;
  rebuild_templates t;
  Runtime.Trace.add tr_templates_kept (Array.length t.templates);
  let regret = probe_regret t in
  if regret > 0.0 then
    Runtime.Trace.add tr_regret (int_of_float (Float.ceil regret));
  t

let build ?probe_budget env q =
  build_internal ~id:(fresh_ids 1) ~eager:false ~probe_budget env q

let build_eager env q =
  build_internal ~id:(fresh_ids 1) ~eager:true ~probe_budget:None env q

(* A snapshot of every combination's probe state and bounds (see the
   interface). *)
type combination = {
  specs : Optimizer.Whatif.slot_spec array;
  state : probe_state;
  lb : float;
  ub : float;
}

let combinations (t : t) =
  Array.mapi
    (fun i specs -> { specs; state = t.states.(i); lb = t.lb.(i); ub = t.ub.(i) })
    t.combos

(* --- Costs --- *)

(* gamma_qkia: cost of instantiating the slot of [table] in template [k]
   with [index] ([None] = no index).  A [None] result encodes an infinite
   coefficient. *)
let slot_index t table =
  let n = Array.length t.tables in
  let rec find i =
    if i >= n then
      invalid_arg
        (Printf.sprintf
           "Inum.gamma: table %S is not referenced by query %d" table
           t.query.Ast.query_id)
    else if String.equal t.tables.(i) table then i
    else find (i + 1)
  in
  find 0

let gamma t k ~table index =
  Runtime.Trace.incr tr_gamma;
  let ti = slot_index t table in
  let req = t.templates.(k).slot_reqs.(ti) in
  Optimizer.Access.slot_fill_cost t.env.Optimizer.Whatif.params
    t.env.Optimizer.Whatif.schema t.query table index req

(* The fill costs of slot [ti] at [config]: one access-cost context for
   the slot's table, and one access for the scan and for each index of
   [config] on the table, in [Config.on_table] order, made once.
   [fill None req] / [fill (Some k) req] is [gamma] of the scan / of
   the [k]-th index for [req]; [on_table] lists those indexes. *)
type slot_fills = {
  on_table : Storage.Index.t array;
  fill : int option -> Optimizer.Plan.slot_req -> float option;
}

let slot_fills t config ti =
  let schema = t.env.Optimizer.Whatif.schema in
  let ctx =
    Optimizer.Access.context t.env.Optimizer.Whatif.params schema t.query
      t.tables.(ti)
  in
  let on_table = Array.of_list (Storage.Config.on_table config t.tables.(ti)) in
  let scan = Optimizer.Access.access ctx None in
  let accs =
    Array.map
      (fun ix ->
        Optimizer.Access.access ctx (Some (Optimizer.Access.index schema ix)))
      on_table
  in
  {
    on_table;
    fill =
      (fun k req ->
        Optimizer.Access.fill_cost ctx
          (match k with None -> scan | Some k -> accs.(k))
          req);
  }

(* Minimum fill cost of requirement [req] on a slot over the indexes of
   the configuration (and no-index), folded in [on_table] order. *)
let best_req_cost f req =
  let base = match f.fill None req with Some c -> c | None -> infinity in
  let acc = ref base in
  for k = 0 to Array.length f.on_table - 1 do
    (* [min !acc c], without the polymorphic call *)
    match f.fill (Some k) req with
    | Some c -> if not (!acc <= c) then acc := c
    | None -> ()
  done;
  !acc

(* [best_req_cost] at a fixed [config], memoized per (slot, requirement)
   for the lifetime of the returned closure, over one [slot_fills] per
   slot, made on its first use.  The value is a pure function of its
   arguments, so a memo hit returns the very float a fresh evaluation
   would.  The memo is local to one caller: it never outlives the
   [config] it was made for. *)
let fill_cost t config =
  let memo = Array.make (Array.length t.tables) [] in
  let fills = Array.make (Array.length t.tables) None in
  fun ti req ->
    match List.find_opt (fun (r, _) -> req_equal r req) memo.(ti) with
    | Some (_, c) -> c
    | None ->
        let f =
          match fills.(ti) with
          | Some f -> f
          | None ->
              let f = slot_fills t config ti in
              fills.(ti) <- Some f;
              f
        in
        let c = best_req_cost f req in
        memo.(ti) <- (req, c) :: memo.(ti);
        c

(* Everything one [refine]/[cost] call reads at its fixed configuration,
   memoized for that call: [fill] is [fill_cost t config]; by combination
   index, [totals] holds a probed template's total (beta plus its slot
   fills, in slot order) and [opt_fills] a pending combination's
   optimistic slot fills.  All are pure in the configuration, so a hit
   returns the very float a fresh evaluation would; a combination's
   template never changes once probed. *)
type at_config = {
  fill : int -> Optimizer.Plan.slot_req -> float;
  totals : float option array;
  opt_fills : float array option array;
}

let at_config t config =
  let n = Array.length t.combos in
  {
    fill = fill_cost t config;
    totals = Array.make n None;
    opt_fills = Array.make n None;
  }

(* Surrogate cost over the kept templates only (no forcing).  Every
   kept-template slot counts as one gamma lookup, memo hit or not. *)
let kept_cost t c =
  let best = ref infinity in
  Array.iteri
    (fun k template ->
      let total =
        match c.totals.(t.kept_combos.(k)) with
        | Some total ->
            Runtime.Trace.add tr_gamma (Array.length template.slot_reqs);
            total
        | None ->
            let total = ref template.beta in
            Array.iteri
              (fun ti req ->
                Runtime.Trace.incr tr_gamma;
                total := !total +. c.fill ti req)
              template.slot_reqs;
            c.totals.(t.kept_combos.(k)) <- Some !total;
            !total
      in
      if total < !best then best := total)
    t.templates;
  !best

(* Optimistic total of a pending combination under the configuration:
   the beta lower bound plus a per-slot lower bound on the deferred
   template's fill costs, added in slot order.  Ordered/any slots are
   exact — their requirement is the spec verbatim.  An NLJ slot's
   requirement carries the probe-time outer cardinality; cardinalities
   are clamped to >= 1 row, so one probe's cost bounds the slot from
   below. *)
let optimistic_total t c i =
  let fills =
    match c.opt_fills.(i) with
    | Some fills -> fills
    | None ->
        let fills =
          Array.mapi
            (fun k s ->
              let req =
                match s with
                | Optimizer.Whatif.Spec_any -> Optimizer.Plan.Any_order
                | Optimizer.Whatif.Spec_ordered o -> Optimizer.Plan.Ordered o
                | Optimizer.Whatif.Spec_nlj jc ->
                    Optimizer.Plan.Nlj_inner { join_col = jc; outer_rows = 1.0 }
              in
              c.fill k req)
            t.combos.(i)
        in
        c.opt_fills.(i) <- Some fills;
        fills
  in
  Array.fold_left ( +. ) (lower_bound t i) fills

(* Lazy completion: force deferred probes whose optimistic total still
   undercuts the best kept instantiation under [config] — i.e. whose
   bound interval overlaps the current winner — until none does.  After
   it returns, [kept_cost t config] equals the exhaustive build's cost at
   this configuration.  Returns the number of probes forced.  Safe to
   call repeatedly and from any single domain at a time; results are
   path-independent (exactness at every consulted configuration holds
   regardless of which configurations were consulted before).  [c] is
   [at_config t config]: the configuration is fixed for the whole call,
   so every fill cost is computed at most once per (slot, requirement),
   and every template total and optimistic fill vector once per
   combination, however many rounds read them. *)
let refine_with t c =
  if not (has_pending t) then 0
  else
    Mutex.protect t.lock @@ fun () ->
    (* one sub-mask memo for this call's probes, dropped with it *)
    let dp = Optimizer.Whatif.dp t.prepared in
    let forced = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      continue_ := false;
      let best = kept_cost t c in
      let target = ref None in
      Array.iteri
        (fun i st ->
          match (st, !target) with
          | Pending, None ->
              if optimistic_total t c i < best then target := Some i
          | _ -> ())
        t.states;
      match !target with
      | None -> ()
      | Some i ->
          let changed = probe_combo t dp i in
          incr forced;
          Runtime.Trace.incr tr_forced;
          certify_pass t i;
          if changed then rebuild_templates t;
          continue_ := true
    done;
    !forced

let refine t ~config = refine_with t (at_config t config)

(* INUM's approximation of cost(q, X): min over templates of beta plus the
   per-slot minima (the inner min over atomic configurations decomposes
   per slot).  Deferred probes whose bounds overlap the winner are forced
   first, so the result is exact — equal to the exhaustive build's — at
   every configuration actually consulted. *)
let cost t config =
  let c = at_config t config in
  ignore (refine_with t c);
  kept_cost t c

(* Surrogate cost and the certified regret bound, without forcing: the
   exhaustive cost lies in [fst - snd, fst]. *)
let cost_bound t config = (kept_cost t (at_config t config), probe_regret t)

(* The template index and atomic configuration (at most one index per
   table) the minimum is attained at, for explanation output.  Forces
   overlapping deferred probes first, like [cost]. *)
let best_instantiation t config =
  if has_pending t then ignore (refine t ~config);
  let fills = Array.mapi (fun ti _ -> slot_fills t config ti) t.tables in
  let best = ref (infinity, 0, [||]) in
  Array.iteri
    (fun k template ->
      let picks =
        Array.mapi
          (fun ti _ ->
            let req = template.slot_reqs.(ti) in
            let f = fills.(ti) in
            let base =
              match f.fill None req with
              | Some c -> (c, None)
              | None -> (infinity, None)
            in
            let best = ref base in
            Array.iteri
              (fun j ix ->
                match f.fill (Some j) req with
                | Some c when c < fst !best -> best := (c, Some ix)
                | _ -> ())
              f.on_table;
            !best)
          t.tables
      in
      let total =
        Array.fold_left (fun acc (c, _) -> acc +. c) template.beta picks
      in
      let bcost, _, _ = !best in
      if total < bcost then best := (total, k, Array.map snd picks))
    t.templates;
  let cost, k, picks = !best in
  (cost, k, picks)

(* --- Keyed template store --- *)

let tr_cache_hits = Runtime.Trace.counter "inum.cache_hits"
let tr_cache_misses = Runtime.Trace.counter "inum.cache_misses"

module Keyed = struct
  (* Canonical key -> statement cache.  Building on [Canon.normalize q]
     (not [q] itself) is what makes a hit bit-identical to a fresh build:
     the canonical form pins the clause order every float reduction runs
     in, so any two statements with the same key build the same [t].
     Entries are the live (possibly partially-built) caches themselves: a
     hit returns the same mutable value, so probes forced after insertion
     stay visible to every later hit — a hit can never resurrect bounds a
     forced probe already resolved.  No entry is ever dropped, so a
     repeat statement never costs a probe. *)
  type store = {
    env : Optimizer.Whatif.env;
    probe_budget : int option;
    tbl : (string, t) Hashtbl.t;
    mutable hits : int;
    mutable misses : int;
  }

  let create ?probe_budget env =
    (match probe_budget with
    | Some b when b < 1 -> invalid_arg "Inum.Keyed.create: probe_budget < 1"
    | _ -> ());
    { env; probe_budget; tbl = Hashtbl.create 64; hits = 0; misses = 0 }

  let env s = s.env
  let probe_budget s = s.probe_budget
  let length s = Hashtbl.length s.tbl
  let hits s = s.hits
  let misses s = s.misses

  let hit_rate s =
    let total = s.hits + s.misses in
    if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

  let mem_key s k = Hashtbl.mem s.tbl k
  let mem s q = mem_key s (Canon.key q)

  (* Internal: batch hit/miss accounting for [add_statements]. *)
  let record_batch s ~hit ~miss =
    s.hits <- s.hits + hit;
    s.misses <- s.misses + miss;
    Runtime.Trace.add tr_cache_hits hit;
    Runtime.Trace.add tr_cache_misses miss

  let find_or_build s q =
    let k = Canon.key q in
    match Hashtbl.find_opt s.tbl k with
    | Some cache ->
        s.hits <- s.hits + 1;
        Runtime.Trace.incr tr_cache_hits;
        cache
    | None ->
        s.misses <- s.misses + 1;
        Runtime.Trace.incr tr_cache_misses;
        let cache =
          build ?probe_budget:s.probe_budget s.env (Canon.normalize q)
        in
        Hashtbl.replace s.tbl k cache;
        cache
end

(* --- Workload-level cache --- *)

type workload_cache = {
  selects : (Ast.query * float * t) list;  (* query or update shell, weight *)
  updates : (Ast.update * float) list;
  (* Caches built by this value's deltas (first-build order): the probes
     they spend — at build time and through later forcing — are this
     workload's init calls.  Statements resolved from a pre-existing
     keyed store contribute zero. *)
  fresh : t list;
}

let empty_cache = { selects = []; updates = []; fresh = [] }

(* Dynamic: deferred probes forced after the build still count. *)
let total_init_calls cache =
  List.fold_left (fun acc t -> acc + t.init_calls) 0 cache.fresh

let cache_truncated cache =
  List.fold_left (fun acc t -> acc + t.truncated) 0 cache.fresh

let cache_pending cache =
  List.fold_left (fun acc t -> acc + pending_probes t) 0 cache.fresh

(* [f] applied once per distinct statement cache, however many
   statements resolve to it: the returned closure computes [f t] on the
   first call for [t] and returns the stored value after.  Caches are
   told apart by [id] — caches for one key resolved through two
   different stores are two caches with two ids. *)
let per_entry f =
  let seen = Hashtbl.create 64 in
  fun t ->
    match Hashtbl.find_opt seen t.id with
    | Some v -> v
    | None ->
        let v = f t in
        Hashtbl.replace seen t.id v;
        v

(* Weighted certified regret: the INUM surface built from the kept
   templates sits above the exhaustive surface by at most this much, at
   any configuration.  Each entry's bound is computed once; the weighted
   sum still runs per statement, in statement order. *)
let cache_regret cache =
  let regret = per_entry probe_regret in
  List.fold_left
    (fun acc (_, weight, t) -> acc +. (weight *. regret t))
    0.0 cache.selects

(* Force every statement cache at [config] (see [refine]), once per
   distinct entry in first-occurrence order: a second [refine] at the
   same configuration forces nothing, so repeats are skipped outright. *)
let refine_cache cache ~config =
  let forced = ref 0 in
  let refine_once = per_entry (fun t -> forced := !forced + refine t ~config) in
  List.iter (fun (_, _, t) -> refine_once t) cache.selects;
  !forced

let add_statements ?jobs (store : Keyed.store) cache (w : Ast.workload) =
  Runtime.Trace.span "inum.add_statements" @@ fun () ->
  (* [Canon.key] reads only the fields [Canon.raw_equal] compares, so it
     is serialized once per raw statement shape. *)
  let shapes = Canon.Raw_tbl.create 64 in
  let key q =
    match Canon.Raw_tbl.find_opt shapes q with
    | Some k -> k
    | None ->
        let k = Canon.key q in
        Canon.Raw_tbl.replace shapes q k;
        k
  in
  let keyed = List.map (fun (q, weight) -> (key q, q, weight)) (Ast.selects w) in
  (* Keys that need a fresh build: not in the store and not earlier in
     this same delta, in first-appearance order. *)
  let seen = Hashtbl.create 16 in
  let missing =
    List.filter_map
      (fun (k, q, _) ->
        if Keyed.mem_key store k || Hashtbl.mem seen k then None
        else (
          Hashtbl.add seen k ();
          Some (k, q)))
      keyed
  in
  (* Statement caches are independent: fan construction of the missing
     ones over the domain pool.  [parallel_map] is order-preserving and
     each build works on the canonical form, so the result is identical
     at every job count. *)
  let missing = Array.of_list missing in
  let first_id = fresh_ids (Array.length missing) in
  let built =
    Runtime.parallel_map ?jobs
      (fun (i, (k, q)) ->
        ( k,
          build_internal ~id:(first_id + i) ~eager:false
            ~probe_budget:(Keyed.probe_budget store)
            (Keyed.env store) (Canon.normalize q) ))
      (Array.mapi (fun i m -> (i, m)) missing)
  in
  Array.iter (fun (k, c) -> Hashtbl.replace store.Keyed.tbl k c) built;
  (* A statement is a hit when its key was cached before this call or
     built earlier in the same delta; only misses spend optimizer
     probes. *)
  let n_miss = Array.length missing in
  Keyed.record_batch store ~hit:(List.length keyed - n_miss) ~miss:n_miss;
  let selects_delta =
    List.map
      (fun (k, q, weight) -> (q, weight, Hashtbl.find store.Keyed.tbl k))
      keyed
  in
  {
    selects = cache.selects @ selects_delta;
    updates = cache.updates @ Ast.updates w;
    fresh = cache.fresh @ Array.to_list (Array.map snd built);
  }

let remove_statements cache ~drop =
  {
    cache with
    selects =
      List.filter (fun (q, _, _) -> not (drop (Ast.Select q))) cache.selects;
    updates =
      List.filter (fun (u, _) -> not (drop (Ast.Update u))) cache.updates;
  }

let build_workload ?jobs ?probe_budget env (w : Ast.workload) =
  Runtime.Trace.span "inum.build_workload" @@ fun () ->
  (* One-shot form of the incremental path: a fresh store, one delta.
     Statement order and [total_init_calls] stay independent of [jobs]. *)
  add_statements ?jobs (Keyed.create ?probe_budget env) empty_cache w

(* INUM approximation of the total workload cost under [config], including
   index-maintenance and base-update costs. *)
let workload_cost env cache config =
  let select_part =
    List.fold_left
      (fun acc (_, weight, c) -> acc +. (weight *. cost c config))
      0.0 cache.selects
  in
  let update_part =
    List.fold_left
      (fun acc (u, weight) ->
        let maintenance =
          List.fold_left
            (fun m ix -> m +. Optimizer.Whatif.update_cost env u ix)
            0.0
            (Storage.Config.on_table config u.Ast.target)
        in
        acc
        +. (weight *. (maintenance +. Optimizer.Whatif.update_base_cost env u)))
      0.0 cache.updates
  in
  select_part +. update_part
