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

(* Per-combination probe state.  [Pending] combinations carry no cached
   bounds: lb/ub are recomputed from probed neighbors on demand, so a
   later probe can never leave a stale interval behind. *)
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
  (* Spec combinations in enumeration order (the eager probe order). *)
  combos : Optimizer.Whatif.slot_spec array array;
  (* Parallel to [combos]; mutated by the probe loop and by [refine]. *)
  states : probe_state array;
  (* [stronger.(i)]: combinations above [i] in the beta order (their
     probed betas bound beta_i from below).  [gweaker.(i)]: combinations
     below [i] in the gamma order (their probed templates dominate or
     upper-bound [i]'s).  Both exclude [i] itself. *)
  stronger : int array array;
  gweaker : int array array;
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
  env : Optimizer.Whatif.env;
  (* Serializes forcing; builds happen on a single domain before the
     value is published. *)
  lock : Mutex.t;
}

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
  let sorted =
    List.stable_sort
      (fun a b -> compare (constrained_count a) (constrained_count b))
      all
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

(* A spec order lifted to combinations, given as spec positions [ranks]
   over [specs]: per combination [i], the combinations [j <> i] whose
   spec relates to [i]'s by [le i_spec j_spec] at every table, in
   ascending order.  [le] is tabulated per table over spec positions,
   and the combinations each (table, spec) relates to are listed once;
   row [i] filters the shortest list among its own specs'. *)
let combo_relation le (specs : Optimizer.Whatif.slot_spec array array)
    (ranks : int array array) =
  let n = Array.length ranks and nt = Array.length specs in
  let tab =
    Array.map (fun sp -> Array.map (fun a -> Array.map (le a) sp) sp) specs
  in
  let related =
    Array.mapi
      (fun k sp ->
        Array.mapi
          (fun v _ ->
            let acc = ref [] in
            for j = n - 1 downto 0 do
              if tab.(k).(v).(ranks.(j).(k)) then acc := j :: !acc
            done;
            Array.of_list !acc)
          sp)
      specs
  in
  let all = Array.init n Fun.id in
  Array.init n (fun i ->
      let ri = ranks.(i) in
      let shortest = ref all in
      Array.iteri
        (fun k v ->
          let l = related.(k).(v) in
          if Array.length l < Array.length !shortest then shortest := l)
        ri;
      let holds j =
        let rj = ranks.(j) in
        let rec go k = k = nt || (tab.(k).(ri.(k)).(rj.(k)) && go (k + 1)) in
        j <> i && go 0
      in
      Array.of_list (List.filter holds (Array.to_list !shortest)))

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
let lower_bound t i =
  Array.fold_left
    (fun acc j ->
      match t.states.(j) with
      | Probed (Some tpl) -> if tpl.beta > acc then tpl.beta else acc
      | _ -> acc)
    t.cost_floor t.stronger.(i)

(* Upper bound on the cost contribution of [i]: the cheapest probed
   template below [i] in the gamma order also gamma-dominates it
   pointwise, so beta_i's template can beat it by at most ub - lb. *)
let upper_bound t i =
  Array.fold_left
    (fun acc j ->
      match t.states.(j) with
      | Probed (Some tpl) -> if tpl.beta < acc then tpl.beta else acc
      | _ -> acc)
    infinity t.gweaker.(i)

(* Membership in an ascending index array. *)
let mem_sorted (a : int array) j =
  let rec go lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    if a.(mid) = j then true else if a.(mid) < j then go (mid + 1) hi
    else go lo mid
  in
  go 0 (Array.length a)

(* The certification sweep after probing [probed]: pending combinations
   proven infeasible (a stronger probed combination has no plan) or
   dominated (a probed gamma-weaker template undercuts the beta lower
   bound) are skipped for good.  Certifications read only probed states,
   so the sweep after each probe reaches the closure; and as the sweep
   before reached it too, only combinations that have [probed] among
   their stronger or gamma-weaker neighbors can have become
   certifiable. *)
let certify_pass t probed =
  Array.iteri
    (fun i st ->
      match st with
      | Pending
        when mem_sorted t.stronger.(i) probed
             || mem_sorted t.gweaker.(i) probed ->
          let infeasible =
            Array.exists
              (fun j ->
                match t.states.(j) with Probed None -> true | _ -> false)
              t.stronger.(i)
          in
          if infeasible then begin
            t.states.(i) <- Skipped_infeasible;
            Runtime.Trace.incr tr_skipped
          end
          else begin
            let lb = lower_bound t i in
            let dominated =
              Array.exists
                (fun j ->
                  match t.states.(j) with
                  | Probed (Some tpl) -> tpl.beta <= lb
                  | _ -> false)
                t.gweaker.(i)
            in
            if dominated then begin
              t.states.(i) <- Skipped_dominated;
              Runtime.Trace.incr tr_skipped
            end
          end
      | Pending | Probed _ | Skipped_dominated | Skipped_infeasible -> ())
    t.states

(* Probe combination [i], record its state and update [undominated];
   returns whether [undominated] changed (only then can the kept
   templates). *)
let probe_combo t i =
  let specs =
    Array.to_list (Array.mapi (fun k s -> (t.tables.(k), s)) t.combos.(i))
    |> List.filter (fun (_, s) -> not (is_spec_any s))
  in
  t.init_calls <- t.init_calls + 1;
  let result =
    match Optimizer.Whatif.template_plan t.env t.query ~slot_specs:specs with
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
          let cc = constrained_count t.combos.(i) in
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
  let t =
    {
      id;
      query = q;
      tables;
      combos;
      states = Array.make n Pending;
      stronger = combo_relation spec_beta_le specs ranks;
      gweaker = combo_relation (fun a b -> spec_gamma_le b a) specs ranks;
      undominated = [];
      templates = [||];
      kept_combos = [||];
      init_calls = 0;
      truncated;
      cost_floor = Optimizer.Whatif.template_cost_floor env q;
      env;
      lock = Mutex.create ();
    }
  in
  if n > 0 then begin
    if eager then
      for i = 0 to n - 1 do
        ignore (probe_combo t i)
      done
    else begin
      let budget =
        match probe_budget with None -> max_int | Some b -> max 1 b
      in
      (* The all-any combination anchors every upper bound (its template
         gamma-dominates all others), so it is always probed first. *)
      ignore (probe_combo t 0);
      certify_pass t 0;
      let continue_ = ref (t.init_calls < budget) in
      while !continue_ do
        match next_probe t with
        | None -> continue_ := false
        | Some i ->
            ignore (probe_combo t i);
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

(* The access-cost context of slot [ti], and a fill cost through it:
   [fill ix req] is [gamma] of [ix] ([None] = no index) for [req]. *)
let slot_filler t ti =
  let schema = t.env.Optimizer.Whatif.schema in
  let ctx =
    Optimizer.Access.context t.env.Optimizer.Whatif.params schema t.query
      t.tables.(ti)
  in
  fun ix req ->
    Optimizer.Access.fill_cost ctx
      (Optimizer.Access.access ctx (Option.map (Optimizer.Access.index schema) ix))
      req

(* Minimum fill cost of requirement [req] on slot [ti] over the indexes
   of [config] (and no-index). *)
let best_req_cost t ti req config =
  let fill = slot_filler t ti in
  let base = match fill None req with Some c -> c | None -> infinity in
  List.fold_left
    (fun acc ix ->
      match fill (Some ix) req with Some c -> min acc c | None -> acc)
    base
    (Storage.Config.on_table config t.tables.(ti))

(* [best_req_cost] at a fixed [config], memoized per (slot, requirement)
   for the lifetime of the returned closure.  The value is a pure
   function of its arguments, so a memo hit returns the very float a
   fresh evaluation would.  The memo is local to one caller: it never
   outlives the [config] it was made for. *)
let fill_cost t config =
  let memo = Array.make (Array.length t.tables) [] in
  fun ti req ->
    match List.find_opt (fun (r, _) -> req_equal r req) memo.(ti) with
    | Some (_, c) -> c
    | None ->
        let c = best_req_cost t ti req config in
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
          let changed = probe_combo t i in
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
  let fills = Array.mapi (fun ti _ -> slot_filler t ti) t.tables in
  let best = ref (infinity, 0, [||]) in
  Array.iteri
    (fun k template ->
      let picks =
        Array.mapi
          (fun ti table ->
            let req = template.slot_reqs.(ti) in
            let fill = fills.(ti) in
            let base =
              match fill None req with
              | Some c -> (c, None)
              | None -> (infinity, None)
            in
            List.fold_left
              (fun (bc, bix) ix ->
                match fill (Some ix) req with
                | Some c when c < bc -> (c, Some ix)
                | _ -> (bc, bix))
              base
              (Storage.Config.on_table config table))
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
  let keyed =
    List.map (fun (q, weight) -> (Canon.key q, q, weight)) (Ast.selects w)
  in
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
