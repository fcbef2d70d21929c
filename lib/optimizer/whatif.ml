(* System-R style what-if optimizer: dynamic programming over join orders
   with interesting orders, access-path selection against a hypothetical
   index configuration, and hash / merge / index-nested-loop joins.

   Two modes share the DP:
   - direct optimization of a query under a configuration (the classic
     what-if call, [optimize] / [cost]);
   - template construction for INUM ([template_plan]): base-table accesses
     are abstract zero-cost slots constrained by a per-table spec (deliver
     a sort order, or serve as a nested-loop inner probed on a join
     column), so the resulting plan cost is exactly the "internal plan
     cost" beta_qk of the paper. *)

open Sqlast

(* Immutable shared context + one atomic instrumentation cell, so an env
   can be shared read-only across domains. *)
type env = {
  params : Cost_params.t;
  schema : Catalog.Schema.t;
  calls : int Atomic.t;  (* number of direct optimizations performed *)
}

let make_env schema =
  { params = Cost_params.default; schema; calls = Atomic.make 0 }

let whatif_calls env = Atomic.get env.calls
let reset_calls env = Atomic.set env.calls 0

(* What a template requires of each table's access. *)
type slot_spec =
  | Spec_any
  | Spec_ordered of string list
  | Spec_nlj of string  (* must be a nested-loop inner on this join column *)

(* --- Sort-order bookkeeping --- *)

(* Orders are column-reference lists.  Equality-bound columns are constant
   across surviving rows, so they are dropped from both delivered and
   required orders; satisfaction is then a plain prefix test. *)

(* Structural equality of two column references: the polymorphic [=]
   on the record, without its generic traversal. *)
let col_equal (a : Ast.col_ref) (b : Ast.col_ref) =
  String.equal a.Ast.table b.Ast.table && String.equal a.Ast.column b.Ast.column

let normalize_order ~eq_cols (cols : Ast.col_ref list) =
  List.filter (fun c -> not (List.exists (col_equal c) eq_cols)) cols

let rec order_satisfies ~required ~given =
  match (required, given) with
  | [], _ -> true
  | _, [] -> false
  | r :: rs, g :: gs -> col_equal r g && order_satisfies ~required:rs ~given:gs

(* Group-by can exploit any permutation of the grouping set that forms a
   prefix of the delivered order. *)
let order_satisfies_group ~group ~given =
  let n = List.length group in
  if n = 0 then true
  else if List.length given < n then false
  else begin
    let prefix = List.filteri (fun i _ -> i < n) given in
    (* the polymorphic order and equality on column references, field by
       field *)
    let compare_col (a : Ast.col_ref) (b : Ast.col_ref) =
      match String.compare a.Ast.table b.Ast.table with
      | 0 -> String.compare a.Ast.column b.Ast.column
      | c -> c
    in
    let sort = List.sort compare_col in
    List.equal col_equal (sort prefix) (sort group)
  end

(* --- DP entries --- *)

(* [pending] marks a leaf slot that may only be consumed as a nested-loop
   inner; it cannot participate in other joins or be a final plan. *)
type entry = { order : Ast.col_ref list; plan : Plan.t; pending : bool }

let entry_cost e = Plan.cost e.plan

(* Safety cap to bound DP width. *)
let max_entries = 12

(* Keep the Pareto frontier over (cost, order), cheapest first, at most
   [max_entries] of it: an entry is dominated when a cheaper-or-equal
   entry delivers an order extending its own.

   Sort first, then filter: a stable sort of the filtered list is the
   filter of the stably sorted list, so walking the sorted entries and
   stopping at the cap returns exactly the cheapest undominated entries,
   in input order among equal costs.  The sort permutes indices by
   costs computed once.  An entry can only be dominated by a
   cheaper-or-equal one, i.e. by the prefix of the sorted array up to
   the end of its cost tie group, dominated or not.  A nan cost sorts
   first under [Float.compare] and fails [<=] both ways: it neither
   dominates nor is dominated.

   [dominated] asks the same question in two parts.  Every entry of an
   earlier tie group is strictly cheaper, so it dominates exactly when
   it is not pending, its cost is not nan, and its order extends the
   entry's: the distinct orders of those entries are collected as the
   walk passes their groups, and each is tested once.  The entry's own
   tie group is scanned as before, with the tie broken by order length,
   then by the polymorphic order of the entries. *)
let prune_entries = function
  | ([] | [ _ ]) as entries -> entries
  | entries ->
      let input = Array.of_list entries in
      let input_cost = Array.map entry_cost input in
      let idx = Array.init (Array.length input) Fun.id in
      Array.stable_sort
        (fun a b -> Float.compare input_cost.(a) input_cost.(b))
        idx;
      let sorted = Array.map (fun i -> input.(i)) idx in
      let n = Array.length sorted in
      let cost = Array.map (fun i -> input_cost.(i)) idx in
      (* [orders]: the distinct orders of the non-pending, non-nan
         entries before position [!passed]. *)
      let orders = ref [] and passed = ref 0 in
      let pass_before i =
        while Float.compare cost.(!passed) cost.(i) < 0 do
          let e' = sorted.(!passed) in
          if
            (not e'.pending)
            && (not (Float.is_nan cost.(!passed)))
            && not
                 (List.exists
                    (fun o ->
                      order_satisfies ~required:e'.order ~given:o
                      && order_satisfies ~required:o ~given:e'.order)
                    !orders)
          then orders := e'.order :: !orders;
          incr passed
        done
      in
      let tie_dominates e e' (ck : float) (ci : float) =
        e' != e
        && (not e'.pending)
        && ck <= ci
        && order_satisfies ~required:e.order ~given:e'.order
        && (ck < ci
           || List.length e'.order > List.length e.order
           || e' < e)
      in
      let dominated i =
        let e = sorted.(i) in
        (not e.pending)
        && begin
             pass_before i;
             List.exists
               (fun o -> order_satisfies ~required:e.order ~given:o)
               !orders
             ||
             let rec go k =
               k < n
               && Float.compare cost.(k) cost.(i) <= 0
               && (tie_dominates e sorted.(k) cost.(k) cost.(i) || go (k + 1))
             in
             go !passed
           end
      in
      let rec walk i kept acc =
        if i = n || kept = max_entries then List.rev acc
        else if dominated i then walk (i + 1) kept acc
        else walk (i + 1) (kept + 1) (sorted.(i) :: acc)
      in
      walk 0 0 []

(* --- Context shared across one optimization --- *)

(* A template DP's slots are set per probe (see [template_leaf]), so
   the mode carries no specs. *)
type mode = Direct of Storage.Config.t | Template

(* One equi-join conjunct of the query, resolved against the table array
   once per optimization: each side's table index ([-1] for a table the
   query does not list) and bit ([0] then, so the side lies in no mask),
   and the conjunct's selectivity. *)
type join_info = {
  join : Ast.join;
  lidx : int;
  ridx : int;
  lbit : int;
  rbit : int;
  sel : float;
}

type ctx = {
  env : env;
  q : Ast.query;
  tables : string array;
  eq_cols : Ast.col_ref list;          (* equality-bound columns, all tables *)
  frows : float array;                 (* filtered rows per table *)
  widths : int array;                  (* referenced column bytes per table *)
  joins : join_info array;             (* [q.joins], in order *)
  (* Cross products are allowed exactly when the join graph leaves some
     table unreached: otherwise no split would ever join the full set. *)
  allow_cross : bool;
  mode : mode;
  (* Direct mode, per table: its access-cost context and its accesses
     (the scan, then the configuration's indexes on the table), each
     derived once per optimization.  Empty in Template mode. *)
  direct : (Access.context * Access.access list) array;
}

let table_index tables t =
  let n = Array.length tables in
  let rec find i =
    if i = n then -1 else if String.equal tables.(i) t then i else find (i + 1)
  in
  find 0

(* Whether the join conjuncts connect every table of the query. *)
let join_graph_spans tables joins =
  let full = (1 lsl Array.length tables) - 1 in
  let rec grow reach =
    let reach' =
      Array.fold_left
        (fun acc j ->
          if j.lbit <> 0 && j.rbit <> 0 && acc land (j.lbit lor j.rbit) <> 0
          then acc lor j.lbit lor j.rbit
          else acc)
        reach joins
    in
    if reach' = reach then reach else grow reach'
  in
  full = 0 || grow 1 = full

let make_ctx env q mode =
  let tables = Array.of_list q.Ast.tables in
  let eq_cols =
    List.filter_map
      (fun p -> if p.Ast.is_equality then Some p.Ast.pred_col else None)
      q.Ast.predicates
  in
  let frows = Array.map (fun t -> Card.filtered_rows env.schema q t) tables in
  let widths = Array.map (Card.table_width env.schema q) tables in
  let joins =
    Array.of_list
      (List.map
         (fun (j : Ast.join) ->
           let lidx = table_index tables j.Ast.left.Ast.table in
           let ridx = table_index tables j.Ast.right.Ast.table in
           let bit i = if i < 0 then 0 else 1 lsl i in
           { join = j; lidx; ridx; lbit = bit lidx; rbit = bit ridx;
             sel = Card.join_selectivity env.schema j })
         q.Ast.joins)
  in
  let allow_cross = not (join_graph_spans tables joins) in
  let direct =
    match mode with
    | Template -> [||]
    | Direct config ->
        Array.map
          (fun t ->
            let actx = Access.context env.params env.schema q t in
            ( actx,
              Access.access actx None
              :: List.map
                   (fun ix -> Access.access actx (Some (Access.index env.schema ix)))
                   (Storage.Config.on_table config t) ))
          tables
  in
  { env; q; tables; eq_cols; frows; widths; joins; allow_cross; mode; direct }

let col_refs_of_names table names =
  List.map (fun c -> { Ast.table; Ast.column = c }) names

(* Width of the tuples flowing out of the tables in bitmask [mask]: the
   int sum {!Card.output_width} computes, without re-deriving columns. *)
let mask_width ctx mask =
  let w = ref 0 in
  for i = 0 to Array.length ctx.widths - 1 do
    if mask land (1 lsl i) <> 0 then w := !w + ctx.widths.(i)
  done;
  if 8 >= !w then 8 else !w

(* --- Base-table entries --- *)

(* Table [i]'s template slot under [spec]: one entry, as a probe gives
   it to the DP. *)
let template_leaf ctx i spec =
  let t = ctx.tables.(i) in
  let rows = ctx.frows.(i) in
  let req, order, pending =
    match spec with
    | Spec_any -> (Plan.Any_order, [], false)
    | Spec_ordered o ->
        ( Plan.Ordered o,
          normalize_order ~eq_cols:ctx.eq_cols (col_refs_of_names t o),
          false )
    | Spec_nlj jc ->
        (* outer_rows is patched when the nested loop is formed *)
        (Plan.Nlj_inner { join_col = jc; outer_rows = 0.0 }, [], true)
  in
  [ { order; plan = Plan.Slot { table = t; rows; req }; pending } ]

(* Table [i]'s access entries under the configuration of a direct
   optimization. *)
let direct_leaves ctx i =
  let t = ctx.tables.(i) in
  let rows = ctx.frows.(i) in
  let _, accesses = ctx.direct.(i) in
  List.map
    (fun (p : Access.path) ->
      let order =
        normalize_order ~eq_cols:ctx.eq_cols
          (col_refs_of_names t p.Access.output_order)
      in
      let plan =
        match p.Access.index with
        | None -> Plan.Seq_scan { table = t; rows; cost = p.Access.path_cost }
        | Some ix ->
            Plan.Index_scan
              {
                index = ix;
                table = t;
                rows;
                cost = p.Access.path_cost;
                covering = p.Access.covering;
              }
      in
      { order; plan; pending = false })
    (List.filter_map Access.path accesses)

(* --- Joins --- *)

(* The join conjuncts with one side in [lmask] and the other in [rmask],
   in [q.joins] order: the product of their selectivities, folded from
   1.0 in that order (hoisted out of the entry-pair loops), and the first
   of them oriented as (left column, right column, right table index). *)
let joins_between ctx lmask rmask =
  let n = Array.length ctx.joins in
  let rec go k sel first =
    if k = n then (sel, first)
    else begin
      let j = ctx.joins.(k) in
      let oriented =
        if j.lbit land lmask <> 0 && j.rbit land rmask <> 0 then
          Some (j.join.Ast.left, j.join.Ast.right, j.ridx)
        else if j.rbit land lmask <> 0 && j.lbit land rmask <> 0 then
          Some (j.join.Ast.right, j.join.Ast.left, j.lidx)
        else None
      in
      match (oriented, first) with
      | None, _ -> go (k + 1) sel first
      | Some _, Some _ -> go (k + 1) (sel *. j.sel) first
      | Some _, None -> go (k + 1) (sel *. j.sel) oriented
    end
  in
  go 0 1.0 None

let join_output_rows l r sel =
  Card.join_rows ~left_rows:(Plan.rows l.plan)
    ~right_rows:(Plan.rows r.plan) sel

let maybe_sort ctx e ~required ~mask =
  if order_satisfies ~required ~given:e.order then e
  else begin
    let rows = Plan.rows e.plan in
    let width = mask_width ctx mask in
    let c = Cost_params.sort_cost ctx.env.params ~rows ~width in
    {
      order = required;
      plan =
        Plan.Sort
          { child = e.plan; keys = required; rows; cost = Plan.cost e.plan +. c };
      pending = false;
    }
  end

let hash_join ctx l r out_rows =
  if l.pending || r.pending then []
  else begin
    let p = ctx.env.params in
    let build_rows = Plan.rows r.plan in
    let cost =
      Plan.cost l.plan +. Plan.cost r.plan
      +. Cost_params.hash_build_cost p ~rows:build_rows ~width:16
      +. Cost_params.hash_probe_cost p ~rows:(Plan.rows l.plan)
      +. (out_rows *. p.cpu_tuple_cost)
    in
    [ { order = [];
        plan =
          Plan.Hash_join { build = r.plan; probe = l.plan; rows = out_rows; cost };
        pending = false } ]
  end

(* [l'] and [r'] are [l] and [r] sorted on the join keys [lkey] and
   [rkey] ([maybe_sort], done once per entry and split rather than per
   pair: the sorted entry depends on neither partner). *)
let merge_join ctx l r (l', lkey) (r', rkey) out_rows =
  if l.pending || r.pending then []
  else begin
    let p = ctx.env.params in
    let cost =
      Plan.cost l'.plan +. Plan.cost r'.plan
      +. ((Plan.rows l'.plan +. Plan.rows r'.plan) *. p.cpu_operator_cost)
      +. (out_rows *. p.cpu_tuple_cost)
    in
    let plan =
      Plan.Merge_join { left = l'.plan; right = r'.plan; rows = out_rows; cost }
    in
    (* The output delivers both join keys' orders. *)
    [ { order = lkey; plan; pending = false };
      { order = rkey; plan; pending = false } ]
  end

(* Index nested-loop join: the inner side is a single base table probed on
   the join column ([i] is its table index).  In Direct mode the probe
   goes through a configuration index; in Template mode through a pending
   NLJ slot whose spec names the same join column. *)
let nest_loop ctx l rmask r (jcol : Ast.col_ref) i out_rows =
  if l.pending then []
  else begin
    let t = jcol.Ast.table in
    if rmask <> 1 lsl i then []
    else begin
      let p = ctx.env.params in
      match ctx.mode with
      | Template -> (
          match r.plan with
          | Plan.Slot { table; rows; req = Plan.Nlj_inner { join_col; _ } }
            when table = t && join_col = jcol.Ast.column ->
              let outer_rows = Plan.rows l.plan in
              let inner =
                Plan.Slot
                  { table; rows; req = Plan.Nlj_inner { join_col; outer_rows } }
              in
              let cost = Plan.cost l.plan +. (out_rows *. p.cpu_tuple_cost) in
              [ { order = l.order;
                  plan =
                    Plan.Nest_loop
                      { outer = l.plan; inner; rows = out_rows; cost };
                  pending = false } ]
          | _ -> [])
      | Direct _ ->
          if r.pending then []
          else
            let actx, accesses = ctx.direct.(i) in
            List.filter_map
              (fun a ->
                match
                  (Access.path a, Access.probe_cost actx a ~join_col:jcol.Ast.column)
                with
                | Some { Access.index = Some ix; covering; _ }, Some per_probe ->
                    let inner =
                      Plan.Index_scan
                        {
                          index = ix;
                          table = t;
                          rows = ctx.frows.(i);
                          cost = per_probe;
                          covering;
                        }
                    in
                    let cost =
                      Plan.cost l.plan
                      +. (Plan.rows l.plan *. per_probe)
                      +. (out_rows *. p.cpu_tuple_cost)
                    in
                    Some
                      { order = l.order;
                        plan =
                          Plan.Nest_loop
                            { outer = l.plan; inner; rows = out_rows; cost };
                        pending = false }
                | _ -> None)
              accesses
    end
  end

(* --- The DP --- *)

let nonempty = function [] -> false | _ :: _ -> true

(* The entries of one multi-table [mask], from the entries [memo] holds
   for its proper sub-masks. *)
let join_mask ctx memo mask =
  let acc = ref [] in
  (* enumerate proper submasks *)
  let sub = ref ((mask - 1) land mask) in
  while !sub > 0 do
    let lmask = !sub and rmask = mask land lnot !sub in
    if lmask < mask && rmask > 0 && nonempty memo.(lmask) && nonempty memo.(rmask)
    then begin
      let sel, first = joins_between ctx lmask rmask in
      (* Avoid cross products unless the query graph forces one. *)
      match first with
      | Some (lc, rc, ri) ->
          let sorted key mask e =
            (* pending entries never merge-join: no sort to price *)
            let e' =
              if e.pending then e else maybe_sort ctx e ~required:key ~mask
            in
            (e', key)
          in
          let lkey = normalize_order ~eq_cols:ctx.eq_cols [ lc ] in
          let rkey = normalize_order ~eq_cols:ctx.eq_cols [ rc ] in
          let rs = List.map (fun r -> (r, sorted rkey rmask r)) memo.(rmask) in
          List.iter
            (fun l ->
              let l' = sorted lkey lmask l in
              List.iter
                (fun (r, r') ->
                  let out_rows = join_output_rows l r sel in
                  acc := hash_join ctx l r out_rows @ !acc;
                  acc := merge_join ctx l r l' r' out_rows @ !acc;
                  acc := nest_loop ctx l rmask r rc ri out_rows @ !acc)
                rs)
            memo.(lmask)
      | None ->
          if ctx.allow_cross then
            List.iter
              (fun l ->
                List.iter
                  (fun r ->
                    let out_rows = join_output_rows l r sel in
                    acc := hash_join ctx l r out_rows @ !acc)
                  memo.(rmask))
              memo.(lmask)
    end;
    sub := (!sub - 1) land mask
  done;
  prune_entries !acc

(* The DP over join orders: [leaf i] is table [i]'s pruned entries, and
   [shared mask compute] returns the entries of a multi-table [mask]
   short of the full set, [compute ()] or an equal memoized value.  A
   mask's entries depend only on its tables' leaves, so a memo keyed by
   them returns what [compute] would. *)
let plan_joins ctx ~leaf ~shared =
  let n = Array.length ctx.tables in
  let memo = Array.make (1 lsl n) [] in
  for i = 0 to n - 1 do
    memo.(1 lsl i) <- leaf i
  done;
  let full = (1 lsl n) - 1 in
  for mask = 1 to full do
    if mask land (mask - 1) <> 0 then
      memo.(mask) <-
        (if mask = full then join_mask ctx memo mask
         else shared mask (fun () -> join_mask ctx memo mask))
  done;
  List.filter (fun e -> not e.pending) memo.(full)

(* --- Aggregation, ordering, and the final choice --- *)

let has_aggregate q =
  List.exists (function Ast.Agg _ -> true | Ast.Col _ -> false) q.Ast.select

let finalize ctx entries =
  let p = ctx.env.params in
  let full_mask = (1 lsl Array.length ctx.tables) - 1 in
  let group = normalize_order ~eq_cols:ctx.eq_cols ctx.q.Ast.group_by in
  let apply_group e =
    if ctx.q.Ast.group_by = [] then
      if has_aggregate ctx.q then begin
        let rows_in = Plan.rows e.plan in
        [ { e with
            order = [];
            plan =
              Plan.Aggregate
                {
                  child = e.plan;
                  kind = Plan.Plain_agg;
                  rows = 1.0;
                  cost = Plan.cost e.plan +. (rows_in *. p.cpu_operator_cost);
                } } ]
      end
      else [ e ]
    else begin
      let rows_in = Plan.rows e.plan in
      let rows_out =
        Card.group_cardinality ctx.env.schema ctx.q.Ast.group_by ~rows:rows_in
      in
      let sorted_variant =
        if order_satisfies_group ~group ~given:e.order then
          [ { e with
              plan =
                Plan.Aggregate
                  {
                    child = e.plan;
                    kind = Plan.Sorted_agg;
                    rows = rows_out;
                    cost = Plan.cost e.plan +. (rows_in *. p.cpu_operator_cost);
                  } } ]
        else begin
          (* sort then aggregate *)
          let width = mask_width ctx full_mask in
          let sc = Cost_params.sort_cost p ~rows:rows_in ~width in
          [ { e with
              order = group;
              plan =
                Plan.Aggregate
                  {
                    child =
                      Plan.Sort
                        {
                          child = e.plan;
                          keys = group;
                          rows = rows_in;
                          cost = Plan.cost e.plan +. sc;
                        };
                    kind = Plan.Sorted_agg;
                    rows = rows_out;
                    cost =
                      Plan.cost e.plan +. sc +. (rows_in *. p.cpu_operator_cost);
                  } } ]
        end
      in
      let hash_variant =
        { e with
          order = [];
          plan =
            Plan.Aggregate
              {
                child = e.plan;
                kind = Plan.Hash_agg;
                rows = rows_out;
                cost =
                  Plan.cost e.plan
                  +. Cost_params.hash_build_cost p ~rows:rows_in ~width:16;
              } }
      in
      hash_variant :: sorted_variant
    end
  in
  let apply_order e =
    let required =
      normalize_order ~eq_cols:ctx.eq_cols (List.map fst ctx.q.Ast.order_by)
    in
    if order_satisfies ~required ~given:e.order then e
    else if required = [] then e
    else begin
      let rows = Plan.rows e.plan in
      let width = mask_width ctx full_mask in
      let c = Cost_params.sort_cost p ~rows ~width in
      { e with
        order = required;
        plan =
          Plan.Sort
            { child = e.plan; keys = required; rows; cost = Plan.cost e.plan +. c };
      }
    end
  in
  (* The head of the stable sort by cost: the first entry no later one
     undercuts under [Float.compare] (the order [compare] gives
     floats). *)
  let finals = List.concat_map apply_group entries |> List.map apply_order in
  match finals with
  | [] -> None
  | first :: rest ->
      let best =
        List.fold_left
          (fun b e -> if Float.compare (entry_cost e) (entry_cost b) < 0 then e else b)
          first rest
      in
      Some best.plan

(* --- Public API --- *)

(* Trace probes: single [Atomic.get] each when tracing is off.  Direct
   what-if optimizations are the paper's expensive currency;
   template probes are the INUM-side calls that replace them. *)
let tr_optimize = Runtime.Trace.counter "whatif.optimize_calls"
let tr_template_probes = Runtime.Trace.counter "whatif.template_probes"

let optimize env (q : Ast.query) (config : Storage.Config.t) =
  ignore (Atomic.fetch_and_add env.calls 1);
  Runtime.Trace.incr tr_optimize;
  let ctx = make_ctx env q (Direct config) in
  let leaf i = prune_entries (direct_leaves ctx i) in
  match finalize ctx (plan_joins ctx ~leaf ~shared:(fun _ f -> f ())) with
  | Some plan -> plan
  | None -> invalid_arg "Optimizer.optimize: no plan found"

let cost env q config = Plan.cost (optimize env q config)

(* A query's template DP, prepared once: the context (filtered rows,
   widths, resolved joins, equality columns, the cross-product rule)
   and each table's leaf entry under each of its specs.  [bits] is the
   width of one table's spec position in a memo key; [0] turns the memo
   off (one spec per table, so one combination, or positions that do
   not fit one int key). *)
type prepared = {
  pctx : ctx;
  leaves : entry list array array;
  bits : int;
}

let prepare env (q : Ast.query) (specs : slot_spec array array) =
  let pctx = make_ctx env q Template in
  let leaves =
    Array.mapi (fun i sp -> Array.map (template_leaf pctx i) sp) specs
  in
  let n = Array.length pctx.tables in
  let widest = Array.fold_left (fun m sp -> max m (Array.length sp)) 1 specs in
  let rec width b = if 1 lsl b >= widest then b else width (b + 1) in
  let b = width 0 in
  { pctx; leaves; bits = (if n * (b + 1) <= 60 then b else 0) }

(* A prepared DP with its sub-mask memo: key [code lsl n lor mask], where
   [code] packs the spec positions of [mask]'s tables. *)
type dp = { prep : prepared; memo : (int, entry list) Hashtbl.t }

let dp prep = { prep; memo = Hashtbl.create 64 }

let plan_at d (pos : int array) =
  let ctx = d.prep.pctx in
  let n = Array.length ctx.tables in
  let leaf i = d.prep.leaves.(i).(pos.(i)) in
  let shared =
    if d.prep.bits = 0 then fun _ f -> f ()
    else fun mask f ->
      let code = ref 0 in
      for i = n - 1 downto 0 do
        if mask land (1 lsl i) <> 0 then
          code := (!code lsl d.prep.bits) lor pos.(i)
      done;
      let key = (!code lsl n) lor mask in
      match Hashtbl.find_opt d.memo key with
      | Some entries -> entries
      | None ->
          let entries = f () in
          Hashtbl.replace d.memo key entries;
          entries
  in
  finalize ctx (plan_joins ctx ~leaf ~shared)

let template_plan_at d pos =
  Runtime.Trace.incr tr_template_probes;
  plan_at d pos

(* Template construction for INUM: optimize with abstract slots that must
   obey [slot_specs].  The plan cost is the internal cost beta.  [None]
   when the specs admit no plan (e.g. an NLJ spec with no matching join). *)
let template_plan env (q : Ast.query) ~slot_specs =
  Runtime.Trace.incr tr_template_probes;
  let specs =
    Array.of_list
      (List.map
         (fun t ->
           [| (match List.assoc_opt t slot_specs with Some s -> s | None -> Spec_any) |])
         q.Ast.tables)
  in
  plan_at (dp (prepare env q specs)) (Array.make (Array.length specs) 0)

(* --- Bound queries --- *)

(* A lower bound on the beta of *every* template of [q], computed without
   running the DP — the bound-query entry point the lazy INUM probe loop
   seeds its per-combination lower bounds with.

   Soundness: every template plan over n >= 2 tables ends in a join that
   emits the full result and pays [cpu_tuple_cost] per emitted tuple
   (all three join methods do).  [Card.join_rows] clamps intermediate
   cardinalities up to 1.0, so the unclamped product
   [prod filtered_rows * prod join_selectivity] is a lower bound on the
   final join's output rows under any join order.  Grouping adds the
   cheaper of the hash-aggregate build and the sorted-aggregate pass over
   those rows; a plain aggregate pays one operator pass.  Sort costs are
   not counted: an ordered template may deliver the order for free. *)
let template_cost_floor env (q : Ast.query) =
  let p = env.params in
  match q.Ast.tables with
  | [] -> 0.0
  | tables ->
      let n = List.length tables in
      let prod_rows =
        List.fold_left
          (fun acc t -> acc *. Card.filtered_rows env.schema q t)
          1.0 tables
      in
      let sel =
        List.fold_left
          (fun acc j -> acc *. Card.join_selectivity env.schema j)
          1.0 q.Ast.joins
      in
      let r_full = max 1.0 (prod_rows *. sel) in
      let join_floor = if n >= 2 then r_full *. p.cpu_tuple_cost else 0.0 in
      let agg_floor =
        if q.Ast.group_by <> [] then
          min
            (Cost_params.hash_build_cost p ~rows:r_full ~width:16)
            (r_full *. p.cpu_operator_cost)
        else if has_aggregate q then r_full *. p.cpu_operator_cost
        else 0.0
      in
      join_floor +. agg_floor

(* --- Update statements --- *)

(* Maintenance cost of index [ix] under update [u]: for each affected row,
   descend the tree and write back a leaf. *)
let update_cost env (u : Ast.update) ix =
  if Storage.Index.table ix <> u.Ast.target then 0.0
  else if
    not (Storage.Index.affected_by_update ix ~set_columns:u.Ast.set_columns)
  then 0.0
  else begin
    let p = env.params in
    let shell = Ast.query_shell u in
    let rows = Card.filtered_rows env.schema shell u.Ast.target in
    let height = float_of_int (Storage.Index.height env.schema ix) in
    rows *. (((height +. 1.0) *. p.random_page_cost) +. p.cpu_index_tuple_cost)
  end

(* Cost of touching the base tuples themselves (c_q of the paper):
   independent of the configuration. *)
let update_base_cost env (u : Ast.update) =
  let shell = Ast.query_shell u in
  let rows = Card.filtered_rows env.schema shell u.Ast.target in
  rows *. (env.params.random_page_cost +. env.params.cpu_tuple_cost)

(* Full cost of a statement under a configuration, per the paper's model:
   cost(q_r, X) + sum over affected indexes in X + c_q for updates. *)
let statement_cost env (s : Ast.statement) config =
  match s with
  | Ast.Select q -> cost env q config
  | Ast.Update u ->
      let shell_cost = cost env (Ast.query_shell u) config in
      let maintenance =
        List.fold_left
          (fun acc ix -> acc +. update_cost env u ix)
          0.0
          (Storage.Config.on_table config u.Ast.target)
      in
      shell_cost +. maintenance +. update_base_cost env u

let workload_cost env (w : Ast.workload) config =
  List.fold_left
    (fun acc { Ast.stmt; Ast.weight } ->
      acc +. (weight *. statement_cost env stmt config))
    0.0 w
