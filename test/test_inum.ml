(* Tests for INUM: template construction, the gamma coefficients, and —
   centrally — Lemma 1: the INUM cost function is linearly composable and
   matches / upper-bounds the direct what-if optimizer. *)

open Sqlast

let schema = Catalog.Tpch.schema ()

let env () = Optimizer.Whatif.make_env schema

let ix ?includes table keys = Storage.Index.create ?includes ~table keys

let col = Ast.col_ref

let simple_query () =
  {
    Ast.query_id = 1;
    tables = [ "orders" ];
    select = [ Ast.Col (col "orders" "o_totalprice") ];
    predicates =
      [ Ast.predicate ~selectivity:0.001 (col "orders" "o_orderdate") Ast.Eq ];
    joins = [];
    group_by = [];
    order_by = [ (col "orders" "o_totalprice", Ast.Asc) ];
  }

let join_query () =
  {
    Ast.query_id = 2;
    tables = [ "orders"; "lineitem" ];
    select =
      [ Ast.Col (col "orders" "o_orderdate");
        Ast.Agg (Ast.Sum, col "lineitem" "l_extendedprice") ];
    predicates =
      [ Ast.predicate ~selectivity:0.01 (col "orders" "o_orderdate") Ast.Eq ];
    joins =
      [ { Ast.left = col "orders" "o_orderkey";
          right = col "lineitem" "l_orderkey" } ];
    group_by = [ col "orders" "o_orderdate" ];
    order_by = [];
  }

(* --- Template construction --- *)

let test_templates_exist () =
  let e = env () in
  let c = Inum.build e (simple_query ()) in
  Alcotest.(check bool) "at least one template" true (Inum.template_count c >= 1);
  Alcotest.(check bool) "few init calls" true (Inum.init_calls c < 50)

let test_join_query_has_order_templates () =
  let e = env () in
  let c = Inum.build e (join_query ()) in
  (* some template should require an order or NLJ on the join columns *)
  let has_constrained =
    List.exists
      (fun (t : Inum.template) ->
        Array.exists
          (function
            | Optimizer.Plan.Ordered _ | Optimizer.Plan.Nlj_inner _ -> true
            | Optimizer.Plan.Any_order -> false)
          t.Inum.slot_reqs)
      (Inum.templates c)
  in
  Alcotest.(check bool) "constrained template exists" true has_constrained

let test_template_betas_positive () =
  let e = env () in
  let c = Inum.build e (join_query ()) in
  List.iter
    (fun (t : Inum.template) ->
      Alcotest.(check bool) "beta >= 0" true (t.Inum.beta >= 0.0))
    (Inum.templates c)

(* --- Gamma --- *)

let test_gamma_infinite_on_wrong_order () =
  let e = env () in
  let q = simple_query () in
  let c = Inum.build e q in
  (* find a template requiring order on o_totalprice *)
  let templates = Array.of_list (Inum.templates c) in
  let ordered_k = ref (-1) in
  Array.iteri
    (fun k (t : Inum.template) ->
      if
        Array.exists
          (function Optimizer.Plan.Ordered _ -> true | _ -> false)
          t.Inum.slot_reqs
      then ordered_k := k)
    templates;
  if !ordered_k >= 0 then begin
    (* an index that cannot deliver the o_totalprice order *)
    let bad = ix "orders" [ "o_orderpriority" ] in
    match Inum.gamma c !ordered_k ~table:"orders" (Some bad) with
    | None -> ()
    | Some g ->
        (* only acceptable if the order was satisfied via eq-bound skip *)
        Alcotest.(check bool) "gamma finite only if order held" true (g >= 0.0)
  end

let test_gamma_none_index_finite () =
  let e = env () in
  let c = Inum.build e (simple_query ()) in
  (* the no-index gamma is always finite: scan (+ sort) *)
  List.iteri
    (fun k _ ->
      match Inum.gamma c k ~table:"orders" None with
      | Some g -> Alcotest.(check bool) "finite" true (g > 0.0)
      | None -> Alcotest.fail "no-index gamma must be finite")
    (Inum.templates c)

(* --- Lemma 1 / cost agreement --- *)

let test_inum_upper_bounds_direct () =
  let e = env () in
  let q = join_query () in
  let c = Inum.build e q in
  let configs =
    [ Storage.Config.empty;
      Storage.Config.of_list [ ix "orders" [ "o_orderdate" ] ];
      Storage.Config.of_list
        [ ix ~includes:[ "o_orderdate" ] "orders" [ "o_orderdate" ];
          ix ~includes:[ "l_extendedprice" ] "lineitem" [ "l_orderkey" ] ] ]
  in
  List.iter
    (fun cfg ->
      let direct = Optimizer.Whatif.cost e q cfg in
      let approx = Inum.cost c cfg in
      Alcotest.(check bool) "inum >= direct (plans are a subset)" true
        (approx >= direct -. 1e-6);
      Alcotest.(check bool) "inum within 2x here" true (approx <= 2.0 *. direct))
    configs

(* The big property: on generated workloads and random candidate subsets,
   INUM equals the direct optimizer exactly (our templates cover the whole
   plan space the direct DP searches). *)
let prop_inum_matches_direct =
  QCheck.Test.make ~name:"INUM cost = direct what-if on hom workloads"
    ~count:20
    QCheck.(pair (int_range 0 10_000) (int_range 0 3))
    (fun (seed, subset) ->
      let e = env () in
      let w = Workload.Gen.hom schema ~n:8 ~seed in
      let cands = Cophy.Cgen.generate w in
      let cfg =
        Storage.Config.of_list
          (List.filteri (fun i _ -> i mod (subset + 1) = 0) cands)
      in
      List.for_all
        (fun (q, _) ->
          let c = Inum.build e q in
          let direct = Optimizer.Whatif.cost e q cfg in
          let approx = Inum.cost c cfg in
          approx >= direct -. 1e-6 && approx <= direct *. 1.0001)
        (Ast.selects w))

let test_best_instantiation_consistent () =
  let e = env () in
  let q = join_query () in
  let c = Inum.build e q in
  let cfg =
    Storage.Config.of_list
      [ ix ~includes:[ "o_orderdate" ] "orders" [ "o_orderdate" ];
        ix ~includes:[ "l_extendedprice" ] "lineitem" [ "l_orderkey" ] ]
  in
  let cost, k, picks = Inum.best_instantiation c cfg in
  Alcotest.(check (float 1e-6)) "instantiation matches cost" (Inum.cost c cfg) cost;
  Alcotest.(check bool) "template index valid" true
    (k >= 0 && k < Inum.template_count c);
  Alcotest.(check int) "one pick per table" 2 (Array.length picks)

(* --- Workload cache --- *)

let test_workload_cache () =
  let e = env () in
  let w =
    Workload.Gen.hom schema ~n:6 ~seed:3
    |> Workload.Gen.with_updates schema ~fraction:0.5 ~seed:3
  in
  let cache = Inum.build_workload e w in
  Alcotest.(check int) "all statements cached" 6
    (List.length cache.Inum.selects);
  Alcotest.(check bool) "some updates" true (List.length cache.Inum.updates > 0);
  Alcotest.(check bool) "init calls counted" true
    ((Inum.total_init_calls cache) > 0);
  (* workload cost decreases (or stays) when indexes are added; update
     maintenance can offset gains, so test with a covering useful index *)
  let c0 = Inum.workload_cost e cache Storage.Config.empty in
  Alcotest.(check bool) "positive cost" true (c0 > 0.0)

let test_update_maintenance_in_workload_cost () =
  let e = env () in
  let u =
    { Ast.update_id = 1; target = "lineitem"; set_columns = [ "l_quantity" ];
      where =
        [ Ast.predicate ~selectivity:1e-5 (col "lineitem" "l_orderkey") Ast.Eq ] }
  in
  let w = [ { Ast.stmt = Ast.Update u; weight = 1.0 } ] in
  let cache = Inum.build_workload e w in
  let idle = ix "lineitem" [ "l_quantity" ] in
  let c_with = Inum.workload_cost e cache (Storage.Config.of_list [ idle ]) in
  let c_without = Inum.workload_cost e cache Storage.Config.empty in
  Alcotest.(check bool) "maintenance charged" true (c_with > c_without)

(* --- Lazy probing vs. the eager reference --- *)

(* Bit-identical template sets: betas via Fx.exactly, slot requirements
   via Inum.req_equal (never polymorphic [=] — the reqs embed floats),
   plans by their printed form. *)
let same_templates c1 c2 =
  List.length (Inum.templates c1) = List.length (Inum.templates c2)
  && List.for_all2
       (fun (a : Inum.template) (b : Inum.template) ->
         Runtime.Fx.exactly a.Inum.beta b.Inum.beta
         && Array.length a.Inum.slot_reqs = Array.length b.Inum.slot_reqs
         && Array.for_all2 Inum.req_equal a.Inum.slot_reqs b.Inum.slot_reqs
         && String.equal
              (Fmt.str "%a" Optimizer.Plan.pp a.Inum.plan)
              (Fmt.str "%a" Optimizer.Plan.pp b.Inum.plan))
       (Inum.templates c1) (Inum.templates c2)

let some_configs () =
  [ Storage.Config.empty;
    Storage.Config.of_list [ ix "orders" [ "o_orderdate" ] ];
    Storage.Config.of_list
      [ ix ~includes:[ "o_orderdate" ] "orders" [ "o_orderdate" ];
        ix ~includes:[ "l_extendedprice" ] "lineitem" [ "l_orderkey" ] ] ]

let test_lazy_unlimited_matches_eager () =
  let e = env () in
  let w = Workload.Gen.hom schema ~n:12 ~seed:5 in
  List.iter
    (fun (q, _) ->
      let lazy_build = Inum.build e q in
      let eager = Inum.build_eager e q in
      Alcotest.(check bool) "kept templates bit-identical" true
        (same_templates lazy_build eager);
      Alcotest.(check int) "nothing deferred at unlimited budget" 0
        (Inum.pending_probes lazy_build);
      Alcotest.(check (float 0.0)) "zero regret" 0.0
        (Inum.probe_regret lazy_build);
      Alcotest.(check bool) "lazy never probes more than eager" true
        (Inum.init_calls lazy_build <= Inum.init_calls eager);
      List.iter
        (fun cfg ->
          Alcotest.(check (float 0.0)) "identical cost surface"
            (Inum.cost eager cfg) (Inum.cost lazy_build cfg))
        (some_configs ()))
    (Ast.selects w)

let test_budgeted_build_jobs_invariant () =
  let w = Workload.Gen.hom schema ~n:10 ~seed:7 in
  let c1 = Inum.build_workload ~jobs:1 ~probe_budget:8 (env ()) w in
  let c4 = Inum.build_workload ~jobs:4 ~probe_budget:8 (env ()) w in
  Alcotest.(check int) "same probe count at jobs 1 and 4"
    (Inum.total_init_calls c1) (Inum.total_init_calls c4);
  Alcotest.(check (float 0.0)) "same certified regret"
    (Inum.cache_regret c1) (Inum.cache_regret c4);
  List.iter2
    (fun (_, _, a) (_, _, b) ->
      (* compare the surrogate surface without forcing deferred probes *)
      let ca, _ = Inum.cost_bound a Storage.Config.empty in
      let cb, _ = Inum.cost_bound b Storage.Config.empty in
      Alcotest.(check (float 0.0)) "same surrogate cost" ca cb)
    c1.Inum.selects c4.Inum.selects

(* The certification property: at any budget and any configuration the
   budgeted surrogate over-estimates the exhaustive INUM cost by at most
   the certified regret. *)
let prop_budgeted_regret_sound =
  QCheck.Test.make
    ~name:"budgeted surrogate >= exhaustive >= surrogate - regret" ~count:15
    QCheck.(triple (int_range 0 10_000) (int_range 1 6) (int_range 0 3))
    (fun (seed, budget, subset) ->
      let e = env () in
      let w = Workload.Gen.hom schema ~n:4 ~seed in
      let cands = Cophy.Cgen.generate w in
      let cfg =
        Storage.Config.of_list
          (List.filteri (fun i _ -> i mod (subset + 1) = 0) cands)
      in
      List.for_all
        (fun (q, _) ->
          let budgeted = Inum.build ~probe_budget:budget e q in
          let exact = Inum.cost (Inum.build_eager e q) cfg in
          let surrogate, regret = Inum.cost_bound budgeted cfg in
          regret >= 0.0
          && surrogate >= exact -. 1e-6
          && exact >= surrogate -. regret -. 1e-6)
        (Ast.selects w))

let test_gamma_unknown_table_raises () =
  let e = env () in
  let c = Inum.build e (simple_query ()) in
  Alcotest.check_raises "names the table and the query"
    (Invalid_argument
       "Inum.gamma: table \"nation\" is not referenced by query 1")
    (fun () -> ignore (Inum.gamma c 0 ~table:"nation" None))

(* One slot-cost context per (statement, table), one access per index,
   every requirement of the statement's eager templates answered from
   them, in a shuffled order (so the scan's cached sort cost is read
   back, not only computed): each answer equals a one-shot
   [slot_fill_cost] bit for bit, infinite answers included.  Over the
   statements of [Gen.hom] or [Gen.het], every table, no index and every
   CGen candidate. *)
let prop_context_matches_one_shot =
  QCheck.Test.make ~name:"slot context = slot_fill_cost, bit for bit"
    ~count:20
    QCheck.(pair bool (int_range 0 10_000))
    (fun (het, seed) ->
      let e = env () in
      let p = e.Optimizer.Whatif.params in
      let w =
        if het then Workload.Gen.het schema ~n:4 ~seed
        else Workload.Gen.hom schema ~n:4 ~seed
      in
      let cands = None :: List.map Option.some (Cophy.Cgen.generate w) in
      let rng = Random.State.make [| seed |] in
      let same a b =
        match (a, b) with
        | None, None -> true
        | Some x, Some y ->
            Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
        | _ -> false
      in
      List.for_all
        (fun ((q : Ast.query), _) ->
          let c = Inum.build_eager e q in
          List.for_all
            (fun (ti, table) ->
              let ctx = Optimizer.Access.context p schema q table in
              let accesses =
                List.map
                  (fun ix ->
                    ( ix,
                      Optimizer.Access.access ctx
                        (Option.map (Optimizer.Access.index schema) ix) ))
                  cands
              in
              let asks =
                List.concat_map
                  (fun (tpl : Inum.template) ->
                    List.map (fun a -> (tpl.Inum.slot_reqs.(ti), a)) accesses)
                  (Inum.templates c)
                |> List.map (fun x -> (Random.State.bits rng, x))
                |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
                |> List.map snd
              in
              List.for_all
                (fun (req, (ix, a)) ->
                  same
                    (Optimizer.Access.fill_cost ctx a req)
                    (Optimizer.Access.slot_fill_cost p schema q table ix req))
                asks)
            (List.mapi (fun ti t -> (ti, t)) (Inum.tables c)))
        (Ast.selects w))

(* --- Keyed store --- *)

(* A cache hit must return exactly what a fresh build of the normalized
   query would: same templates (betas, slot requirements, plans) and the
   same cost surface, bit for bit. *)
let same_cache c1 c2 =
  List.equal String.equal (Inum.tables c1) (Inum.tables c2)
  && same_templates c1 c2

let test_keyed_hit_bit_identical () =
  let e = env () in
  let store = Inum.Keyed.create e in
  let q = join_query () in
  let c1 = Inum.Keyed.find_or_build store q in
  Alcotest.(check int) "first lookup misses" 1 (Inum.Keyed.misses store);
  (* a differently spelled repeat: reversed tables, flipped join, new id *)
  let q' =
    {
      q with
      Ast.query_id = 99;
      tables = List.rev q.Ast.tables;
      joins =
        List.map
          (fun { Ast.left; right } -> { Ast.left = right; right = left })
          q.Ast.joins;
    }
  in
  let c2 = Inum.Keyed.find_or_build store q' in
  Alcotest.(check int) "repeat hits" 1 (Inum.Keyed.hits store);
  Alcotest.(check int) "no second build" 1 (Inum.Keyed.misses store);
  Alcotest.(check bool) "hit is the stored cache" true (c1 == c2);
  let fresh = Inum.build e (Canon.normalize q) in
  Alcotest.(check bool) "hit bit-identical to fresh build" true
    (same_cache c2 fresh);
  let cfg =
    Storage.Config.of_list
      [ ix "orders" [ "o_orderdate" ]; ix "lineitem" [ "l_orderkey" ] ]
  in
  Alcotest.(check (float 0.0)) "identical cost surface"
    (Inum.cost fresh cfg) (Inum.cost c2 cfg)

let test_add_statements_dedupe () =
  let e = env () in
  let store = Inum.Keyed.create e in
  let w = Workload.Gen.hom schema ~n:5 ~seed:11 in
  let cache = Inum.add_statements store Inum.empty_cache w in
  let first_probes = (Inum.total_init_calls cache) in
  Alcotest.(check bool) "probes spent on first add" true (first_probes > 0);
  (* re-adding the same statements must cost zero probes *)
  let cache2 = Inum.add_statements store cache w in
  Alcotest.(check int) "repeat add costs zero probes" first_probes
    (Inum.total_init_calls cache2);
  Alcotest.(check int) "both copies referenced" (2 * List.length w)
    (List.length cache2.Inum.selects);
  Alcotest.(check bool) "repeats are hits" true (Inum.Keyed.hits store > 0);
  Alcotest.(check (float 1e-9)) "hit rate reflects reuse"
    0.5 (Inum.Keyed.hit_rate store)

(* A hit on a partially-built (budgeted) entry must return the same live
   value — never a copy with stale bounds — and refinement through one
   handle must be visible through every other. *)
let test_keyed_partial_build_coherent () =
  let e = env () in
  let store = Inum.Keyed.create ~probe_budget:2 e in
  let q = join_query () in
  let c1 = Inum.Keyed.find_or_build store q in
  Alcotest.(check bool) "budget 2 leaves probes deferred" true
    (Inum.pending_probes c1 > 0);
  let surrogate, regret = Inum.cost_bound c1 Storage.Config.empty in
  let c2 = Inum.Keyed.find_or_build store q in
  Alcotest.(check bool) "hit is the same live entry" true (c1 == c2);
  (* consulting the cost through the hit forces the deferred probes … *)
  let exact = Inum.cost c2 Storage.Config.empty in
  Alcotest.(check bool) "the pre-refinement bound was sound" true
    (surrogate >= exact -. 1e-6 && exact >= surrogate -. regret -. 1e-6);
  (* … and the first handle sees the refinement, not its stale bounds *)
  let surrogate', regret' = Inum.cost_bound c1 Storage.Config.empty in
  Alcotest.(check (float 0.0)) "no stale bounds on the first handle" exact
    surrogate';
  Alcotest.(check bool) "regret never grows" true (regret' <= regret);
  Alcotest.(check (float 0.0)) "refined cost matches an eager build"
    (Inum.cost (Inum.build_eager e (Canon.normalize q)) Storage.Config.empty)
    exact;
  (* The same on W_het entries at several configurations.  Their joins
     give NLJ slots, whose requirement carries an outer cardinality, and
     [refine] reads each (slot, requirement) fill cost from a per-call
     memo: the refined cost must still be the eager build's, bit for
     bit. *)
  let w = Workload.Gen.het schema ~n:30 ~seed:7 in
  let cache = Inum.add_statements ~jobs:1 store Inum.empty_cache w in
  let cands = Cophy.Cgen.generate w in
  let configs =
    [ Storage.Config.empty;
      Storage.Config.of_list (List.filteri (fun i _ -> i mod 3 = 0) cands);
      Storage.Config.of_list (List.filteri (fun i _ -> i mod 5 = 1) cands) ]
  in
  let nlj = ref false in
  List.iter
    (fun ((q : Ast.query), _, c) ->
      let eager = Inum.build_eager e (Canon.normalize q) in
      List.iter
        (fun (t : Inum.template) ->
          Array.iter
            (function Optimizer.Plan.Nlj_inner _ -> nlj := true | _ -> ())
            t.Inum.slot_reqs)
        (Inum.templates eager);
      List.iteri
        (fun i cfg ->
          Alcotest.(check bool)
            (Printf.sprintf "W_het query %d, config %d: refined = eager"
               q.Ast.query_id i)
            true
            (Runtime.Fx.exactly (Inum.cost eager cfg) (Inum.cost c cfg)))
        configs)
    cache.Inum.selects;
  Alcotest.(check bool) "W_het exercises NLJ slots" true !nlj

(* [refine_cache] visits each distinct entry once.  Against the
   per-statement fold it replaces — [refine] on every statement, repeats
   included — the forced count, every entry's end state and the weighted
   regret must come out identical, at the empty and at a recommended
   configuration. *)
let test_refine_cache_once_per_entry () =
  let w = Workload.Gen.hom schema ~n:200 ~seed:7 in
  let build () = Inum.build_workload ~jobs:1 ~probe_budget:16 (env ()) w in
  let deduped = build () and folded = build () in
  let recommended =
    (Cophy.Advisor.advise ~jobs:1 schema w ~budget_fraction:0.5)
      .Cophy.Advisor.config
  in
  List.iter
    (fun (name, config) ->
      let forced = Inum.refine_cache deduped ~config in
      let forced' =
        List.fold_left
          (fun acc (_, _, c) -> acc + Inum.refine c ~config)
          0 folded.Inum.selects
      in
      Alcotest.(check int) (name ^ ": same forced count") forced' forced;
      if String.equal name "empty" then
        Alcotest.(check bool) "budget 16 leaves probes to force" true
          (forced > 0);
      List.iter2
        (fun (_, _, a) (_, _, b) ->
          Alcotest.(check int) (name ^ ": template_count")
            (Inum.template_count b) (Inum.template_count a);
          Alcotest.(check int) (name ^ ": init_calls") (Inum.init_calls b)
            (Inum.init_calls a);
          Alcotest.(check int) (name ^ ": pending_probes")
            (Inum.pending_probes b) (Inum.pending_probes a))
        deduped.Inum.selects folded.Inum.selects;
      Alcotest.(check bool) (name ^ ": cache_regret bit-identical") true
        (Runtime.Fx.exactly (Inum.cache_regret folded)
           (Inum.cache_regret deduped)))
    [ ("empty", Storage.Config.empty); ("recommended", recommended) ]

(* Cache ids: statements that resolve to one cache see one id, distinct
   caches distinct ids, and the ids a workload build hands out, taken
   relative to the first, are the same at every job count. *)
let test_entry_ids () =
  let w = Workload.Gen.hom schema ~n:40 ~seed:7 in
  let ids jobs =
    let cache = Inum.build_workload ~jobs ~probe_budget:16 (env ()) w in
    let caches = List.map (fun (_, _, c) -> c) cache.Inum.selects in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            Alcotest.(check bool) "same id iff same cache" (a == b)
              (Int.equal (Inum.id a) (Inum.id b)))
          caches)
      caches;
    let first = List.fold_left (fun m c -> min m (Inum.id c)) max_int caches in
    List.map (fun c -> Inum.id c - first) caches
  in
  Alcotest.(check (list int)) "jobs 1 = jobs 4" (ids 1) (ids 4)

(* Resolution through the store is invariant in jobs and identical to a
   fresh direct build of the canonical form. *)
let prop_keyed_matches_fresh =
  QCheck.Test.make ~name:"keyed store resolves to fresh builds" ~count:5
    QCheck.(int_range 0 1_000)
    (fun seed ->
      let e = env () in
      let w = Workload.Gen.hom schema ~n:4 ~seed in
      let store = Inum.Keyed.create e in
      let cache = Inum.add_statements ~jobs:4 store Inum.empty_cache w in
      List.for_all
        (fun (q, _, c) -> same_cache c (Inum.build e (Canon.normalize q)))
        cache.Inum.selects)

(* Queries whose join graph leaves tables unreached: W_het queries with a
   random subset of their joins removed.  The what-if DP must fall back
   to cross products, so a direct plan and a finite INUM cost at the
   empty configuration always exist. *)
let prop_disconnected_queries_plan =
  QCheck.Test.make ~name:"W_het minus random joins: plan and finite cost"
    ~count:30
    QCheck.(pair (int_range 0 1_000) (int_range 0 1_000))
    (fun (seed, drop_seed) ->
      let e = env () in
      let rng = Random.State.make [| drop_seed |] in
      List.for_all
        (fun ((q : Ast.query), _) ->
          let joins =
            List.filter (fun _ -> Random.State.bool rng) q.Ast.joins
          in
          let q = { q with Ast.joins } in
          Float.is_finite
            (Optimizer.Plan.cost
               (Optimizer.Whatif.optimize e q Storage.Config.empty))
          && Float.is_finite (Inum.cost (Inum.build e q) Storage.Config.empty))
        (Ast.selects (Workload.Gen.het schema ~n:4 ~seed)))

(* --- Bit-identity pins --- *)

(* Every SELECT of W_het n=12 and W_hom n=20 (seed 7), pinned to the bit:
   the eager build's kept templates (count, then a digest of every
   template's beta, slot requirements and plan, all floats as [%h]); a
   probe-budget-16 build, then [refine] at every other candidate and at
   every candidate (the forced count and the kept templates after each
   step, which pins the incremental kept set); and the direct what-if
   cost under no index and under every candidate.  A probe-path rewrite
   that reorders one float operation, or keeps a different template or
   duplicate, moves a pin. *)
let req_sig = function
  | Optimizer.Plan.Any_order -> "*"
  | Optimizer.Plan.Ordered o -> "o(" ^ String.concat "," o ^ ")"
  | Optimizer.Plan.Nlj_inner { join_col; outer_rows } ->
      Printf.sprintf "n(%s,%h)" join_col outer_rows

let rec plan_sig (p : Optimizer.Plan.t) =
  let keys ks =
    String.concat ","
      (List.map (fun (c : Ast.col_ref) -> c.table ^ "." ^ c.column) ks)
  in
  match p with
  | Seq_scan s -> Printf.sprintf "seq(%s,%h,%h)" s.table s.rows s.cost
  | Index_scan s ->
      Printf.sprintf "ix(%s,%b,%h,%h)"
        (Storage.Index.to_string s.index) s.covering s.rows s.cost
  | Slot s -> Printf.sprintf "slot(%s,%s,%h)" s.table (req_sig s.req) s.rows
  | Nest_loop j ->
      Printf.sprintf "nl(%s,%s,%h,%h)" (plan_sig j.outer) (plan_sig j.inner)
        j.rows j.cost
  | Hash_join j ->
      Printf.sprintf "hj(%s,%s,%h,%h)" (plan_sig j.build) (plan_sig j.probe)
        j.rows j.cost
  | Merge_join j ->
      Printf.sprintf "mj(%s,%s,%h,%h)" (plan_sig j.left) (plan_sig j.right)
        j.rows j.cost
  | Sort s ->
      Printf.sprintf "sort(%s,[%s],%h,%h)" (plan_sig s.child) (keys s.keys)
        s.rows s.cost
  | Aggregate a ->
      let kind =
        match a.kind with
        | Optimizer.Plan.Hash_agg -> "h"
        | Optimizer.Plan.Sorted_agg -> "s"
        | Optimizer.Plan.Plain_agg -> "p"
      in
      Printf.sprintf "agg%s(%s,%h,%h)" kind (plan_sig a.child) a.rows a.cost

let templates_sig c =
  let body =
    String.concat ";"
      (List.map
         (fun (t : Inum.template) ->
           Printf.sprintf "%h[%s]%s" t.Inum.beta
             (String.concat ","
                (Array.to_list (Array.map req_sig t.Inum.slot_reqs)))
             (plan_sig t.Inum.plan))
         (Inum.templates c))
  in
  Printf.sprintf "%d:%s" (Inum.template_count c)
    (String.sub (Digest.to_hex (Digest.string body)) 0 12)

let pin_lines label w =
  let e = env () in
  let cands = Cophy.Cgen.generate w in
  let some =
    Storage.Config.of_list (List.filteri (fun i _ -> i mod 2 = 0) cands)
  in
  let all = Storage.Config.of_list cands in
  List.map
    (fun ((q : Ast.query), _) ->
      let eager = Inum.build_eager e q in
      let lazy_ = Inum.build ~probe_budget:16 e q in
      let b16 = templates_sig lazy_ in
      let f1 = Inum.refine lazy_ ~config:some in
      let r1 = templates_sig lazy_ in
      let f2 = Inum.refine lazy_ ~config:all in
      let r2 = templates_sig lazy_ in
      Printf.sprintf "%s/%d eager %s b16 %s r1 +%d %s r2 +%d %s cost %h %h"
        label q.Ast.query_id (templates_sig eager) b16 f1 r1 f2 r2
        (Optimizer.Whatif.cost e q Storage.Config.empty)
        (Optimizer.Whatif.cost e q all))
    (Ast.selects w)

let test_pins name w expected () =
  Alcotest.(check (list string)) name expected (pin_lines name w)

let het12_pins =
  [
    "het/1 eager 40:4e2479df511a b16 16:6b7642cb1500 \
     r1 +72 30:86edffe84baa r2 +0 30:86edffe84baa \
     cost 0x1.8b90a82cd726bp+17 0x1.a8caa4d8c2ac8p+10";
    "het/2 eager 1:81eb1230a689 b16 1:81eb1230a689 \
     r1 +0 1:81eb1230a689 r2 +0 1:81eb1230a689 \
     cost 0x1.1ep+8 0x1.54p+6";
    "het/3 eager 2:f3d3988750fe b16 2:f3d3988750fe \
     r1 +0 2:f3d3988750fe r2 +0 2:f3d3988750fe \
     cost 0x1.7408p+12 0x1.6ap+6";
    "het/4 eager 15:68af3b138b89 b16 14:928dfef8fbeb \
     r1 +15 12:4fcc6cea58cd r2 +3 12:4fcc6cea58cd \
     cost 0x1.e2d48p+17 0x1.488c7ae147ae1p+15";
    "het/5 eager 2:c02fb937b466 b16 2:c02fb937b466 \
     r1 +0 2:c02fb937b466 r2 +0 2:c02fb937b466 \
     cost 0x1.e1c8cp+15 0x1.4c08p+14";
    "het/6 eager 11:09263a381643 b16 10:85f7086c5828 \
     r1 +27 12:305094017662 r2 +0 12:305094017662 \
     cost 0x1.2222p+15 0x1.d85827e9d1598p+13";
    "het/7 eager 2:6974607a29b5 b16 2:6974607a29b5 \
     r1 +0 2:6974607a29b5 r2 +0 2:6974607a29b5 \
     cost 0x1.4849a784bcd1cp+8 0x1.6cccccccccccdp+3";
    "het/8 eager 60:80c7b378f050 b16 14:53d0564b4afa \
     r1 +24 22:938134888ccd r2 +0 22:938134888ccd \
     cost 0x1.8462651eb851fp+15 0x1.32ef7b7148d0ep+5";
    "het/9 eager 46:175429a58d8a b16 14:62a55520e33f \
     r1 +20 20:e25415029904 r2 +10 24:0bae1cd819a2 \
     cost 0x1.0a52eaaaaaaaap+18 0x1.1d7daa75bb8fbp+14";
    "het/10 eager 49:c03eb63eaefb b16 15:9f57f3b2e5ea \
     r1 +7 20:feea8695ffd5 r2 +0 20:feea8695ffd5 \
     cost 0x1.bb92cbd65ba2ep+17 0x1.25fc2ec79bba6p+6";
    "het/11 eager 2:ee25db3c9a13 b16 2:ee25db3c9a13 \
     r1 +0 2:ee25db3c9a13 r2 +0 2:ee25db3c9a13 \
     cost 0x1.6d651745d1746p+17 0x1.a78ba2e8ba2e8p+12";
    "het/12 eager 2:b2c90d3d3cd4 b16 2:b2c90d3d3cd4 \
     r1 +0 2:b2c90d3d3cd4 r2 +0 2:b2c90d3d3cd4 \
     cost 0x1.8964p+14 0x1.85bd119ce075cp+10";
  ]
let hom20_pins =
  [
    "hom/1 eager 2:cbb47463e9f7 b16 2:cbb47463e9f7 \
     r1 +0 2:cbb47463e9f7 r2 +0 2:cbb47463e9f7 \
     cost 0x1.06944d66725e8p+18 0x1.5f3d901d3009cp+16";
    "hom/2 eager 11:18dec1fb1ccc b16 13:76c487eabad4 \
     r1 +17 11:bc1e6ec1ca10 r2 +1 11:bc1e6ec1ca10 \
     cost 0x1.02e6b7046e564p+18 0x1.04ddf3c379b3ap+16";
    "hom/3 eager 2:6adb096b6c61 b16 2:6adb096b6c61 \
     r1 +0 2:6adb096b6c61 r2 +0 2:6adb096b6c61 \
     cost 0x1.4d7e59bb0c2f5p+15 0x1.b0427b8eb69ddp+11";
    "hom/4 eager 32:b14c3930dea1 b16 16:2462d848637d \
     r1 +114 31:c1406ae79118 r2 +18 32:b14c3930dea1 \
     cost 0x1.e8920b9c68b2dp+17 0x1.3fc8952547553p+16";
    "hom/5 eager 1:b319a460b53d b16 1:b319a460b53d \
     r1 +0 1:b319a460b53d r2 +0 1:b319a460b53d \
     cost 0x1.9adf265d33937p+17 0x1.36b433d0c11c4p+10";
    "hom/6 eager 11:6e08a0da907b b16 10:5c76b44e0083 \
     r1 +13 11:529659f71ac2 r2 +0 11:529659f71ac2 \
     cost 0x1.ce3b052b2c63cp+17 0x1.aa3323ecd55c9p+14";
    "hom/7 eager 13:44b25047c805 b16 10:6dc982808816 \
     r1 +28 12:1666e85006f8 r2 +5 13:b9c11e218795 \
     cost 0x1.dc9e8941c16fbp+17 0x1.2b9b8536b09ffp+15";
    "hom/8 eager 6:b5fc7ce5228f b16 6:b5fc7ce5228f \
     r1 +0 6:b5fc7ce5228f r2 +0 6:b5fc7ce5228f \
     cost 0x1.aae8p+14 0x1.63b1eb851eb85p+12";
    "hom/9 eager 4:4076204b433a b16 4:4076204b433a \
     r1 +0 4:4076204b433a r2 +0 4:4076204b433a \
     cost 0x1.dab26b1f5bf56p+17 0x1.6143fea016e92p+14";
    "hom/10 eager 5:24b0ac45123b b16 5:24b0ac45123b \
     r1 +0 5:24b0ac45123b r2 +0 5:24b0ac45123b \
     cost 0x1.6e9c0f33afbbep+17 0x1.10a764978c7b8p+12";
    "hom/11 eager 6:05676044a2f1 b16 6:05676044a2f1 \
     r1 +0 6:05676044a2f1 r2 +0 6:05676044a2f1 \
     cost 0x1.ff34p+14 0x1.2fb12c5f92c61p+12";
    "hom/12 eager 5:cb38c605509d b16 5:cb38c605509d \
     r1 +0 5:cb38c605509d r2 +0 5:cb38c605509d \
     cost 0x1.726bd55555555p+17 0x1.a51a5e353f7cfp+8";
    "hom/13 eager 4:eb01500169cc b16 4:eb01500169cc \
     r1 +0 4:eb01500169cc r2 +0 4:eb01500169cc \
     cost 0x1.a6be16db6db6ep+17 0x1.04eb6db6db6dbp+10";
    "hom/14 eager 2:b65527c2b716 b16 2:b65527c2b716 \
     r1 +0 2:b65527c2b716 r2 +0 2:b65527c2b716 \
     cost 0x1.41b57ddcae497p+12 0x1.005a1cac08313p+4";
    "hom/15 eager 17:2bec84b46765 b16 13:782a9b434072 \
     r1 +26 18:5d629c5600e4 r2 +0 18:5d629c5600e4 \
     cost 0x1.561p+8 0x1.015c28f5c28f5p+6";
    "hom/16 eager 2:cbb47463e9f7 b16 2:cbb47463e9f7 \
     r1 +0 2:cbb47463e9f7 r2 +0 2:cbb47463e9f7 \
     cost 0x1.06944d66725e8p+18 0x1.5f3d901d3009cp+16";
    "hom/17 eager 11:739088707e8f b16 13:84222f0baf90 \
     r1 +17 11:0d6f21f8627c r2 +1 11:0d6f21f8627c \
     cost 0x1.02e6b7046e564p+18 0x1.04ddf3c379b3ap+16";
    "hom/18 eager 2:ae13c97a33e8 b16 2:ae13c97a33e8 \
     r1 +0 2:ae13c97a33e8 r2 +0 2:ae13c97a33e8 \
     cost 0x1.4d7e59bb0c2f5p+15 0x1.b0427b8eb69dbp+11";
    "hom/19 eager 32:384e53769faa b16 16:8901eedd8d75 \
     r1 +114 31:adae5e99fae0 r2 +18 32:384e53769faa \
     cost 0x1.e8920b9c68b2dp+17 0x1.3fc8952547552p+16";
    "hom/20 eager 1:b319a460b53d b16 1:b319a460b53d \
     r1 +0 1:b319a460b53d r2 +0 1:b319a460b53d \
     cost 0x1.9adf265d33937p+17 0x1.36b433d0c11c4p+10";
  ]

(* --- Bit-identity of the per-shape, per-probe and prepared kernels --- *)

let shuffled ~seed xs =
  let rng = Random.State.make [| seed |] in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* [w] shuffled, with repeats: every statement again under a fresh id,
   and each SELECT with two or more GROUP BY columns once more with them
   reversed — the same canonical key, another raw shape, other
   group-by candidates. *)
let with_repeats ~seed (w : Ast.workload) =
  let extra =
    List.mapi
      (fun i (ws : Ast.weighted) ->
        let stmt =
          match ws.Ast.stmt with
          | Ast.Select q -> Ast.Select { q with Ast.query_id = 10_000 + i }
          | Ast.Update u -> Ast.Update { u with Ast.update_id = 10_000 + i }
        in
        { ws with Ast.stmt })
      w
  in
  let reversed =
    List.filter_map
      (fun (ws : Ast.weighted) ->
        match ws.Ast.stmt with
        | Ast.Select q when List.length q.Ast.group_by >= 2 ->
            Some
              { ws with
                Ast.stmt =
                  Ast.Select
                    { q with
                      Ast.query_id = 20_000 + q.Ast.query_id;
                      group_by = List.rev q.Ast.group_by } }
        | _ -> None)
      w
  in
  shuffled ~seed (w @ extra @ reversed)

(* [Cgen.generate] expands each raw shape once; the set is the union of
   [query_candidates] over every statement. *)
let test_cgen_per_shape () =
  List.iter
    (fun (label, w) ->
      let union =
        List.concat_map
          (fun (q, _) -> Cophy.Cgen.query_candidates q)
          (Ast.selects w)
        |> Storage.Config.of_list |> Storage.Config.to_list
      in
      let reversed =
        List.exists
          (fun (q, _) -> List.length q.Ast.group_by >= 2)
          (Ast.selects w)
      in
      Alcotest.(check bool) (label ^ ": has a reordered GROUP BY") true reversed;
      Alcotest.(check bool) label true
        (List.equal Storage.Index.equal union (Cophy.Cgen.generate w)))
    [
      ("hom n=60", with_repeats ~seed:1 (Workload.Gen.hom schema ~n:60 ~seed:7));
      ("het n=30", with_repeats ~seed:2 (Workload.Gen.het schema ~n:30 ~seed:7));
      ("het n=40", with_repeats ~seed:3 (Workload.Gen.het schema ~n:40 ~seed:8));
    ]

(* The spec orders of the probe loop, as written in its design: the
   reference the per-probe bounds are checked against. *)
let rec prefix o1 o2 =
  match (o1, o2) with
  | [], _ -> true
  | _, [] -> false
  | a :: r1, b :: r2 -> String.equal a b && prefix r1 r2

let spec_beta_le (s1 : Optimizer.Whatif.slot_spec)
    (s2 : Optimizer.Whatif.slot_spec) =
  match (s1, s2) with
  | Spec_any, (Spec_any | Spec_ordered _) -> true
  | Spec_ordered a, Spec_ordered b -> prefix a b
  | Spec_nlj a, Spec_nlj b -> String.equal a b
  | _ -> false

let spec_gamma_le (s1 : Optimizer.Whatif.slot_spec)
    (s2 : Optimizer.Whatif.slot_spec) =
  match (s1, s2) with
  | Spec_any, _ -> true
  | Spec_ordered a, Spec_ordered b -> prefix a b
  | _ -> false

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* Every combination's [lb]/[ub] against the folds over its probed
   neighbors in index order (max from the floor over the probed
   combinations above it in the beta order, min from infinity over the
   probed templates below it in the gamma order), bit for bit, and every
   state against the certificates those folds give: a pending
   combination has none, a skipped one has its own. *)
let check_bounds label c =
  let cs = Inum.combinations c in
  let n = Array.length cs in
  let all le i j =
    let ok = ref true in
    Array.iteri (fun k s -> if not (le s cs.(j).Inum.specs.(k)) then ok := false)
      cs.(i).Inum.specs;
    !ok
  in
  let stronger i j = j <> i && all spec_beta_le i j in
  let gweaker i j = j <> i && all (fun si sj -> spec_gamma_le sj si) i j in
  for i = 0 to n - 1 do
    let lb = ref (Inum.cost_floor c) and ub = ref infinity in
    let infeasible = ref false in
    for j = 0 to n - 1 do
      match cs.(j).Inum.state with
      | Inum.Probed (Some tpl) ->
          if stronger i j && tpl.Inum.beta > !lb then lb := tpl.Inum.beta;
          if gweaker i j && tpl.Inum.beta < !ub then ub := tpl.Inum.beta
      | Inum.Probed None -> if stronger i j then infeasible := true
      | Inum.Skipped_dominated | Inum.Skipped_infeasible | Inum.Pending -> ()
    done;
    let dominated =
      Array.exists Fun.id
        (Array.init n (fun j ->
             gweaker i j
             &&
             match cs.(j).Inum.state with
             | Inum.Probed (Some tpl) -> tpl.Inum.beta <= !lb
             | _ -> false))
    in
    let what = Printf.sprintf "%s: combination %d" label i in
    Alcotest.(check string) (what ^ " lb") (Printf.sprintf "%h" !lb)
      (Printf.sprintf "%h" cs.(i).Inum.lb);
    Alcotest.(check bool) (what ^ " lb bits") true (same_bits !lb cs.(i).Inum.lb);
    Alcotest.(check string) (what ^ " ub") (Printf.sprintf "%h" !ub)
      (Printf.sprintf "%h" cs.(i).Inum.ub);
    let state_ok =
      match cs.(i).Inum.state with
      | Inum.Pending -> (not !infeasible) && not dominated
      | Inum.Skipped_infeasible -> !infeasible
      | Inum.Skipped_dominated -> dominated
      | Inum.Probed _ -> true
    in
    Alcotest.(check bool) (what ^ " state") true state_ok
  done

let test_bounds_match_folds () =
  let e = env () in
  List.iter
    (fun (label, w) ->
      let all = Storage.Config.of_list (Cophy.Cgen.generate w) in
      List.iter
        (fun budget ->
          List.iter
            (fun ((q : Ast.query), _) ->
              let c = Inum.build ?probe_budget:budget e q in
              let at =
                Printf.sprintf "%s/%d budget %s" label q.Ast.query_id
                  (match budget with Some b -> string_of_int b | None -> "-")
              in
              check_bounds (at ^ " built") c;
              ignore (Inum.refine c ~config:all);
              check_bounds (at ^ " refined") c)
            (Ast.selects w))
        [ Some 1; Some 4; Some 16; None ])
    [
      ("het", Workload.Gen.het schema ~n:12 ~seed:7);
      ("hom", Workload.Gen.hom schema ~n:20 ~seed:7);
    ]

let plan_opt_sig = function None -> "none" | Some p -> plan_sig p

(* Every spec combination of every W_het statement, planned through one
   prepared DP (its sub-mask memo shared by all of them, in two orders)
   and by a fresh [template_plan]: the same plan, every cost and row
   count bit for bit. *)
let test_prepared_dp_matches_fresh () =
  let e = env () in
  List.iter
    (fun ((q : Ast.query), _) ->
      let combos =
        Array.map (fun c -> c.Inum.specs) (Inum.combinations (Inum.build e q))
      in
      let tables = Array.of_list q.Ast.tables in
      (* each table's specs in first-appearance order, and every
         combination's positions among them *)
      let specs =
        Array.mapi
          (fun k _ ->
            Array.fold_left
              (fun acc combo ->
                if List.mem combo.(k) acc then acc else acc @ [ combo.(k) ])
              [] combos
            |> Array.of_list)
          tables
      in
      let position k s =
        let rec go i = if specs.(k).(i) = s then i else go (i + 1) in
        go 0
      in
      let prepared = Optimizer.Whatif.prepare e q specs in
      let fresh combo =
        plan_opt_sig
          (Optimizer.Whatif.template_plan e q
             ~slot_specs:
               (List.filter_map
                  (fun (k, s) ->
                    match s with
                    | Optimizer.Whatif.Spec_any -> None
                    | _ -> Some (tables.(k), s))
                  (Array.to_list (Array.mapi (fun k s -> (k, s)) combo))))
      in
      List.iter
        (fun order ->
          let dp = Optimizer.Whatif.dp prepared in
          List.iter
            (fun i ->
              let combo = combos.(i) in
              let pos = Array.mapi position combo in
              Alcotest.(check string)
                (Printf.sprintf "het/%d combination %d" q.Ast.query_id i)
                (fresh combo)
                (plan_opt_sig (Optimizer.Whatif.template_plan_at dp pos)))
            order)
        [
          List.init (Array.length combos) Fun.id;
          List.rev (List.init (Array.length combos) Fun.id);
        ])
    (Ast.selects (Workload.Gen.het schema ~n:12 ~seed:7))

let () =
  Alcotest.run "inum"
    [
      ( "templates",
        [
          Alcotest.test_case "exist" `Quick test_templates_exist;
          Alcotest.test_case "order/nlj templates" `Quick test_join_query_has_order_templates;
          Alcotest.test_case "betas positive" `Quick test_template_betas_positive;
          QCheck_alcotest.to_alcotest prop_disconnected_queries_plan;
        ] );
      ( "gamma",
        [
          Alcotest.test_case "incompatible order" `Quick test_gamma_infinite_on_wrong_order;
          Alcotest.test_case "no-index finite" `Quick test_gamma_none_index_finite;
          Alcotest.test_case "unknown table raises" `Quick
            test_gamma_unknown_table_raises;
          QCheck_alcotest.to_alcotest prop_context_matches_one_shot;
        ] );
      ( "lazy",
        [
          Alcotest.test_case "unlimited budget = eager" `Quick
            test_lazy_unlimited_matches_eager;
          Alcotest.test_case "budgeted build jobs-invariant" `Quick
            test_budgeted_build_jobs_invariant;
          QCheck_alcotest.to_alcotest prop_budgeted_regret_sound;
        ] );
      ( "lemma1",
        [
          Alcotest.test_case "upper bounds direct" `Quick test_inum_upper_bounds_direct;
          QCheck_alcotest.to_alcotest prop_inum_matches_direct;
          Alcotest.test_case "best instantiation" `Quick test_best_instantiation_consistent;
        ] );
      ( "workload",
        [
          Alcotest.test_case "cache" `Quick test_workload_cache;
          Alcotest.test_case "update maintenance" `Quick test_update_maintenance_in_workload_cost;
        ] );
      ( "pins",
        [
          Alcotest.test_case "W_het n=12" `Quick
            (test_pins "het" (Workload.Gen.het schema ~n:12 ~seed:7) het12_pins);
          Alcotest.test_case "W_hom n=20" `Quick
            (test_pins "hom" (Workload.Gen.hom schema ~n:20 ~seed:7) hom20_pins);
          Alcotest.test_case "CGen once per raw shape = union over statements"
            `Quick test_cgen_per_shape;
          Alcotest.test_case "per-probe bounds = neighbor folds (budgets 1/4/16/-)"
            `Quick test_bounds_match_folds;
          Alcotest.test_case "prepared, memoized DP = fresh DP (W_het)" `Quick
            test_prepared_dp_matches_fresh;
        ] );
      ( "keyed",
        [
          Alcotest.test_case "hit bit-identical" `Quick
            test_keyed_hit_bit_identical;
          Alcotest.test_case "add_statements dedupe" `Quick
            test_add_statements_dedupe;
          Alcotest.test_case "partial build coherent" `Quick
            test_keyed_partial_build_coherent;
          Alcotest.test_case "refine_cache once per entry" `Quick
            test_refine_cache_once_per_entry;
          Alcotest.test_case "entry ids" `Quick test_entry_ids;
          QCheck_alcotest.to_alcotest prop_keyed_matches_fresh;
        ] );
    ]
