(* Tests for the CoPhy core: candidate generation, the structured BIP, the
   central Theorem-1 equivalence, the Lagrangian solver against
   branch-and-bound references, soft-constraint Pareto sweeps, and
   interactive re-tuning. *)

open Sqlast

let schema = Catalog.Tpch.schema ()

let env () = Optimizer.Whatif.make_env schema

let small_workload ?(n = 6) ?(seed = 3) () = Workload.Gen.hom schema ~n ~seed

let db_size = Catalog.Tpch.database_size schema

(* hom n=3 seed=1 at 0.5x: q1's block costs 0.535x its no-index cost
   even with every candidate selected, so a 0.9 query-cost cap holds
   and a 0.5 cap cannot; the root relaxation is fractional. *)
let cap_workload () = Workload.Gen.hom schema ~n:3 ~seed:1

(* --- CGen --- *)

let test_cgen_generates_candidates () =
  let w = small_workload ~n:15 () in
  let cands = Cophy.Cgen.generate w in
  Alcotest.(check bool) "a large candidate set" true (List.length cands > 50);
  (* all candidates valid and deduplicated *)
  List.iter
    (fun ix ->
      match Storage.Index.validate schema ix with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    cands;
  let as_set = Storage.Config.of_list cands in
  Alcotest.(check int) "no duplicates" (List.length cands)
    (Storage.Config.cardinal as_set)

let test_cgen_covers_predicates () =
  let w = small_workload ~n:15 () in
  let cands = Cophy.Cgen.generate w in
  (* every equality predicate column appears as some index's leading key *)
  List.iter
    (fun (q, _) ->
      List.iter
        (fun p ->
          if p.Ast.is_equality then begin
            let covered =
              List.exists
                (fun ix ->
                  Storage.Index.table ix = p.Ast.pred_col.Ast.table
                  && List.hd (Storage.Index.key_columns ix)
                     = p.Ast.pred_col.Ast.column)
                cands
            in
            Alcotest.(check bool)
              (Printf.sprintf "candidate leads with %s"
                 p.Ast.pred_col.Ast.column)
              true covered
          end)
        q.Ast.predicates)
    (Ast.selects w)

let test_cgen_dba_candidates () =
  let w = small_workload () in
  let dba = [ Storage.Index.create ~table:"region" [ "r_name" ] ] in
  let cands = Cophy.Cgen.generate ~dba w in
  Alcotest.(check bool) "dba set included" true
    (List.exists (Storage.Index.equal (List.hd dba)) cands)

let test_cgen_random () =
  let cands = Cophy.Cgen.random_candidates schema ~n:50 ~seed:1 in
  Alcotest.(check bool) "about n (deduped)" true (List.length cands > 30);
  List.iter
    (fun ix ->
      match Storage.Index.validate schema ix with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    cands

(* --- Sproblem --- *)

let build_problem ?(n = 4) ?(seed = 3) ?(cand_cap = 10) () =
  let e = env () in
  let w = small_workload ~n ~seed () in
  let cache = Inum.build_workload e w in
  let cands =
    Cophy.Cgen.generate w |> List.filteri (fun i _ -> i mod 7 < cand_cap)
    |> Array.of_list
  in
  (e, w, cache, Cophy.Sproblem.build e cache cands)

(* A recommendation's reported objective, and what its problem charges
   with no index selected. *)
let objective (r : Cophy.Advisor.recommendation) =
  r.Cophy.Advisor.report.Cophy.Solver.objective

let no_index_cost (r : Cophy.Advisor.recommendation) =
  let sp = r.Cophy.Advisor.problem in
  Cophy.Sproblem.eval sp (Array.make (Cophy.Sproblem.num_candidates sp) false)

let test_sproblem_eval_matches_inum () =
  let e, _, cache, sp = build_problem () in
  (* evaluating the structured problem at z must equal the INUM workload
     cost of the corresponding configuration *)
  let ncand = Cophy.Sproblem.num_candidates sp in
  let rng = Random.State.make [| 5 |] in
  for _ = 1 to 10 do
    let z = Array.init ncand (fun _ -> Random.State.bool rng) in
    let config = Cophy.Sproblem.config_of sp z in
    let via_sp = Cophy.Sproblem.eval sp z in
    let via_inum = Inum.workload_cost e cache config in
    Alcotest.(check (float 1.0)) "eval = INUM cost" via_inum via_sp
  done

let test_sproblem_slot_pruning () =
  let _, _, _, sp = build_problem () in
  (* every slot has the no-index choice first and only improving gammas *)
  Array.iter
    (fun (b : Cophy.Sproblem.block) ->
      Array.iter
        (fun (t : Cophy.Sproblem.template) ->
          Array.iter
            (fun slot ->
              Alcotest.(check bool) "no-index first" true
                (Array.length slot > 0 && slot.(0).Cophy.Sproblem.cand = -1);
              let g0 = slot.(0).Cophy.Sproblem.gamma in
              Array.iteri
                (fun i c ->
                  if i > 0 then
                    Alcotest.(check bool) "dominated pruned" true
                      (c.Cophy.Sproblem.gamma < g0))
                slot)
            t.Cophy.Sproblem.choices)
        b.Cophy.Sproblem.templates)
    sp.Cophy.Sproblem.blocks

(* Bit-exact block equality: betas and gammas by [Fx.exactly]. *)
let same_block (a : Cophy.Sproblem.block) (b : Cophy.Sproblem.block) =
  let same_choice (x : Cophy.Sproblem.slot_choice) (y : Cophy.Sproblem.slot_choice) =
    Int.equal x.Cophy.Sproblem.cand y.Cophy.Sproblem.cand
    && Runtime.Fx.exactly x.Cophy.Sproblem.gamma y.Cophy.Sproblem.gamma
  in
  let same_array eq x y =
    Array.length x = Array.length y && Array.for_all2 eq x y
  in
  let same_template (x : Cophy.Sproblem.template) (y : Cophy.Sproblem.template) =
    Runtime.Fx.exactly x.Cophy.Sproblem.beta y.Cophy.Sproblem.beta
    && same_array (same_array same_choice) x.Cophy.Sproblem.choices
         y.Cophy.Sproblem.choices
  in
  same_array same_template a.Cophy.Sproblem.templates b.Cophy.Sproblem.templates
  && same_array Int.equal a.Cophy.Sproblem.cands_used b.Cophy.Sproblem.cands_used

(* Statements resolving to one INUM entry share their block arrays,
   however they are written: gammas are priced on the entry's canonical
   statement, so two range predicates in swapped order (an index seeks
   on the first matching one) price alike. *)
let test_sproblem_shared_blocks () =
  let e = env () in
  let date = Ast.col_ref "orders" "o_orderdate" in
  let query id predicates =
    {
      Ast.query_id = id;
      tables = [ "orders" ];
      select = [ Ast.Col (Ast.col_ref "orders" "o_totalprice") ];
      predicates;
      joins = [];
      group_by = [];
      order_by = [];
    }
  in
  let before = Ast.predicate ~selectivity:0.001 date Ast.Lt in
  let after = Ast.predicate ~selectivity:0.02 date Ast.Gt in
  let a = query 1 [ before; after ] in
  let b = query 2 [ after; before ] in
  let a' = { a with Ast.query_id = 3 } in
  Alcotest.(check string) "one canonical key" (Canon.key a) (Canon.key b);
  let workload qs =
    List.map (fun q -> { Ast.stmt = Ast.Select q; weight = 1.0 }) qs
  in
  let store = Inum.Keyed.create e in
  let cache = Inum.add_statements store Inum.empty_cache (workload [ a; b; a' ]) in
  let cands =
    [| Storage.Index.create ~table:"orders" [ "o_orderdate" ];
       Storage.Index.create ~includes:[ "o_totalprice" ] ~table:"orders"
         [ "o_orderdate" ] |]
  in
  let sp = Cophy.Sproblem.build e cache cands in
  List.iteri
    (fun i q ->
      let alone = Inum.add_statements store Inum.empty_cache (workload [ q ]) in
      let single = Cophy.Sproblem.build e alone cands in
      Alcotest.(check bool)
        (Printf.sprintf "block %d = its one-statement build" i)
        true
        (same_block sp.Cophy.Sproblem.blocks.(i) single.Cophy.Sproblem.blocks.(0)))
    [ a; b; a' ];
  let entry i =
    let _, _, inum = List.nth cache.Inum.selects i in
    inum
  in
  Alcotest.(check bool) "all three resolve to one entry" true
    (entry 0 == entry 1 && entry 0 == entry 2);
  let block i = sp.Cophy.Sproblem.blocks.(i) in
  Alcotest.(check bool) "reordered ranges price alike" true
    (same_block (block 0) (block 1));
  Alcotest.(check bool) "an exact repeat shares its templates" true
    ((block 2).Cophy.Sproblem.templates == (block 0).Cophy.Sproblem.templates);
  Alcotest.(check bool) "a reordered statement shares them too" true
    ((block 1).Cophy.Sproblem.templates == (block 0).Cophy.Sproblem.templates)

(* A permutation of [l] drawn from [rng]. *)
let shuffle rng l =
  List.map (fun x -> (Random.State.bits rng, x)) l
  |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

(* The BIP prices one surface, the one [Inum.cost] evaluates: with each
   SELECT's predicates and FROM list permuted, every block equals the
   unpermuted build's, and at random selections each block costs what
   [Inum.cost] gives its statement's unlimited-budget entry. *)
let prop_sproblem_one_surface =
  QCheck.Test.make ~name:"permuted statements price on the INUM surface"
    ~count:6
    QCheck.(triple (int_range 1 8) (oneofl [ 1; 2; 7 ]) (int_range 0 1000))
    (fun (n, seed, perm) ->
      let e = env () in
      let w = Workload.Gen.het schema ~n ~seed in
      let rng = Random.State.make [| perm |] in
      let permuted =
        List.map
          (fun (s : Ast.weighted) ->
            match s.Ast.stmt with
            | Ast.Select q ->
                let q =
                  { q with
                    Ast.tables = shuffle rng q.Ast.tables;
                    predicates = shuffle rng q.Ast.predicates }
                in
                { s with Ast.stmt = Ast.Select q }
            | Ast.Update _ -> s)
          w
      in
      let cands = Array.of_list (Cophy.Cgen.generate w) in
      let sp = Cophy.Sproblem.build e (Inum.build_workload e w) cands in
      let cache = Inum.build_workload e permuted in
      let sp' = Cophy.Sproblem.build e cache cands in
      let blocks = sp.Cophy.Sproblem.blocks
      and blocks' = sp'.Cophy.Sproblem.blocks in
      let same =
        Array.length blocks = Array.length blocks'
        && Array.for_all2
             (fun (a : Cophy.Sproblem.block) (b : Cophy.Sproblem.block) ->
               Int.equal a.Cophy.Sproblem.qid b.Cophy.Sproblem.qid
               && Runtime.Fx.exactly a.Cophy.Sproblem.weight
                    b.Cophy.Sproblem.weight
               && same_block a b)
             blocks blocks'
      in
      let zrng = Random.State.make [| perm; n; seed |] in
      let priced_as_inum _ =
        let z =
          Array.init (Cophy.Sproblem.num_candidates sp') (fun _ ->
              Random.State.bool zrng)
        in
        let config = Cophy.Sproblem.config_of sp' z in
        List.for_all2
          (fun b (_, _, inum) ->
            Runtime.Fx.approx_rel
              (Cophy.Sproblem.block_cost_z b z)
              (Inum.cost inum config))
          (Array.to_list blocks') cache.Inum.selects
      in
      same && List.for_all priced_as_inum [ 1; 2; 3; 4; 5 ])

(* [compress] merges blocks by content, not by memory layout: a block
   whose two choices share one boxed gamma and a block with a copy per
   choice are the same block. *)
let test_sproblem_compress_sharing () =
  let _, _, _, sp = build_problem () in
  let block qid weight g1 g2 =
    {
      Cophy.Sproblem.qid;
      weight;
      templates =
        [| { Cophy.Sproblem.beta = 2.0;
             choices =
               [| [| { Cophy.Sproblem.cand = -1; gamma = g1 };
                     { Cophy.Sproblem.cand = 0; gamma = g2 } |] |] } |];
      cands_used = [| 0 |];
    }
  in
  let g = float_of_string "1.5" in
  let shared = block 1 1.0 g g in
  let copies = block 2 2.0 (float_of_string "1.5") (float_of_string "1.5") in
  let c, group =
    Cophy.Sproblem.compress
      { sp with Cophy.Sproblem.blocks = [| shared; copies |] }
  in
  Alcotest.(check int) "one block" 1 (Cophy.Sproblem.num_blocks c);
  Alcotest.(check (array int)) "both merged into it" [| 0; 0 |] group;
  let b = c.Cophy.Sproblem.blocks.(0) in
  Alcotest.(check int) "the first member" 1 b.Cophy.Sproblem.qid;
  Alcotest.(check (float 0.0)) "summed weight" 3.0 b.Cophy.Sproblem.weight

(* The fields of two problems that differ: candidates by index equality,
   floats by [Fx.exactly], blocks by [same_block] plus qid and weight. *)
let problem_diff (a : Cophy.Sproblem.t) (b : Cophy.Sproblem.t) =
  let arrays eq x y = Array.length x = Array.length y && Array.for_all2 eq x y in
  let floats = arrays Runtime.Fx.exactly in
  let same_weighted (x : Cophy.Sproblem.block) (y : Cophy.Sproblem.block) =
    Int.equal x.Cophy.Sproblem.qid y.Cophy.Sproblem.qid
    && Runtime.Fx.exactly x.Cophy.Sproblem.weight y.Cophy.Sproblem.weight
    && same_block x y
  in
  List.filter_map
    (fun (name, same) -> if same then None else Some name)
    [
      ("schema", a.Cophy.Sproblem.schema == b.Cophy.Sproblem.schema);
      ( "candidates",
        arrays Storage.Index.equal a.Cophy.Sproblem.candidates
          b.Cophy.Sproblem.candidates );
      ("sizes", floats a.Cophy.Sproblem.sizes b.Cophy.Sproblem.sizes);
      ("ucost", floats a.Cophy.Sproblem.ucost b.Cophy.Sproblem.ucost);
      ("fixed", Runtime.Fx.exactly a.Cophy.Sproblem.fixed b.Cophy.Sproblem.fixed);
      ( "probe_regret",
        Runtime.Fx.exactly a.Cophy.Sproblem.probe_regret
          b.Cophy.Sproblem.probe_regret );
      ("blocks", arrays same_weighted a.Cophy.Sproblem.blocks b.Cophy.Sproblem.blocks);
      ( "cand_blocks",
        arrays (arrays Int.equal) a.Cophy.Sproblem.cand_blocks
          b.Cophy.Sproblem.cand_blocks );
    ]

(* The session's problem against a memo-less build of its cache and
   candidates. *)
let check_memo_exact label s =
  let fresh =
    Cophy.Sproblem.build (Cophy.Interactive.env s) (Cophy.Interactive.cache s)
      (Array.of_list (Cophy.Interactive.candidates s))
  in
  Alcotest.(check (list string)) (label ^ ": problem = fresh build") []
    (problem_diff (Cophy.Interactive.problem s) fresh)

(* [f ()] under tracing; returns the templates it priced and reused. *)
let pricing f =
  Runtime.Trace.reset ();
  Runtime.Trace.enable ();
  Fun.protect ~finally:Runtime.Trace.disable f;
  let counters = Runtime.Trace.counters () in
  let get name = Option.value ~default:0 (List.assoc_opt name counters) in
  (get "sproblem.templates_priced", get "sproblem.templates_reused")

(* The distinct INUM entries of [cache]: a build prices each template of
   each entry once. *)
let priced_entries (cache : Inum.workload_cache) =
  List.fold_left
    (fun seen (_, _, inum) -> if List.memq inum seen then seen else inum :: seen)
    [] cache.Inum.selects

(* Templates a build of [cache] prices without a memo. *)
let distinct_templates cache =
  List.fold_left (fun n inum -> n + Inum.template_count inum) 0 (priced_entries cache)

(* A session's memoized rebuilds equal memo-less builds after every kind
   of delta, including a refine that forces probes and a candidate
   removal that resets the memo. *)
let test_sproblem_memo_exact () =
  let w = small_workload ~n:6 () in
  let all = Cophy.Cgen.generate w in
  let half = List.filteri (fun i _ -> i mod 2 = 0) all in
  let s =
    Cophy.Interactive.create ~candidates:half
      ~store:(Inum.Keyed.create ~probe_budget:2 (env ()))
      schema w ~budget:(0.5 *. db_size)
  in
  check_memo_exact "initial" s;
  Cophy.Interactive.add_candidates s
    (List.filteri (fun i _ -> i mod 2 = 1) all
    @ Cophy.Cgen.random_candidates schema ~n:10 ~seed:99);
  check_memo_exact "add_candidates" s;
  let id =
    match Ast.selects w with
    | (q, _) :: _ -> q.Ast.query_id
    | [] -> Alcotest.fail "no SELECT in the workload"
  in
  Cophy.Interactive.set_weight s id 7.5;
  check_memo_exact "set_weight" s;
  let forced =
    Cophy.Interactive.refine_at s
      (Storage.Config.of_list (Cophy.Interactive.candidates s))
  in
  Alcotest.(check bool) "refine forced probes" true (forced > 0);
  check_memo_exact "refine_at" s;
  Cophy.Interactive.add_statements s (Workload.Gen.hom schema ~n:3 ~seed:77);
  check_memo_exact "add_statements" s;
  Cophy.Interactive.remove_statements s ~drop:(function
    | Ast.Select q -> q.Ast.query_id = id
    | Ast.Update _ -> false);
  check_memo_exact "remove_statements" s;
  let cands = Cophy.Interactive.candidates s in
  Cophy.Interactive.remove_candidates s [ List.nth cands (List.length cands / 2) ];
  let priced, reused =
    pricing (fun () -> ignore (Cophy.Interactive.problem s))
  in
  Alcotest.(check int) "remove_candidates resets the memo"
    (distinct_templates (Cophy.Interactive.cache s))
    priced;
  Alcotest.(check int) "nothing reused after a reset" 0 reused;
  check_memo_exact "remove_candidates" s

(* The daemon's lazy rebuilds over a drifting stream equal memo-less
   builds at every recommend, and do reuse pricings. *)
let test_sproblem_memo_drift () =
  let events =
    Workload.Replay.drift ~recommend_every:15 ~update_fraction:0.1 schema
      ~n:20 ~events:120 ~seed:7
  in
  let engine = Serve.Engine.create ~window:48 ~probe_budget:16 schema in
  let _, reused =
    pricing (fun () ->
        List.iteri
          (fun i -> function
            | Workload.Replay.Statement (stmt, delta) ->
                Serve.Engine.observe engine stmt delta
            | Workload.Replay.Recommend ->
                ignore (Serve.Engine.recommend engine);
                check_memo_exact
                  (Printf.sprintf "recommend at event %d" i)
                  (Serve.Engine.session engine))
          events)
  in
  Alcotest.(check bool) "rebuilds reused pricings" true (reused > 0)

(* What the counters show the memo doing: a weight change reprices
   nothing, a refine reprices only the templates it added, and a memo
   emptied by a build with no statements keeps nothing stale. *)
let test_sproblem_memo_reuse () =
  let w = small_workload ~n:6 () in
  let s =
    Cophy.Interactive.create
      ~store:(Inum.Keyed.create ~probe_budget:2 (env ()))
      schema w ~budget:(0.5 *. db_size)
  in
  let total = distinct_templates (Cophy.Interactive.cache s) in
  let build () = pricing (fun () -> ignore (Cophy.Interactive.problem s)) in
  Alcotest.(check (pair int int)) "first build prices every template"
    (total, 0) (build ());
  let id, weight =
    match Ast.selects w with
    | (q, f) :: _ -> (q.Ast.query_id, f)
    | [] -> Alcotest.fail "no SELECT in the workload"
  in
  Cophy.Interactive.set_weight s id (2.0 *. weight);
  Alcotest.(check (pair int int)) "set_weight prices nothing" (0, total) (build ());
  let before =
    List.map
      (fun inum -> (inum, Inum.templates inum))
      (priced_entries (Cophy.Interactive.cache s))
  in
  let forced =
    Cophy.Interactive.refine_at s
      (Storage.Config.of_list (Cophy.Interactive.candidates s))
  in
  Alcotest.(check bool) "refine forced probes" true (forced > 0);
  let added, kept =
    List.fold_left
      (fun (added, kept) (inum, old) ->
        List.fold_left
          (fun (added, kept) tpl ->
            if List.memq tpl old then (added, kept + 1) else (added + 1, kept))
          (added, kept) (Inum.templates inum))
      (0, 0) before
  in
  Alcotest.(check bool) "the refine added templates" true (added > 0);
  Alcotest.(check (pair int int)) "refine prices only what it added"
    (added, kept) (build ());
  Cophy.Interactive.remove_statements s ~drop:(fun _ -> true);
  Alcotest.(check (pair int int)) "an empty workload prices nothing" (0, 0)
    (build ());
  Cophy.Interactive.add_statements s w;
  Alcotest.(check (pair int int)) "re-added statements are priced again"
    (distinct_templates (Cophy.Interactive.cache s), 0)
    (build ());
  check_memo_exact "after re-adding" s

(* --- Pricing-path pins --- *)

(* Every block of a problem, pinned to the bit: qid, weight, every
   template's beta and every choice's candidate and gamma (floats as
   [%h]), and [cands_used], digested; with the block count,
   [variable_count] and the block count after [compress]. *)
let problem_sig (sp : Cophy.Sproblem.t) =
  let b = Buffer.create 65536 in
  Array.iter
    (fun (blk : Cophy.Sproblem.block) ->
      Printf.bprintf b "q%d w%h" blk.Cophy.Sproblem.qid blk.Cophy.Sproblem.weight;
      Array.iter
        (fun (t : Cophy.Sproblem.template) ->
          Printf.bprintf b " t%h" t.Cophy.Sproblem.beta;
          Array.iter
            (fun slot ->
              Buffer.add_string b " [";
              Array.iter
                (fun (c : Cophy.Sproblem.slot_choice) ->
                  Printf.bprintf b "%d:%h," c.Cophy.Sproblem.cand
                    c.Cophy.Sproblem.gamma)
                slot;
              Buffer.add_char b ']')
            t.Cophy.Sproblem.choices)
        blk.Cophy.Sproblem.templates;
      Printf.bprintf b " u%s\n"
        (String.concat ","
           (Array.to_list
              (Array.map string_of_int blk.Cophy.Sproblem.cands_used))))
    sp.Cophy.Sproblem.blocks;
  Printf.sprintf "%d blocks %d vars %d compressed %s"
    (Cophy.Sproblem.num_blocks sp)
    (Cophy.Sproblem.variable_count sp)
    (Cophy.Sproblem.num_blocks (fst (Cophy.Sproblem.compress sp)))
    (String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 12)

(* One session over [w] at probe budget 16, with the even-numbered CGen
   candidates: its problem after the first build, after [refine_at]
   every candidate it has (the rebuild after forced probes, which prices
   the templates the refine added), and after [add_candidates] the rest
   (the rebuild that extends memoized templates). *)
let pricing_pin_lines w =
  let cands = Cophy.Cgen.generate w in
  let even = List.filteri (fun i _ -> i mod 2 = 0) cands in
  let odd = List.filteri (fun i _ -> i mod 2 = 1) cands in
  let s =
    Cophy.Interactive.create ~candidates:even
      ~store:(Inum.Keyed.create ~probe_budget:16 (env ()))
      schema w ~budget:(0.5 *. db_size)
  in
  let built = problem_sig (Cophy.Interactive.problem s) in
  let forced = Cophy.Interactive.refine_at s (Storage.Config.of_list even) in
  let refined = problem_sig (Cophy.Interactive.problem s) in
  Cophy.Interactive.add_candidates s odd;
  let extended = problem_sig (Cophy.Interactive.problem s) in
  [
    "build " ^ built;
    Printf.sprintf "refine_at +%d %s" forced refined;
    "add_candidates " ^ extended;
  ]

let hom200_pricing_pins =
  [
    "build 200 blocks 11296 vars 49 compressed 252017797c77";
    "refine_at +1224 200 blocks 15700 vars 49 compressed 20db360bedf4";
    "add_candidates 200 blocks 22665 vars 50 compressed ae52b8901b78";
  ]
let het12_pricing_pins =
  [
    "build 12 blocks 951 vars 12 compressed 013e0a14e14e";
    "refine_at +181 12 blocks 1561 vars 12 compressed 138d11723f1e";
    "add_candidates 12 blocks 2839 vars 12 compressed 9dce956a1105";
  ]

let test_pricing_pins w expected () =
  Alcotest.(check (list string)) "problem digests" expected (pricing_pin_lines w)

(* The materialized Theorem-1 BIP of hom n=20 at 0.5x: the model passes
   the static checks, its LP relaxation solves to optimal on the one LP
   path, and the optimum with its duals passes certification, the LP
   optimality conditions included.  [int_vars:[]]: the relaxation is
   not integral. *)
let test_sproblem_lp_relaxation_certified () =
  let w = Workload.Gen.hom schema ~n:20 ~seed:7 in
  let e = env () in
  let cache = Inum.build_workload e w in
  let cands = Array.of_list (Cophy.Cgen.generate w) in
  let sp = Cophy.Sproblem.build e cache cands in
  let p, _ = Cophy.Sproblem.to_lp ~budget:(0.5 *. db_size) sp in
  let issues = Lp.Analyze.check p in
  Alcotest.(check bool)
    (Fmt.str "no static errors: %a" (Fmt.list Lp.Analyze.pp_issue) issues)
    false (Lp.Analyze.has_errors issues);
  let r = Lp.Simplex.solve p in
  Alcotest.(check bool) "optimal" true (r.Lp.Simplex.status = Lp.Simplex.Optimal);
  Alcotest.(check (float 1e-6)) "objective" 2032778.395716 r.Lp.Simplex.obj;
  let cert =
    Lp.Analyze.certify ~duals:r.Lp.Simplex.duals
      ~obj:(r.Lp.Simplex.obj +. Lp.Problem.obj_offset p)
      ~int_vars:[] p r.Lp.Simplex.x
  in
  Alcotest.(check (list string)) "certified" [] cert.Lp.Analyze.cert_issues;
  Alcotest.(check bool) "cert_ok" true cert.Lp.Analyze.cert_ok

(* --- Theorem 1: the BIP optimum equals exhaustive search --- *)

let exhaustive_optimum sp ~budget =
  let ncand = Cophy.Sproblem.num_candidates sp in
  let best = ref infinity in
  for mask = 0 to (1 lsl ncand) - 1 do
    let z = Array.init ncand (fun i -> mask land (1 lsl i) <> 0) in
    if Cophy.Sproblem.total_size sp z <= budget then begin
      let c = Cophy.Sproblem.eval sp z in
      if c < !best then best := c
    end
  done;
  !best

(* The reference optimum: branch and bound over the materialized BIP at
   gap 1e-9 (branching on z, which Theorem 1's structure makes sound),
   priced on the structured problem; [infinity] when it has no
   solution. *)
let bb_optimum ?(z_rows = []) sp ~budget =
  let p, vars = Cophy.Sproblem.to_lp ~budget ~z_rows sp in
  let options =
    { Lp.Branch_bound.default_options with
      Lp.Branch_bound.gap_tolerance = 1e-9;
      decision_vars = Some (Array.to_list vars.Cophy.Sproblem.z_var) }
  in
  match (Lp.Branch_bound.solve ~options p).Lp.Branch_bound.x with
  | Some x ->
      Cophy.Sproblem.eval sp (Cophy.Sproblem.z_of_lp_solution sp vars x)
  | None -> infinity

let test_theorem1_equivalence () =
  (* small instance so 2^|S| enumeration is feasible *)
  let e = env () in
  let w = small_workload ~n:3 ~seed:11 () in
  let cache = Inum.build_workload e w in
  let cands =
    Cophy.Cgen.generate w |> List.filteri (fun i _ -> i mod 11 = 0)
    |> Array.of_list
  in
  let sp = Cophy.Sproblem.build e cache cands in
  Alcotest.(check bool) "enumerable" true (Array.length cands <= 12);
  let budget = 0.4 *. db_size in
  let expected = exhaustive_optimum sp ~budget in
  let p, vars = Cophy.Sproblem.to_lp ~budget sp in
  let options =
    { Lp.Branch_bound.default_options with Lp.Branch_bound.gap_tolerance = 1e-9 }
  in
  let r = Lp.Branch_bound.solve ~options p in
  (match r.Lp.Branch_bound.x with
  | Some x ->
      let z = Cophy.Sproblem.z_of_lp_solution sp vars x in
      Alcotest.(check (float 1.0)) "BIP optimum = exhaustive" expected
        (Cophy.Sproblem.eval sp z);
      Alcotest.(check (float 1.0)) "objective consistent" expected
        r.Lp.Branch_bound.obj
  | None -> Alcotest.fail "BIP should be feasible")

let prop_theorem1_random_instances =
  QCheck.Test.make ~name:"Theorem 1 on random small instances" ~count:6
    QCheck.(pair (int_range 0 1000) (float_range 0.2 0.8))
    (fun (seed, frac) ->
      let e = env () in
      let w = Workload.Gen.het schema ~n:3 ~seed in
      let cache = Inum.build_workload e w in
      let cands =
        Cophy.Cgen.generate w |> List.filteri (fun i _ -> i mod 13 = 0)
        |> fun l -> List.filteri (fun i _ -> i < 10) l |> Array.of_list
      in
      let sp = Cophy.Sproblem.build e cache cands in
      let budget = frac *. db_size in
      let expected = exhaustive_optimum sp ~budget in
      let p, vars = Cophy.Sproblem.to_lp ~budget sp in
      let options =
        { Lp.Branch_bound.default_options with
          Lp.Branch_bound.gap_tolerance = 1e-9 }
      in
      let r = Lp.Branch_bound.solve ~options p in
      match r.Lp.Branch_bound.x with
      | Some x ->
          let z = Cophy.Sproblem.z_of_lp_solution sp vars x in
          abs_float (Cophy.Sproblem.eval sp z -. expected) < 1.0
      | None -> expected = infinity)

(* --- Solver: the Lagrangian decomposition --- *)

let test_decomposition_respects_budget () =
  let _, _, _, sp = build_problem ~n:8 () in
  let budget = 0.3 *. db_size in
  let r = Cophy.Solver.solve sp ~budget ~z_rows:[] ~block_caps:[] in
  Alcotest.(check bool) "within budget" true
    (Cophy.Sproblem.total_size sp r.Cophy.Solver.z <= budget +. 1.0);
  Alcotest.(check bool) "bound <= obj" true
    (r.Cophy.Solver.bound <= r.Cophy.Solver.objective +. 1e-6);
  Alcotest.(check (float 1.0)) "obj = eval(z)"
    (Cophy.Sproblem.eval sp r.Cophy.Solver.z)
    r.Cophy.Solver.objective

let test_decomposition_near_exact () =
  (* on a small instance the decomposition incumbent should be close to
     the exact optimum *)
  let e = env () in
  let w = small_workload ~n:4 ~seed:21 () in
  let cache = Inum.build_workload e w in
  let cands =
    Cophy.Cgen.generate w |> List.filteri (fun i _ -> i mod 9 = 0)
    |> Array.of_list
  in
  let sp = Cophy.Sproblem.build e cache cands in
  let budget = 0.5 *. db_size in
  let exact = exhaustive_optimum sp ~budget in
  let r = Cophy.Solver.solve sp ~budget ~z_rows:[] ~block_caps:[] in
  Alcotest.(check bool) "within 10% of optimum" true
    (r.Cophy.Solver.objective <= exact *. 1.10 +. 1.0);
  Alcotest.(check bool) "bound below optimum" true
    (r.Cophy.Solver.bound <= exact +. 1.0)

let test_decomposition_events_monotone () =
  let _, _, _, sp = build_problem ~n:8 () in
  let events = ref [] in
  let options =
    { Cophy.Solver.default_options with
      Cophy.Solver.gap_tolerance = 1e-4; max_iters = 60;
      on_feedback = (fun e -> events := e :: !events) }
  in
  ignore
    (Cophy.Solver.solve ~options sp ~budget:(0.5 *. db_size) ~z_rows:[]
       ~block_caps:[]);
  let events = List.rev !events in
  Alcotest.(check bool) "events streamed" true (List.length events >= 2);
  let rec check_monotone prev = function
    | [] -> ()
    | (e : Cophy.Solver.feedback) :: rest ->
        Alcotest.(check bool) "incumbent non-increasing" true
          (e.Cophy.Solver.incumbent <= prev.Cophy.Solver.incumbent +. 1e-6);
        check_monotone e rest
  in
  (match events with e :: rest -> check_monotone e rest | [] -> ());
  (* gap is eventually reported *)
  let final = List.nth events (List.length events - 1) in
  Alcotest.(check bool) "final bound below incumbent" true
    (final.Cophy.Solver.bound <= final.Cophy.Solver.incumbent +. 1e-6)

let test_decomposition_z_rows () =
  let _, _, _, sp = build_problem ~n:6 () in
  let forbidden_pos = 0 in
  let z_rows =
    [ { Constr.row_coeffs = [ (forbidden_pos, 1.0) ]; row_cmp = Constr.Le;
        row_rhs = 0.0; row_name = "forbid0" } ]
  in
  let r = Cophy.Solver.solve sp ~budget:db_size ~z_rows ~block_caps:[] in
  Alcotest.(check bool) "forbidden not selected" false
    r.Cophy.Solver.z.(forbidden_pos)

let test_decomposition_time_limit () =
  (* even with (almost) no time, a feasible incumbent and a valid bound
     come back — the early-termination contract *)
  let _, _, _, sp = build_problem ~n:8 () in
  let options =
    { Cophy.Solver.default_options with
      Cophy.Solver.time_limit = 0.001; max_iters = 1 }
  in
  let budget = 0.5 *. db_size in
  let r =
    Cophy.Solver.solve ~options sp ~budget ~z_rows:[] ~block_caps:[]
  in
  Alcotest.(check bool) "feasible" true
    (Cophy.Sproblem.total_size sp r.Cophy.Solver.z <= budget +. 1.0);
  Alcotest.(check bool) "bound valid" true
    (r.Cophy.Solver.bound <= r.Cophy.Solver.objective +. 1e-6)

let test_decomposition_warm_start () =
  let _, _, _, sp = build_problem ~n:8 () in
  let budget = 0.5 *. db_size in
  let r1 = Cophy.Solver.solve sp ~budget ~z_rows:[] ~block_caps:[] in
  (* the full warm seam: prior multipliers plus the prior incumbent
     selection — the retune pattern — makes the restart never worse *)
  let warm_sel = Cophy.Sproblem.config_of sp r1.Cophy.Solver.z in
  let options =
    { Cophy.Solver.default_options with
      Cophy.Solver.warm = Some r1.Cophy.Solver.multipliers;
      warm_z = Some warm_sel;
      max_iters = 50 }
  in
  let r2 =
    Cophy.Solver.solve ~options sp ~budget ~z_rows:[] ~block_caps:[]
  in
  Alcotest.(check bool) "warm restart no worse" true
    (r2.Cophy.Solver.objective <= r1.Cophy.Solver.objective +. 1e-6)

(* --- Block cost kernels (properties) --- *)

(* A random block over 8 candidates and a random selection: 1-3
   templates of 1-3 slots, each slot a no-index choice then up to 4
   candidate choices.  Gammas come from a small integer grid (ties are
   common), a continuous range, or infinity (order-incompatible fills),
   so infinite slot minima and infinite totals occur too. *)
let block_and_selection_gen =
  QCheck.Gen.(
    let gamma =
      frequency
        [ (1, return infinity); (4, map float_of_int (int_range 0 20));
          (2, float_range 0.0 50.0) ]
    in
    let choice =
      map2 (fun cand gamma -> { Cophy.Sproblem.cand; gamma }) (int_range 0 7)
        gamma
    in
    let slot =
      map2
        (fun g0 rest ->
          Array.of_list ({ Cophy.Sproblem.cand = -1; gamma = g0 } :: rest))
        gamma
        (list_size (int_range 0 4) choice)
    in
    let template =
      map2
        (fun beta slots ->
          { Cophy.Sproblem.beta; choices = Array.of_list slots })
        (map float_of_int (int_range 0 30))
        (list_size (int_range 1 3) slot)
    in
    map2
      (fun templates z ->
        let templates = Array.of_list templates in
        let cands =
          Array.to_list templates
          |> List.concat_map (fun t ->
                 Array.to_list t.Cophy.Sproblem.choices
                 |> List.concat_map Array.to_list)
          |> List.filter_map (fun c ->
                 if c.Cophy.Sproblem.cand >= 0 then Some c.Cophy.Sproblem.cand
                 else None)
          |> List.sort_uniq Int.compare
        in
        ( { Cophy.Sproblem.qid = 0; weight = 1.0; templates;
            cands_used = Array.of_list cands },
          Array.of_list z ))
      (list_size (int_range 1 3) template)
      (list_repeat 8 bool))

let print_block_and_selection ((b : Cophy.Sproblem.block), z) =
  let slot s =
    String.concat " "
      (Array.to_list
         (Array.map
            (fun c ->
              Printf.sprintf "%d:%h" c.Cophy.Sproblem.cand c.Cophy.Sproblem.gamma)
            s))
  in
  let template (t : Cophy.Sproblem.template) =
    Printf.sprintf "beta %h [%s]" t.Cophy.Sproblem.beta
      (String.concat " | " (Array.to_list (Array.map slot t.Cophy.Sproblem.choices)))
  in
  Printf.sprintf "%s; z = %s"
    (String.concat "; "
       (Array.to_list (Array.map template b.Cophy.Sproblem.templates)))
    (String.concat ""
       (Array.to_list (Array.map (fun s -> if s then "1" else "0") z)))

let block_and_selection =
  QCheck.make ~print:print_block_and_selection block_and_selection_gen

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* The reference: the definition, as list folds. *)
let naive_block_cost (b : Cophy.Sproblem.block) z =
  List.fold_left
    (fun best (tpl : Cophy.Sproblem.template) ->
      let total =
        List.fold_left
          (fun total slot ->
            total
            +. List.fold_left
                 (fun m { Cophy.Sproblem.cand; gamma } ->
                   if (cand < 0 || z.(cand)) && gamma < m then gamma else m)
                 infinity (Array.to_list slot))
          tpl.Cophy.Sproblem.beta
          (Array.to_list tpl.Cophy.Sproblem.choices)
      in
      if total < best then total else best)
    infinity
    (Array.to_list b.Cophy.Sproblem.templates)

let prop_block_cost_z_reference =
  QCheck.Test.make ~name:"block_cost_z = list-fold reference, bit for bit"
    ~count:1000 block_and_selection (fun (b, z) ->
      same_bits (Cophy.Sproblem.block_cost_z b z) (naive_block_cost b z))

(* The argmin lemma repair's scoring rests on. *)
let prop_drop_outside_picks =
  QCheck.Test.make
    ~name:"dropping a selected candidate outside the picks keeps the cost"
    ~count:1000 block_and_selection (fun (b, z) ->
      let c, picks = Cophy.Sproblem.block_cost_picks b z in
      same_bits c (Cophy.Sproblem.block_cost_z b z)
      && List.for_all
           (fun a ->
             (not z.(a)) || List.mem a picks
             ||
             let z' = Array.copy z in
             z'.(a) <- false;
             same_bits c (Cophy.Sproblem.block_cost_z b z'))
           (List.init (Array.length z) Fun.id))

(* --- Fused and kept solver kernels (properties) --- *)

(* A random problem over 8 candidates: 1-5 random blocks (as above, at
   weights 1-4), sizes, maintenance costs, a selection, a budget, the
   selection's mandatory part, and at most one "at most k selected"
   row. *)
let problem_cands =
  Array.init 8 (fun i ->
      Storage.Index.create ~table:"lineitem"
        [ List.nth [ "l_orderkey"; "l_partkey"; "l_suppkey"; "l_linenumber";
                     "l_quantity"; "l_shipdate"; "l_commitdate"; "l_receiptdate" ] i ])

let make_problem blocks ~sizes ~ucost =
  let blocks = Array.of_list blocks in
  let cand_blocks =
    Array.init 8 (fun a ->
        Array.of_list
          (List.filter
             (fun bi -> Array.mem a blocks.(bi).Cophy.Sproblem.cands_used)
             (List.init (Array.length blocks) Fun.id)))
  in
  { Cophy.Sproblem.schema; candidates = problem_cands; sizes; ucost;
    fixed = 3.0; probe_regret = 0.0; blocks; cand_blocks }

let problem_gen =
  QCheck.Gen.(
    let block =
      map2
        (fun (b, _) w -> { b with Cophy.Sproblem.weight = float_of_int w })
        block_and_selection_gen (int_range 1 4)
    in
    let floats lo hi = array_repeat 8 (map float_of_int (int_range lo hi)) in
    map
      (fun ((blocks, sizes, ucost), (z, mandatory, budget, k)) ->
        let sp = make_problem blocks ~sizes ~ucost in
        let mandatory = Array.mapi (fun a m -> m && z.(a)) mandatory in
        let z_rows =
          if k >= 8 then []
          else
            [ { Constr.row_coeffs = List.init 8 (fun a -> (a, 1.0));
                row_cmp = Constr.Le; row_rhs = float_of_int k;
                row_name = "at_most" } ]
        in
        (sp, z, mandatory, float_of_int budget, z_rows))
      (pair
         (triple (list_size (int_range 1 5) block) (floats 0 60) (floats 0 9))
         (quad (array_repeat 8 bool) (array_repeat 8 (frequencyl [ (1, true); (5, false) ]))
            (int_range 0 300) (int_range 1 12))))

let print_problem (sp, z, mandatory, budget, z_rows) =
  let bits a = String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") a)) in
  Printf.sprintf "%s\nsizes %s ucost %s\nz %s mandatory %s budget %h rows %d"
    (String.concat "\n"
       (Array.to_list
          (Array.map
             (fun b -> print_block_and_selection (b, z))
             sp.Cophy.Sproblem.blocks)))
    (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") sp.Cophy.Sproblem.sizes)))
    (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") sp.Cophy.Sproblem.ucost)))
    (bits z) (bits mandatory) budget (List.length z_rows)

let problem_arb = QCheck.make ~print:print_problem problem_gen

(* The repair kernel as it was before its evaluation was fused in: score
   each selected candidate's drop against [block_cost_picks] of the
   start, re-pricing a block with [block_cost_z] when it loses a pick,
   then drop greedily until feasible. *)
let reference_repair (sp : Cophy.Sproblem.t) ~budget ~z_rows ~mandatory z =
  let feasible z =
    Cophy.Sproblem.total_size sp z <= budget +. 1e-6
    && List.for_all (fun row -> Constr.row_holds row z) z_rows
  in
  let z = Array.copy z in
  if feasible z then z
  else begin
    let start = Array.map (fun b -> Cophy.Sproblem.block_cost_picks b z) sp.Cophy.Sproblem.blocks in
    let scored = ref [] in
    for a = 0 to Array.length z - 1 do
      if z.(a) && not mandatory.(a) then begin
        let d = ref (-.sp.Cophy.Sproblem.ucost.(a)) in
        z.(a) <- false;
        Array.iter
          (fun bi ->
            let b = sp.Cophy.Sproblem.blocks.(bi) in
            let c0, picks = start.(bi) in
            let c = if List.mem a picks then Cophy.Sproblem.block_cost_z b z else c0 in
            d := !d +. (b.Cophy.Sproblem.weight *. (c -. c0)))
          sp.Cophy.Sproblem.cand_blocks.(a);
        z.(a) <- true;
        scored := (a, -. !d /. max 1.0 sp.Cophy.Sproblem.sizes.(a)) :: !scored
      end
    done;
    let order = List.sort (fun (_, s1) (_, s2) -> compare s2 s1) !scored |> List.map fst in
    List.iter (fun a -> if not (feasible z) then z.(a) <- false) order;
    z
  end

let prop_repair_eval_fused =
  QCheck.Test.make ~name:"fused repair+eval = repair then Sproblem.eval, bit for bit"
    ~count:1000 problem_arb (fun (sp, z, mandatory, budget, z_rows) ->
      let zr = reference_repair sp ~budget ~z_rows ~mandatory z in
      let obj = Cophy.Sproblem.eval sp zr in
      List.for_all
        (fun jobs ->
          let zf, objf =
            Cophy.Solver.repair_eval ~jobs sp ~budget ~z_rows ~mandatory z
          in
          zf = zr && same_bits objf obj)
        [ 1; 3 ])

let prop_singleton_savings_one_pass =
  QCheck.Test.make
    ~name:"one-pass singleton savings = per-candidate block_cost_z, bit for bit"
    ~count:1000 problem_arb (fun (sp, _, _, _, _) ->
      let empty = Array.make 8 false in
      let reference =
        Array.mapi
          (fun a blocks ->
            let z1 = Array.init 8 (Int.equal a) in
            Array.map
              (fun bi ->
                let b = sp.Cophy.Sproblem.blocks.(bi) in
                b.Cophy.Sproblem.weight
                *. (Cophy.Sproblem.block_cost_z b empty -. Cophy.Sproblem.block_cost_z b z1))
              blocks)
          sp.Cophy.Sproblem.cand_blocks
      in
      List.for_all
        (fun jobs ->
          let got = Cophy.Solver.singleton_savings ~jobs sp in
          Array.for_all2 (Array.for_all2 same_bits) reference got)
        [ 1; 3 ])

(* Bit-identity pins on W_het: het n=8 seed 7 over every generated
   candidate, at 0.5x budget.  Four solves — cold; warm from the cold
   solve's multipliers and selection; the clustered rule plus a
   forbidden index (z rows, so the LP z subproblem); an accept gate of
   at most three indexes — each pinned to its exact objective and bound
   (hex floats), iteration count and selection, at jobs 1 and 4.  A
   kernel rewrite that reorders one float operation moves a pin. *)
let het8_pins =
  [
    "cold: obj 0x1.92bd68a7890acp+16 bound 0x1.875e44ec5381cp+16 \
     iterations 161 z [2;20;25;38;39;40;48;49;52;57;73;75;79;81;82;85;86;87;88]";
    "warm: obj 0x1.92bd68a7890aap+16 bound 0x1.87389e7c76f3p+16 \
     iterations 1 z [2;20;25;38;39;40;48;49;52;57;73;75;79;81;82;85;86;87;88]";
    "z rows: obj 0x1.90a5c4eeaf818p+16 bound 0x1.8aeb0732340ep+16 \
     iterations 135 z [4;20;25;40;48;49;52;58;73;75;79;81;82;86;87;88]";
    "accept: obj 0x1.745a5415cb5a2p+18 bound 0x1.885ed3926e2acp+16 \
     iterations 400 z [20;49;88]";
  ]

let test_decomposition_het_pins () =
  let e = env () in
  let w = Workload.Gen.het schema ~n:8 ~seed:7 in
  let cache = Inum.build_workload e w in
  let cands = Array.of_list (Cophy.Cgen.generate w) in
  let sp = Cophy.Sproblem.build e cache cands in
  let budget = 0.5 *. db_size in
  let selected z =
    List.filter (fun a -> z.(a)) (List.init (Array.length z) Fun.id)
  in
  let show label (r : Cophy.Solver.report) =
    Printf.sprintf "%s: obj %h bound %h iterations %d z [%s]" label
      r.Cophy.Solver.objective r.Cophy.Solver.bound
      r.Cophy.Solver.iterations
      (String.concat ";"
         (List.map string_of_int (selected r.Cophy.Solver.z)))
  in
  List.iter
    (fun jobs ->
      let options = { Cophy.Solver.default_options with jobs } in
      let solve ?(options = options) ?accept z_rows =
        Cophy.Solver.solve ~options ?accept sp ~budget ~z_rows
          ~block_caps:[]
      in
      let cold = solve [] in
      let warm =
        solve
          ~options:
            { options with
              Cophy.Solver.warm =
                Some cold.Cophy.Solver.multipliers;
              warm_z =
                Some (Cophy.Sproblem.config_of sp cold.Cophy.Solver.z) }
          []
      in
      let banned = cands.(List.hd (selected cold.Cophy.Solver.z)) in
      let rows =
        (Constr.split schema cands
           [ Constr.At_most_one_clustered; Constr.Forbidden [ banned ] ])
          .Constr.z_rows
      in
      let gated =
        solve ~accept:(fun z -> List.length (selected z) <= 3) []
      in
      Alcotest.(check (list string))
        (Printf.sprintf "pins (jobs %d)" jobs)
        het8_pins
        [ show "cold" cold; show "warm" warm; show "z rows" (solve rows);
          show "accept" gated ])
    [ 1; 4 ]

(* The fig6a path pinned: W_hom n=20 seed 7 over every generated
   candidate at the whole database as budget, 150 iterations at most and
   a 0.005 gap — the feedback stream bench fig6a prints.  Every event's
   (incumbent, bound) pair, as hex floats, is digested with the event
   count and the last pair. *)
let fig6a_path_pins =
  [
    "events 152 digest 2cd583f97d32f1c9341ecb519e2f3845 \
     last 0x1.5abacaae593c8p+20 0x1.47469255d2e94p+20";
  ]

let test_decomposition_fig6a_path_pins () =
  let e = env () in
  let w = Workload.Gen.hom schema ~n:20 ~seed:7 in
  let cache = Inum.build_workload e w in
  let cands = Array.of_list (Cophy.Cgen.generate w) in
  let sp = Cophy.Sproblem.build e cache cands in
  let events = ref [] in
  let options =
    { Cophy.Solver.default_options with
      Cophy.Solver.gap_tolerance = 0.005;
      max_iters = 150;
      on_feedback =
        (fun (ev : Cophy.Solver.feedback) ->
          events :=
            (ev.Cophy.Solver.incumbent, ev.Cophy.Solver.bound)
            :: !events) }
  in
  ignore
    (Cophy.Solver.solve ~options sp ~budget:db_size ~z_rows:[]
       ~block_caps:[]);
  let events = List.rev !events in
  let pairs =
    List.map (fun (inc, bound) -> Printf.sprintf "%h %h" inc bound) events
  in
  let last = List.nth pairs (List.length pairs - 1) in
  Alcotest.(check (list string)) "incumbent and bound sequence"
    fig6a_path_pins
    [ Printf.sprintf "events %d digest %s last %s" (List.length pairs)
        (Digest.to_hex (Digest.string (String.concat "\n" pairs)))
        last ]

let test_update_heavy_advisor () =
  let w =
    Workload.Gen.hom schema ~n:8 ~seed:13
    |> Workload.Gen.with_updates schema ~fraction:0.6 ~seed:13
  in
  let r = Cophy.Advisor.advise schema w ~budget_fraction:0.4 in
  Alcotest.(check bool) "budget respected" true
    (Storage.Config.total_size schema r.Cophy.Advisor.config
     <= (0.4 *. db_size) +. 1.0);
  (* the estimated cost includes maintenance, so it can never be worse
     than selecting nothing *)
  Alcotest.(check bool) "never worse than empty" true
    (objective r <= no_index_cost r +. 1e-6)

(* A mandatory index whose singleton saving is negative (maintenance
   only, on the update-heavy workload): the empty selection violates the
   Ge row, so it must never stand as the incumbent, and repair must not
   drop the index.  The solver reaches branch and bound's optimum and
   certifies; below the index's size the z polytope is empty and the
   solver raises [Infeasible]. *)
let test_decomposition_mandatory_row () =
  let w =
    Workload.Gen.hom schema ~n:8 ~seed:13
    |> Workload.Gen.with_updates schema ~fraction:0.6 ~seed:13
  in
  let e = env () in
  let cache = Inum.build_workload e w in
  let cands = Array.of_list (Cophy.Cgen.generate w) in
  let sp = Cophy.Sproblem.build e cache cands in
  let ix = Storage.Index.create ~table:"lineitem" [ "l_discount" ] in
  let size = Storage.Index.size_bytes schema ix in
  let z_rows =
    (Constr.split schema cands [ Constr.Mandatory [ ix ] ]).Constr.z_rows
  in
  let budget = 1.001 *. size in
  let decomposed =
    Cophy.Solver.solve
      ~options:{ Cophy.Solver.default_options with Cophy.Solver.certify = true }
      sp ~budget ~z_rows ~block_caps:[]
  in
  Alcotest.(check bool) "mandatory index selected" true
    (Storage.Config.mem ix decomposed.Cophy.Solver.config);
  Alcotest.(check (float 1e-6)) "objective = branch and bound's"
    (bb_optimum ~z_rows sp ~budget) decomposed.Cophy.Solver.objective;
  match
    Cophy.Solver.solve sp ~budget:(0.5 *. size) ~z_rows ~block_caps:[]
  with
  | exception Cophy.Solver.Infeasible _ -> ()
  | _ -> Alcotest.fail "expected Infeasible below the index's size"

let test_pruning_ablation_same_optimum () =
  (* dominance pruning is lossless: both problems have the same optimum *)
  let e = env () in
  let w = small_workload ~n:3 ~seed:11 () in
  let cache = Inum.build_workload e w in
  let cands =
    Cophy.Cgen.generate w |> List.filteri (fun i _ -> i mod 11 = 0)
    |> Array.of_list
  in
  let sp = Cophy.Sproblem.build e cache cands in
  let sp' = Cophy.Sproblem.build ~prune:false e cache cands in
  let budget = 0.4 *. db_size in
  Alcotest.(check bool) "unpruned is bigger" true
    (Cophy.Sproblem.variable_count sp' >= Cophy.Sproblem.variable_count sp);
  Alcotest.(check (float 1.0)) "same exhaustive optimum"
    (exhaustive_optimum sp ~budget)
    (exhaustive_optimum sp' ~budget)

(* --- Solver: feasibility, time limit, certification --- *)

let test_solver_infeasible () =
  let _, _, _, sp = build_problem () in
  let z_rows =
    [ { Constr.row_coeffs = [ (0, 1.0) ]; row_cmp = Constr.Ge; row_rhs = 1.0;
        row_name = "need0" };
      { Constr.row_coeffs = [ (0, 1.0) ]; row_cmp = Constr.Le; row_rhs = 0.0;
        row_name = "forbid0" } ]
  in
  let offenders z_rows =
    match Cophy.Solver.solve sp ~budget:db_size ~z_rows ~block_caps:[] with
    | exception Cophy.Solver.Infeasible names -> names
    | _ -> Alcotest.fail "expected Infeasible"
  in
  (* each row is satisfiable alone; only their conjunction is not *)
  Alcotest.(check (list string)) "conjunction"
    [ "constraint conjunction (no single offender)" ]
    (offenders z_rows);
  (* a row infeasible on its own over 0/1 bounds is named by the
     per-row probe *)
  let need_two =
    { Constr.row_coeffs = [ (1, 1.0) ]; row_cmp = Constr.Ge; row_rhs = 2.0;
      row_name = "need_two" }
  in
  Alcotest.(check (list string)) "single offender" [ "need_two" ]
    (offenders (z_rows @ [ need_two ]))

(* The feasibility check needs no LP when the empty selection is
   feasible: with no z rows and a nonnegative budget a solve runs no
   simplex at all.  A negative budget, or z rows, still go through the
   LP: only its proof names an offender — [storage] when the budget
   alone cannot hold, with or without z rows — or gives the "no single
   offender" verdict (a search that merely finds nothing says "not
   proven impossible"). *)
let test_solver_feasibility_closed_form () =
  let _, _, _, sp = build_problem () in
  let lp_counts f =
    Runtime.Trace.reset ();
    Runtime.Trace.enable ();
    Fun.protect ~finally:Runtime.Trace.disable (fun () ->
        f ();
        List.fold_left
          (fun acc (name, v) ->
            if String.starts_with ~prefix:"simplex." name then acc + v
            else acc)
          0 (Runtime.Trace.counters ()))
  in
  Alcotest.(check int) "no rows, budget >= 0: no LP" 0
    (lp_counts (fun () ->
         ignore
           (Cophy.Solver.solve sp ~budget:(0.5 *. db_size) ~z_rows:[]
              ~block_caps:[])));
  let verdict ~budget ~z_rows =
    match Cophy.Solver.solve sp ~budget ~z_rows ~block_caps:[] with
    | exception Cophy.Solver.Infeasible names -> names
    | _ -> Alcotest.fail "expected Infeasible"
  in
  let proof = [ "constraint conjunction (no single offender)" ] in
  Alcotest.(check (list string)) "budget -1 goes through the LP"
    [ "storage" ]
    (verdict ~budget:(-1.0) ~z_rows:[]);
  Alcotest.(check (list string)) "budget -1 names storage beside a z row"
    [ "storage" ]
    (verdict ~budget:(-1.0)
       ~z_rows:
         [ { Constr.row_coeffs = [ (0, 1.0) ]; row_cmp = Constr.Le;
             row_rhs = 0.0; row_name = "forbid0" } ]);
  Alcotest.(check (list string)) "a z row goes through the LP" proof
    (verdict ~budget:db_size
       ~z_rows:
         [ { Constr.row_coeffs = [ (0, 1.0); (1, 1.0) ]; row_cmp = Constr.Ge;
             row_rhs = 1.5; row_name = "pair" };
           { Constr.row_coeffs = [ (0, 1.0); (1, 1.0) ]; row_cmp = Constr.Le;
             row_rhs = 0.5; row_name = "pair_off" } ])

(* A negative storage budget is proven infeasible by the simplex, and
   the proof shows in a trace: one solve for the check and one for the
   offender re-test of the storage row. *)
let test_solver_infeasible_counted () =
  let _, _, _, sp = build_problem () in
  Runtime.Trace.reset ();
  Runtime.Trace.enable ();
  let names =
    Fun.protect ~finally:Runtime.Trace.disable (fun () ->
        match
          Cophy.Solver.solve sp ~budget:(-1.0) ~z_rows:[] ~block_caps:[]
        with
        | exception Cophy.Solver.Infeasible names -> names
        | _ -> Alcotest.fail "expected Infeasible")
  in
  Alcotest.(check (list string)) "storage named" [ "storage" ] names;
  Alcotest.(check int) "simplex.solves" 2
    (Option.value ~default:0
       (List.assoc_opt "simplex.solves" (Runtime.Trace.counters ())))

(* A search stopped before its first iteration still answers: with a
   zero time limit the decomposition returns the incumbent its greedy
   construction (and the local search after it) found, with no bound
   proven, so the gap is reported open. *)
let test_solver_time_limit () =
  let w = cap_workload () in
  let budget = 0.5 *. db_size in
  let sp =
    Cophy.Interactive.problem (Cophy.Interactive.create schema w ~budget)
  in
  let r =
    Cophy.Solver.solve
      ~options:
        { Cophy.Solver.default_options with Cophy.Solver.time_limit = 0.0 }
      sp ~budget ~z_rows:[] ~block_caps:[]
  in
  let empty = Array.make (Cophy.Sproblem.num_candidates sp) false in
  Alcotest.(check bool) "a greedy selection" true
    (Storage.Config.cardinal r.Cophy.Solver.config > 0);
  Alcotest.(check (float 0.0)) "its objective"
    (Cophy.Sproblem.eval sp r.Cophy.Solver.z) r.Cophy.Solver.objective;
  Alcotest.(check bool) "better than no index" true
    (r.Cophy.Solver.objective < Cophy.Sproblem.eval sp empty);
  Alcotest.(check bool) "bound below it" true
    (r.Cophy.Solver.bound <= r.Cophy.Solver.objective);
  Alcotest.(check bool) "the gap is reported open" true
    (r.Cophy.Solver.gap
     > Cophy.Solver.default_options.Cophy.Solver.gap_tolerance)

let test_solver_paths_agree () =
  let _, _, _, sp = build_problem ~n:3 ~cand_cap:4 () in
  let budget = 0.5 *. db_size in
  let r =
    Cophy.Solver.solve
      ~options:{ Cophy.Solver.default_options with
                 Cophy.Solver.gap_tolerance = 1e-4 }
      sp ~budget ~z_rows:[] ~block_caps:[]
  in
  Alcotest.(check bool) "near branch and bound's optimum" true
    (r.Cophy.Solver.objective <= (bb_optimum sp ~budget *. 1.10) +. 1.0)

(* Debug-mode certification: the selection passes Lp.Analyze
   certification, and enabling it changes no answer. *)
let test_solver_certified () =
  let _, _, _, sp = build_problem ~n:3 ~cand_cap:4 () in
  let budget = 0.5 *. db_size in
  let run certify =
    Cophy.Solver.solve
      ~options:{ Cophy.Solver.default_options with
                 Cophy.Solver.gap_tolerance = 1e-6; certify }
      sp ~budget ~z_rows:[] ~block_caps:[]
  in
  let plain = run false and certified = run true in
  Alcotest.(check (float 0.0)) "certification changes nothing"
    plain.Cophy.Solver.objective certified.Cophy.Solver.objective;
  Alcotest.(check bool) "selection certified non-trivially" true
    (Array.length certified.Cophy.Solver.z > 0)

(* --- Advisor pipeline --- *)

let test_advisor_end_to_end () =
  let w = small_workload ~n:8 () in
  let r = Cophy.Advisor.advise schema w ~budget_fraction:0.5 in
  Alcotest.(check bool) "some indexes chosen" true
    (Storage.Config.cardinal r.Cophy.Advisor.config > 0);
  Alcotest.(check bool) "improves" true (objective r < no_index_cost r);
  Alcotest.(check bool) "within budget" true
    (Storage.Config.total_size schema r.Cophy.Advisor.config
     <= (0.5 *. db_size) +. 1.0);
  Alcotest.(check bool) "timings recorded" true
    (Cophy.Advisor.total_seconds r > 0.0)

(* The recommendation's [problem] is the BIP the final re-solve ran on,
   so it prices the recommended configuration at exactly the reported
   objective — also when probe-budget refine rounds rebuilt it after the
   first solve.  With an unlimited budget no round runs and the no-index
   baseline is the eager pipeline's (3457463.4512417167). *)
let test_advisor_problem_after_refine () =
  let w = Workload.Gen.hom schema ~n:20 ~seed:7 in
  let r = Cophy.Advisor.advise ~probe_budget:16 schema w ~budget_fraction:0.5 in
  let sp = r.Cophy.Advisor.problem in
  let z =
    Array.map
      (fun c -> Storage.Config.mem c r.Cophy.Advisor.config)
      sp.Cophy.Sproblem.candidates
  in
  Alcotest.(check bool) "problem prices the config at the objective" true
    (Runtime.Fx.approx_rel (Cophy.Sproblem.eval sp z) (objective r));
  let u = Cophy.Advisor.advise schema w ~budget_fraction:0.5 in
  Alcotest.(check (float 0.0)) "unlimited-budget no-index cost"
    0x1.a60dbb9c249ep+21 (no_index_cost u)

let test_udf_constraint () =
  (* black-box rule: at most 3 indexes total (appendix E.5 mechanism) *)
  let w = small_workload ~n:6 () in
  let cap3 =
    Constr.Udf
      {
        udf_name = "at most 3 indexes";
        accepts =
          (fun _ z ->
            Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 z <= 3);
      }
  in
  let r =
    Cophy.Advisor.advise
      ~constraints:[ cap3 ]
      schema w ~budget_fraction:1.0
  in
  Alcotest.(check bool) "udf respected" true
    (Storage.Config.cardinal r.Cophy.Advisor.config <= 3);
  (* an unsatisfiable black box raises *)
  let never =
    Constr.Udf { udf_name = "never"; accepts = (fun _ _ -> false) }
  in
  match
    Cophy.Advisor.advise
      ~constraints:[ never ]
      schema w ~budget_fraction:1.0
  with
  | exception Cophy.Solver.Infeasible _ -> ()
  | _ -> Alcotest.fail "expected Infeasible for unsatisfiable UDF"

(* --- Constraints on the one path --- *)

(* Per capped block of [sp]: its cost under [z] and its cap, priced as
   the session prices it (factor x INUM cost at the baseline). *)
let block_costs_and_caps ?(baseline = Storage.Config.empty)
    (sp : Cophy.Sproblem.t) cache ~factor z =
  List.concat_map
    (fun ((q : Ast.query), _, inum) ->
      let cap = factor *. Inum.cost inum baseline in
      Array.to_list sp.Cophy.Sproblem.blocks
      |> List.filter (fun (b : Cophy.Sproblem.block) ->
             b.Cophy.Sproblem.qid = q.Ast.query_id)
      |> List.map (fun b -> (Cophy.Sproblem.block_cost_z b z, cap)))
    cache.Inum.selects

(* Query-cost caps in the decomposition: hom seed 11 at 0.6x under the
   primary-key baseline, a 0.9 cap on every statement.  Every capped
   block meets its cap (certified inside the solver too), and the
   objective is within 3% of branch and bound's over the BIP with cap
   rows (311,083 at n=4 and 1,011,934 at n=8, which took 7 s and 32 s
   to prove within 2.3% and 2.9%). *)
let test_decomposition_caps () =
  let baseline = Advisors.Eval.baseline_config () in
  let factor = 0.9 in
  List.iter
    (fun (n, reference) ->
      let w = Workload.Gen.hom schema ~n ~seed:11 in
      let r =
        Cophy.Advisor.advise ~constraints:[ Constr.for_all_queries factor ]
          ~solver_options:
            { Cophy.Solver.default_options with Cophy.Solver.certify = true }
          ~baseline schema w ~budget_fraction:0.6
      in
      let sp = r.Cophy.Advisor.problem in
      let z = Cophy.Sproblem.z_of_config sp r.Cophy.Advisor.config in
      let capped =
        block_costs_and_caps ~baseline sp r.Cophy.Advisor.cache ~factor z
      in
      Alcotest.(check int) (Printf.sprintf "n=%d: every statement capped" n) n
        (List.length capped);
      List.iter
        (fun (cost, cap) ->
          Alcotest.(check bool)
            (Printf.sprintf "n=%d: block cost %.1f <= cap %.1f" n cost cap)
            true (cost <= cap))
        capped;
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: objective %.1f within 3%% of %.1f" n
           (objective r) reference)
        true
        (objective r <= 1.03 *. reference))
    [ (4, 311_083.0); (8, 1_011_934.0) ]

(* Capped problems: 0.5x under the empty baseline, 0.6x under the
   primary-key baseline; each selection must meet every cap. *)
let test_query_cost_cap_holds () =
  let w = cap_workload () in
  let factor = 0.9 in
  List.iter
    (fun (baseline, budget_fraction) ->
      let r =
        Cophy.Advisor.advise ~constraints:[ Constr.for_all_queries factor ]
          ~baseline schema w ~budget_fraction
      in
      let sp = r.Cophy.Advisor.problem in
      let z = Cophy.Sproblem.z_of_config sp r.Cophy.Advisor.config in
      let capped =
        block_costs_and_caps ~baseline sp r.Cophy.Advisor.cache ~factor z
      in
      Alcotest.(check int) "every query is capped" 3 (List.length capped);
      List.iter
        (fun (cost, cap) ->
          Alcotest.(check bool)
            (Printf.sprintf "block cost %.1f <= cap %.1f" cost cap)
            true
            (cost <= cap *. (1.0 +. 1e-9)))
        capped)
    [ (Storage.Config.empty, 0.5); (Advisors.Eval.baseline_config (), 0.6) ]

(* Every constraint takes the one path.  A 0.5 cap that fails even with
   every candidate selected is named by the feasibility check; a 0.9 cap
   next to a black box (at most three indexes; no two meet the caps) gets
   a selection that meets
   both, from a session and from [Advisor.advise]. *)
let test_caps_and_gates_routed () =
  let w = cap_workload () in
  let budget = 0.5 *. db_size in
  let session =
    Cophy.Interactive.create ~constraints:[ Constr.for_all_queries 0.5 ] schema
      w ~budget
  in
  let sp = Cophy.Interactive.problem session in
  let all = Array.make (Cophy.Sproblem.num_candidates sp) true in
  Alcotest.(check bool) "a 0.5 cap cannot hold" true
    (List.exists
       (fun (cost, cap) -> cost > cap)
       (block_costs_and_caps sp (Cophy.Interactive.cache session) ~factor:0.5
          all));
  (match Cophy.Interactive.retune session with
  | exception Cophy.Solver.Infeasible names ->
      Alcotest.(check (list string)) "names q1's cap" [ "cost_cap_1" ] names
  | r ->
      Alcotest.failf "retune dropped the cap: %d indexes"
        (Storage.Config.cardinal r.Cophy.Solver.config));
  let at_most_three _ z =
    Array.fold_left (fun n b -> if b then n + 1 else n) 0 z <= 3
  in
  let both =
    [ Constr.for_all_queries 0.9;
      Constr.Udf
        { udf_name = "at most three indexes"; accepts = at_most_three } ]
  in
  let holds what sp cache (config : Storage.Config.t) =
    let z = Cophy.Sproblem.z_of_config sp config in
    Alcotest.(check bool) (what ^ ": at most three indexes") true
      (Storage.Config.cardinal config <= 3);
    List.iter
      (fun (cost, cap) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: block cost %.1f <= cap %.1f" what cost cap)
          true (cost <= cap))
      (block_costs_and_caps sp cache ~factor:0.9 z)
  in
  let s = Cophy.Interactive.create ~constraints:both schema w ~budget in
  let r = Cophy.Interactive.retune s in
  holds "retune" (Cophy.Interactive.problem s) (Cophy.Interactive.cache s)
    r.Cophy.Solver.config;
  let a =
    Cophy.Advisor.advise ~constraints:both schema w ~budget_fraction:0.5
  in
  holds "advise" a.Cophy.Advisor.problem a.Cophy.Advisor.cache
    a.Cophy.Advisor.config

(* [Advisor.advise] defaults to the session's constraints, the implicit
   clustered-index rule among them.  Both clustered candidates pay off
   on their own, and without the rule both are picked. *)
let test_advisor_clustered_rule () =
  let w = small_workload () in
  let clustered col =
    Storage.Index.create ~clustered:true ~table:"customer" [ col ]
  in
  let c1 = clustered "c_mktsegment" and c2 = clustered "c_nationkey" in
  let advise ?constraints candidates =
    Cophy.Advisor.advise ?constraints ~candidates schema w ~budget_fraction:1.0
  in
  let picked (r : Cophy.Advisor.recommendation) =
    List.length
      (List.filter (fun c -> Storage.Config.mem c r.Cophy.Advisor.config)
         [ c1; c2 ])
  in
  List.iter
    (fun c ->
      let r = advise [ c ] in
      Alcotest.(check bool) "pays off alone" true
        (objective r < no_index_cost r))
    [ c1; c2 ];
  Alcotest.(check int) "no rule: both" 2
    (picked (advise ~constraints:[] [ c1; c2 ]));
  Alcotest.(check int) "default: at most one" 1 (picked (advise [ c1; c2 ]))

(* The probe-budget pins on hom n=100 at 0.5x.  Unlimited probing is
   the eager pipeline bit for bit: the certified objective is pinned and
   no regret is left, at every job count.  A per-query budget of 16
   spends at least 3x fewer probes than eager probing did (3145) and
   certifies an objective no worse than the unlimited one; truncation
   of template combinations does not depend on the budget. *)
let test_advisor_probe_budget_legs () =
  let w = Workload.Gen.hom schema ~n:100 ~seed:7 in
  let advise ?probe_budget jobs =
    Cophy.Advisor.advise ~jobs
      ~solver_options:
        { Cophy.Solver.default_options with Cophy.Solver.certify = true }
      ?probe_budget schema w ~budget_fraction:0.5
  in
  let report r = r.Cophy.Advisor.report in
  let unlimited = advise 1 in
  List.iter
    (fun (jobs, r) ->
      let ctx = Printf.sprintf "unlimited, jobs %d" jobs in
      Alcotest.(check (float 1e-6))
        (ctx ^ ": objective") 9667349.718036 (report r).Cophy.Solver.objective;
      Alcotest.(check (float 0.0))
        (ctx ^ ": probe_regret") 0.0 (report r).Cophy.Solver.probe_regret)
    [ (1, unlimited); (4, advise 4) ];
  let budgeted = advise ~probe_budget:16 1 in
  let probes = Inum.total_init_calls budgeted.Cophy.Advisor.cache in
  Alcotest.(check bool)
    (Printf.sprintf "budget 16: %d probes, 3x under eager's 3145" probes)
    true
    (probes * 3 <= 3145);
  Alcotest.(check bool) "budget 16: objective no worse than unlimited" true
    ((report budgeted).Cophy.Solver.objective
    <= (report unlimited).Cophy.Solver.objective +. 1e-6);
  Alcotest.(check int) "combos_truncated independent of the budget"
    (Inum.cache_truncated unlimited.Cophy.Advisor.cache)
    (Inum.cache_truncated budgeted.Cophy.Advisor.cache)

(* --- Pareto sweep --- *)

let test_pareto_sweep () =
  let _, _, _, sp = build_problem ~n:6 () in
  let metric = Cophy.Pareto.storage_metric sp in
  let points, solves = Cophy.Pareto.sweep ~epsilon:0.05 sp ~metric_coeff:metric in
  Alcotest.(check bool) "at least endpoints" true (List.length points >= 2);
  Alcotest.(check bool) "solver invoked per point" true (solves >= 2);
  (* Pareto shape: as metric (storage) grows, cost must not grow *)
  let rec check = function
    | (a : Cophy.Pareto.point) :: (b : Cophy.Pareto.point) :: rest ->
        Alcotest.(check bool) "sorted by metric" true (a.Cophy.Pareto.metric <= b.Cophy.Pareto.metric);
        Alcotest.(check bool) "cost non-increasing along curve" true
          (b.Cophy.Pareto.cost <= a.Cophy.Pareto.cost +. 1e-3);
        check (b :: rest)
    | _ -> ()
  in
  check points

(* Pareto.sweep pinned: W_hom n=20 seed 7 over every generated
   candidate, storage as the metric, the default sweep — each point's
   lambda, cost and metric as hex floats with its selection, and the
   solve count. *)
let pareto_sweep_pins =
  [
    "solves 5";
    "lambda 0x1.0624dd2f1a9fcp-10 cost 0x1.a60dbb9c249ep+21 metric 0x0p+0 z []";
    "lambda 0x1.fefba330e1351p-1 cost 0x1.3c216d8e5a145p+21 \
     metric 0x1.14fep+28 z [12;52;83;126]";
    "lambda 0x1.ff7ced916872bp-1 cost 0x1.8cca10552bad5p+20 \
     metric 0x1.b6f3p+29 z [9;12;20;34;52;80;81;96;116;126]";
  ]

let test_pareto_sweep_pins () =
  let e = env () in
  let w = Workload.Gen.hom schema ~n:20 ~seed:7 in
  let cache = Inum.build_workload e w in
  let cands = Array.of_list (Cophy.Cgen.generate w) in
  let sp = Cophy.Sproblem.build e cache cands in
  let points, solves =
    Cophy.Pareto.sweep sp ~metric_coeff:(Cophy.Pareto.storage_metric sp)
  in
  let show (p : Cophy.Pareto.point) =
    let z = p.Cophy.Pareto.z in
    Printf.sprintf "lambda %h cost %h metric %h z [%s]" p.Cophy.Pareto.lambda
      p.Cophy.Pareto.cost p.Cophy.Pareto.metric
      (String.concat ";"
         (List.filter_map
            (fun a -> if z.(a) then Some (string_of_int a) else None)
            (List.init (Array.length z) Fun.id)))
  in
  Alcotest.(check (list string)) "points and solves" pareto_sweep_pins
    (Printf.sprintf "solves %d" solves :: List.map show points)

let test_pareto_chord_vs_dense () =
  (* the chord sweep's points must not be dominated by a dense lambda
     sweep (same solver, 21 evenly spaced lambdas) *)
  let _, _, _, sp = build_problem ~n:4 () in
  let metric = Cophy.Pareto.storage_metric sp in
  let chord_points, _ = Cophy.Pareto.sweep ~epsilon:0.02 sp ~metric_coeff:metric in
  let dense =
    List.init 21 (fun i ->
        let lambda = max 0.001 (min 0.999 (float_of_int i /. 20.0)) in
        let p, _ =
          Cophy.Pareto.scalarized_solve sp ~metric_coeff:metric ~lambda
            ~warm:None
        in
        p)
  in
  List.iter
    (fun (cp : Cophy.Pareto.point) ->
      let dominated =
        List.exists
          (fun (dp : Cophy.Pareto.point) ->
            dp.Cophy.Pareto.metric < cp.Cophy.Pareto.metric *. 0.98 -. 1.0
            && dp.Cophy.Pareto.cost < cp.Cophy.Pareto.cost *. 0.98 -. 1.0)
          dense
      in
      Alcotest.(check bool) "chord point not strictly dominated" false dominated)
    chord_points

(* --- Interactive sessions --- *)

let test_interactive_retune () =
  let w = small_workload ~n:6 () in
  let session =
    Cophy.Interactive.create schema w ~budget:(0.5 *. db_size)
  in
  let r1 = Cophy.Interactive.retune session in
  (* adding fresh candidates and retuning must not make things worse *)
  let extra = Cophy.Cgen.random_candidates schema ~n:10 ~seed:99 in
  Cophy.Interactive.add_candidates session extra;
  let r2 = Cophy.Interactive.retune session in
  Alcotest.(check bool) "more candidates never hurt" true
    (r2.Cophy.Solver.objective <= (r1.Cophy.Solver.objective *. 1.05) +. 1.0);
  (* deterministic workload extension *)
  Cophy.Interactive.add_statements session (Workload.Gen.hom schema ~n:2 ~seed:77);
  let r3 = Cophy.Interactive.retune session in
  Alcotest.(check bool) "still feasible" true
    (r3.Cophy.Solver.objective > 0.0)

let test_interactive_budget_change () =
  let w = small_workload ~n:6 () in
  let session = Cophy.Interactive.create schema w ~budget:(1.0 *. db_size) in
  let rich = Cophy.Interactive.retune session in
  Cophy.Interactive.set_budget session (0.1 *. db_size);
  let poor = Cophy.Interactive.retune session in
  Alcotest.(check bool) "tighter budget no better" true
    (poor.Cophy.Solver.objective >= rich.Cophy.Solver.objective -. 1e-6);
  Alcotest.(check bool) "tight budget respected" true
    (Storage.Config.total_size schema poor.Cophy.Solver.config
     <= (0.1 *. db_size) +. 1.0)

(* Constraints are resolved at every retune, not built into the
   structured BIP: changing them keeps the session's problem (physically),
   and the retune answers as a fresh session created with them does. *)
let test_interactive_set_constraints () =
  let w = small_workload ~n:6 () in
  let budget = 0.5 *. db_size in
  let session = Cophy.Interactive.create schema w ~budget in
  let first = Cophy.Interactive.retune session in
  let sp = Cophy.Interactive.problem session in
  let banned = List.hd (Storage.Config.to_list first.Cophy.Solver.config) in
  let cs = [ Constr.At_most_one_clustered; Constr.Forbidden [ banned ] ] in
  Cophy.Interactive.set_constraints session cs;
  Alcotest.(check bool) "problem kept" true
    (Cophy.Interactive.problem session == sp);
  let warm = Cophy.Interactive.retune session in
  Alcotest.(check bool) "retune reuses the problem" true
    (Cophy.Interactive.problem session == sp);
  Alcotest.(check bool) "forbidden index dropped" false
    (Storage.Config.mem banned warm.Cophy.Solver.config);
  let fresh =
    Cophy.Interactive.retune
      (Cophy.Interactive.create ~constraints:cs schema w ~budget)
  in
  Alcotest.(check (float 0.0)) "objective = fresh session"
    fresh.Cophy.Solver.objective warm.Cophy.Solver.objective;
  Alcotest.(check bool) "config = fresh session" true
    (Storage.Config.equal fresh.Cophy.Solver.config warm.Cophy.Solver.config)

(* A warm retune after a frequency drift must land on the same certified
   objective as solving the drifted workload from scratch — across jobs
   and workload densities.  [certify:true] makes the solver certify each
   recommendation against the z polytope, so a pass here covers the
   serving loop's correctness contract. *)
let test_interactive_warm_equals_scratch () =
  let drifted_weight i w = if i mod 2 = 0 then w *. 3.0 else w *. 0.5 in
  List.iter
    (fun jobs ->
      List.iter
        (fun n ->
          let ctx = Printf.sprintf "jobs=%d n=%d" jobs n in
          let budget = 0.5 *. db_size in
          let w = Workload.Gen.hom schema ~n ~seed:21 in
          let options =
            { Cophy.Solver.default_options with Cophy.Solver.certify = true }
          in
          let session = Cophy.Interactive.create ~jobs schema w ~budget in
          ignore (Cophy.Interactive.retune ~options session);
          List.iteri
            (fun i { Ast.stmt; weight } ->
              Cophy.Interactive.set_weight session (Ast.statement_id stmt)
                (drifted_weight i weight))
            w;
          let warm = Cophy.Interactive.retune ~options session in
          let w' =
            List.mapi
              (fun i wt -> { wt with Ast.weight = drifted_weight i wt.Ast.weight })
              w
          in
          let scratch_session =
            Cophy.Interactive.create ~jobs
              ~candidates:(Cophy.Interactive.candidates session)
              schema w' ~budget
          in
          let scratch = Cophy.Interactive.retune ~options scratch_session in
          let rel_diff =
            Float.abs (warm.Cophy.Solver.objective -. scratch.Cophy.Solver.objective)
            /. Float.max 1.0 scratch.Cophy.Solver.objective
          in
          Alcotest.(check bool)
            (ctx ^ ": warm retune = scratch objective") true (rel_diff <= 1e-9))
        [ 4; 9 ])
    [ 1; 4 ]

(* --- Parallel determinism (jobs must not change any result) --- *)

(* Subgradient iteration order, incumbents and the final recommendation
   must not depend on domain scheduling: per-block subproblems are
   independent and every float reduction runs in fixed block order. *)
let test_parallel_determinism () =
  let w = Workload.Gen.hom schema ~n:30 ~seed:5 in
  let run jobs =
    let e = env () in
    let cache = Inum.build_workload ~jobs e w in
    let cands = Array.of_list (Cophy.Cgen.generate w) in
    let sp = Cophy.Sproblem.build e cache cands in
    let options =
      {
        Cophy.Solver.default_options with
        Cophy.Solver.max_iters = 60;
        jobs;
      }
    in
    let r =
      Cophy.Solver.solve ~options sp ~budget:(0.5 *. db_size)
        ~z_rows:[] ~block_caps:[]
    in
    (cache, r)
  in
  let c1, r1 = run 1 in
  let c4, r4 = run 4 in
  Alcotest.(check int) "total_init_calls identical" (Inum.total_init_calls c1)
    (Inum.total_init_calls c4);
  Alcotest.(check int) "statement count" (List.length c1.Inum.selects)
    (List.length c4.Inum.selects);
  List.iter2
    (fun (q1, w1, i1) (q4, w4, i4) ->
      Alcotest.(check int) "statement order" q1.Ast.query_id q4.Ast.query_id;
      Alcotest.(check (float 0.0)) "weight" w1 w4;
      Alcotest.(check int) "template count" (Inum.template_count i1)
        (Inum.template_count i4);
      Alcotest.(check int) "init calls" (Inum.init_calls i1)
        (Inum.init_calls i4))
    c1.Inum.selects c4.Inum.selects;
  Alcotest.(check (float 0.0)) "objective identical" r1.Cophy.Solver.objective
    r4.Cophy.Solver.objective;
  Alcotest.(check (float 0.0)) "bound identical" r1.Cophy.Solver.bound
    r4.Cophy.Solver.bound;
  Alcotest.(check int) "iteration count identical"
    r1.Cophy.Solver.iterations r4.Cophy.Solver.iterations;
  Alcotest.(check (array bool)) "selection identical" r1.Cophy.Solver.z
    r4.Cophy.Solver.z

let test_parallel_determinism_advisor () =
  let w = small_workload ~n:8 ~seed:11 () in
  let run jobs = Cophy.Advisor.advise ~jobs schema w ~budget_fraction:0.4 in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check (float 0.0)) "objective identical"
    r1.Cophy.Advisor.report.Cophy.Solver.objective
    r4.Cophy.Advisor.report.Cophy.Solver.objective;
  Alcotest.(check bool) "config identical" true
    (Storage.Config.equal r1.Cophy.Advisor.config r4.Cophy.Advisor.config)

(* The decomposition's LP z subproblem (forced by a z row) must be
   job-count invariant too. *)
let test_jobs_determinism_decomposition () =
  let w = Workload.Gen.hom schema ~n:30 ~seed:5 in
  let run jobs =
    let e = env () in
    let cache = Inum.build_workload ~jobs e w in
    let cands = Array.of_list (Cophy.Cgen.generate w) in
    let sp = Cophy.Sproblem.build e cache cands in
    let options =
      {
        Cophy.Solver.default_options with
        Cophy.Solver.max_iters = 40;
        jobs;
      }
    in
    (* a z row forces the decomposition through the LP z subproblem *)
    let z_rows =
      [
        {
          Constr.row_name = "at-most-6";
          row_coeffs = List.init (Array.length cands) (fun a -> (a, 1.0));
          row_cmp = Constr.Le;
          row_rhs = 6.0;
        };
      ]
    in
    Cophy.Solver.solve ~options sp ~budget:(0.5 *. db_size) ~z_rows
      ~block_caps:[]
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check (array bool)) "selection identical" r1.Cophy.Solver.z
    r4.Cophy.Solver.z;
  Alcotest.(check (float 0.0)) "objective identical" r1.Cophy.Solver.objective
    r4.Cophy.Solver.objective

(* Guard: the Lagrangian loop never calls branch and bound.  With tracing
   on, a decomposed solve on hom n=30 — once on the greedy knapsack path
   (no z rows), once on the LP z subproblem (the at-most-6 row) — leaves
   every [bb.*] counter at 0 while the loop itself iterates. *)
let test_decomposition_never_branches () =
  let w = Workload.Gen.hom schema ~n:30 ~seed:5 in
  let e = env () in
  let cache = Inum.build_workload e w in
  let cands = Array.of_list (Cophy.Cgen.generate w) in
  let sp = Cophy.Sproblem.build e cache cands in
  let options =
    { Cophy.Solver.default_options with Cophy.Solver.max_iters = 40 }
  in
  let at_most_6 =
    {
      Constr.row_name = "at-most-6";
      row_coeffs = List.init (Array.length cands) (fun a -> (a, 1.0));
      row_cmp = Constr.Le;
      row_rhs = 6.0;
    }
  in
  List.iter
    (fun (label, z_rows) ->
      Runtime.Trace.reset ();
      Runtime.Trace.enable ();
      let r =
        Fun.protect ~finally:Runtime.Trace.disable @@ fun () ->
        Cophy.Solver.solve ~options sp ~budget:(0.5 *. db_size) ~z_rows
      ~block_caps:[]
      in
      let counters = Runtime.Trace.counters () in
      let get name = Option.value ~default:0 (List.assoc_opt name counters) in
      Alcotest.(check bool) (label ^ ": the loop ran") true
        (r.Cophy.Solver.iterations > 0
        && get "decomposition.iterations" = r.Cophy.Solver.iterations);
      Alcotest.(check int) (label ^ ": bb.nodes") 0 (get "bb.nodes");
      List.iter
        (fun (name, v) ->
          if String.starts_with ~prefix:"bb." name then
            Alcotest.(check int) (label ^ ": " ^ name) 0 v)
        counters)
    [ ("no z rows", []); ("at-most-6", [ at_most_6 ]) ]

(* Tracing must be pure observation: turning Runtime.Trace on cannot
   change the recommendation, objective, or bound at any job count —
   the spans and counters only ever read the clock and tick atomics,
   never feed back into the pipeline. *)
let test_trace_neutrality () =
  let w = small_workload ~n:8 ~seed:11 () in
  let run ~trace ~jobs =
    Runtime.Trace.reset ();
    if trace then Runtime.Trace.enable ();
    Fun.protect ~finally:Runtime.Trace.disable @@ fun () ->
    Cophy.Advisor.advise ~jobs schema w ~budget_fraction:0.4
  in
  List.iter
    (fun jobs ->
      let label = Printf.sprintf "jobs %d" jobs in
      let off = run ~trace:false ~jobs in
      let on = run ~trace:true ~jobs in
      Alcotest.(check bool)
        (Printf.sprintf "config identical (%s)" label)
        true
        (Storage.Config.equal off.Cophy.Advisor.config on.Cophy.Advisor.config);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "objective bit-identical (%s)" label)
        off.Cophy.Advisor.report.Cophy.Solver.objective
        on.Cophy.Advisor.report.Cophy.Solver.objective;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "bound bit-identical (%s)" label)
        off.Cophy.Advisor.report.Cophy.Solver.bound
        on.Cophy.Advisor.report.Cophy.Solver.bound;
      (* the traced run actually observed something *)
      Alcotest.(check bool)
        (Printf.sprintf "spans recorded (%s)" label)
        true
        (List.length (Runtime.Trace.spans ()) > 0);
      Alcotest.(check bool)
        (Printf.sprintf "counters ticked (%s)" label)
        true
        (List.exists (fun (_, v) -> v > 0) (Runtime.Trace.counters ())))
    [ 1; 4 ]

let () =
  Alcotest.run "cophy"
    [
      ( "cgen",
        [
          Alcotest.test_case "generates" `Quick test_cgen_generates_candidates;
          Alcotest.test_case "covers predicates" `Quick test_cgen_covers_predicates;
          Alcotest.test_case "dba set" `Quick test_cgen_dba_candidates;
          Alcotest.test_case "random candidates" `Quick test_cgen_random;
        ] );
      ( "sproblem",
        [
          Alcotest.test_case "eval = INUM" `Quick test_sproblem_eval_matches_inum;
          Alcotest.test_case "slot pruning lossless form" `Quick test_sproblem_slot_pruning;
          Alcotest.test_case "blocks shared per entry and shape" `Quick
            test_sproblem_shared_blocks;
          QCheck_alcotest.to_alcotest prop_sproblem_one_surface;
          Alcotest.test_case "memoized rebuilds = fresh builds" `Quick
            test_sproblem_memo_exact;
          Alcotest.test_case "memoized rebuilds = fresh builds (drift)" `Quick
            test_sproblem_memo_drift;
          Alcotest.test_case "pricing pins (W_hom n=200)" `Quick
            (test_pricing_pins (Workload.Gen.hom schema ~n:200 ~seed:7)
               hom200_pricing_pins);
          Alcotest.test_case "pricing pins (W_het n=12)" `Quick
            (test_pricing_pins (Workload.Gen.het schema ~n:12 ~seed:7)
               het12_pricing_pins);
          Alcotest.test_case "compress keys by content, not sharing" `Quick
            test_sproblem_compress_sharing;
          Alcotest.test_case "memo reuse counters" `Quick
            test_sproblem_memo_reuse;
          Alcotest.test_case "LP relaxation checked and certified" `Quick
            test_sproblem_lp_relaxation_certified;
        ] );
      ( "theorem1",
        [
          Alcotest.test_case "equivalence" `Slow test_theorem1_equivalence;
          QCheck_alcotest.to_alcotest prop_theorem1_random_instances;
        ] );
      ( "decomposition",
        [
          Alcotest.test_case "budget" `Quick test_decomposition_respects_budget;
          Alcotest.test_case "near exact" `Quick test_decomposition_near_exact;
          Alcotest.test_case "event stream" `Quick test_decomposition_events_monotone;
          Alcotest.test_case "z rows" `Quick test_decomposition_z_rows;
          Alcotest.test_case "time limit" `Quick test_decomposition_time_limit;
          Alcotest.test_case "warm start" `Quick test_decomposition_warm_start;
          Alcotest.test_case "never branches (bb.* counters stay 0)" `Quick
            test_decomposition_never_branches;
          Alcotest.test_case "W_het pins (cold, warm, z rows, accept)" `Quick
            test_decomposition_het_pins;
          Alcotest.test_case "fig6a path pins (W_hom n=20)" `Quick
            test_decomposition_fig6a_path_pins;
          Alcotest.test_case "mandatory row (Ge) never violated" `Quick
            test_decomposition_mandatory_row;
          Alcotest.test_case "query-cost caps (hom n=4, n=8)" `Quick
            test_decomposition_caps;
          QCheck_alcotest.to_alcotest prop_block_cost_z_reference;
          QCheck_alcotest.to_alcotest prop_drop_outside_picks;
          QCheck_alcotest.to_alcotest prop_repair_eval_fused;
          QCheck_alcotest.to_alcotest prop_singleton_savings_one_pass;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "update-heavy advising" `Quick test_update_heavy_advisor;
          Alcotest.test_case "pruning lossless" `Slow test_pruning_ablation_same_optimum;
          Alcotest.test_case "black-box (udf) constraint" `Quick test_udf_constraint;
        ] );
      ( "solver",
        [
          Alcotest.test_case "infeasible" `Quick test_solver_infeasible;
          Alcotest.test_case "feasibility LP only when it can fail" `Quick
            test_solver_feasibility_closed_form;
          Alcotest.test_case "infeasibility LP is counted" `Quick
            test_solver_infeasible_counted;
          Alcotest.test_case "paths agree" `Slow test_solver_paths_agree;
          Alcotest.test_case "certified" `Quick test_solver_certified;
          Alcotest.test_case "time limit returns the seed" `Quick
            test_solver_time_limit;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "query-cost cap holds" `Quick
            test_query_cost_cap_holds;
          Alcotest.test_case "caps and gates routed" `Quick
            test_caps_and_gates_routed;
          Alcotest.test_case "advisor clustered rule" `Quick
            test_advisor_clustered_rule;
        ] );
      ( "advisor",
        [
          Alcotest.test_case "end to end" `Quick test_advisor_end_to_end;
          Alcotest.test_case "problem after refine" `Quick
            test_advisor_problem_after_refine;
          Alcotest.test_case "probe-budget legs pinned (hom n=100)" `Quick
            test_advisor_probe_budget_legs;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "sweep" `Quick test_pareto_sweep;
          Alcotest.test_case "sweep pins (W_hom n=20)" `Quick
            test_pareto_sweep_pins;
          Alcotest.test_case "chord vs dense" `Slow test_pareto_chord_vs_dense;
        ] );
      ( "interactive",
        [
          Alcotest.test_case "retune" `Quick test_interactive_retune;
          Alcotest.test_case "budget change" `Quick test_interactive_budget_change;
          Alcotest.test_case "set_constraints keeps the problem" `Quick
            test_interactive_set_constraints;
          Alcotest.test_case "warm = scratch (jobs x density grid)" `Quick
            test_interactive_warm_equals_scratch;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs 1 = jobs 4 (inum + decomposition)" `Quick
            test_parallel_determinism;
          Alcotest.test_case "jobs 1 = jobs 4 (advisor)" `Quick
            test_parallel_determinism_advisor;
          Alcotest.test_case "jobs grid (decomposition, z rows)" `Quick
            test_jobs_determinism_decomposition;
          Alcotest.test_case "trace on/off x jobs grid" `Quick
            test_trace_neutrality;
        ] );
    ]
