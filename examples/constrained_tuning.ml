(* Constrained physical-design tuning: the Bruno–Chaudhuri-style
   constraint language of the paper's §3.2 / Appendix E.

     dune exec examples/constrained_tuning.exe *)

(* Every case keeps the implicit clustered-index rule next to its own
   constraints; the storage budget is [budget_fraction]. *)
let advise_with label schema workload constraints =
  let r =
    Cophy.Advisor.advise
      ~constraints:(Constr.At_most_one_clustered :: constraints)
      ~baseline:(Advisors.Eval.baseline_config ()) schema workload
      ~budget_fraction:0.6
  in
  Fmt.pr "@.--- %s ---@." label;
  Fmt.pr "indexes=%d  est. cost=%.0f  storage=%.0f MB@."
    (Storage.Config.cardinal r.Cophy.Advisor.config)
    r.Cophy.Advisor.report.Cophy.Solver.objective
    (Storage.Config.total_size schema r.Cophy.Advisor.config /. 1e6);
  r

let () =
  let schema = Catalog.Tpch.schema ~sf:1.0 () in
  let workload = Workload.Gen.hom schema ~n:30 ~seed:11 in

  Fmt.pr "=== Constrained tuning ===@.";

  (* 1. Unconstrained (beyond the implicit clustered rule + budget). *)
  let base = advise_with "storage budget only" schema workload [] in

  (* 2. At most two indexes on lineitem (an Index_sum generator with a
        table filter). *)
  let per_table =
    [ Constr.Index_sum
        { scope = Constr.on_table "lineitem"; metric = Constr.Count;
          cmp = Constr.Le; bound = 2.0 } ]
  in
  let r2 = advise_with "at most 2 lineitem indexes" schema workload per_table in
  Fmt.pr "lineitem indexes chosen: %d@."
    (List.length (Storage.Config.on_table r2.Cophy.Advisor.config "lineitem"));

  (* 3. No wide indexes: every index with >= 4 key columns is banned. *)
  let no_wide =
    [ Constr.Index_sum
        { scope = Constr.wide_indexes 4; metric = Constr.Count;
          cmp = Constr.Le; bound = 0.0 } ]
  in
  let r3 = advise_with "no indexes with >=4 key columns" schema workload no_wide in
  Storage.Config.iter
    (fun ix ->
      assert (List.length (Storage.Index.key_columns ix) < 4))
    r3.Cophy.Advisor.config;
  Fmt.pr "(verified: all chosen indexes are narrow)@.";

  (* 4. A mandatory index the DBA insists on. *)
  let pet_index =
    Storage.Index.create ~table:"part" [ "p_brand"; "p_type" ]
  in
  let r4 =
    Cophy.Advisor.advise ~constraints:[ Constr.Mandatory [ pet_index ] ]
      ~dba_candidates:[ pet_index ]
      ~baseline:(Advisors.Eval.baseline_config ()) schema workload
      ~budget_fraction:0.6
  in
  Fmt.pr "@.--- mandatory DBA index ---@.";
  Fmt.pr "pet index selected? %b@."
    (Storage.Config.mem pet_index r4.Cophy.Advisor.config);

  (* 5. A black-box (UDF) constraint, appendix E.5: the solver search
        rejects selections the predicate refuses. *)
  let balanced =
    Constr.Udf
      {
        udf_name = "at most 2 indexes per table";
        accepts =
          (fun candidates z ->
            let per_table = Hashtbl.create 8 in
            Array.iteri
              (fun i selected ->
                if selected then begin
                  let t = Storage.Index.table candidates.(i) in
                  Hashtbl.replace per_table t
                    (1 + Option.value ~default:0 (Hashtbl.find_opt per_table t))
                end)
              z;
            Hashtbl.fold (fun _ n ok -> ok && n <= 2) per_table true);
      }
  in
  let r5 =
    advise_with "UDF: <=2 indexes per table (black box)" schema workload
      [ balanced ]
  in
  let worst_table =
    List.fold_left
      (fun acc t ->
        max acc (List.length (Storage.Config.on_table r5.Cophy.Advisor.config t)))
      0
      [ "lineitem"; "orders"; "customer"; "part"; "partsupp"; "supplier" ]
  in
  Fmt.pr "max indexes on any table: %d@." worst_table;

  (* 6. A query-cost cap on every statement (a generator over the
        workload): no statement may cost more than [factor] times its
        cost under the baseline.  Caps are multipliers in the Lagrangian
        decomposition, like every other constraint.  At 0.9 the LP
        relaxation of this BIP is already infeasible, so the solver finds
        no selection and says so (without claiming a proof); at 1.0 every
        statement keeps its baseline cost or better. *)
  let baseline = Advisors.Eval.baseline_config () in
  List.iter
    (fun factor ->
      let label =
        Printf.sprintf
          "all %d statements, FOR q IN W: cost(q, X) <= %.2f cost(q, X0)"
          (List.length workload) factor
      in
      match
        advise_with label schema workload [ Constr.for_all_queries factor ]
      with
      | exception Cophy.Solver.Infeasible names ->
          Fmt.pr "@.--- %s ---@.%a@." label
            (Fmt.list ~sep:Fmt.comma Fmt.string) names
      | r ->
          let sp = r.Cophy.Advisor.problem in
          let z = Cophy.Sproblem.z_of_config sp r.Cophy.Advisor.config in
          let worst =
            List.fold_left
              (fun acc ((q : Sqlast.Ast.query), _, inum) ->
                let base = Inum.cost inum baseline in
                Array.fold_left
                  (fun acc (b : Cophy.Sproblem.block) ->
                    if b.Cophy.Sproblem.qid = q.Sqlast.Ast.query_id then
                      max acc (Cophy.Sproblem.block_cost_z b z /. base)
                    else acc)
                  acc sp.Cophy.Sproblem.blocks)
              0.0 r.Cophy.Advisor.cache.Inum.selects
          in
          Fmt.pr "worst cost ratio %.3f (cap %.2f)@." worst factor;
          assert (worst <= factor))
    [ 0.9; 1.0 ];

  (* 7. An infeasible combination is detected up front (Fig. 3, line 1). *)
  (match
     Cophy.Advisor.advise
       ~constraints:
         [ Constr.Mandatory [ pet_index ]; Constr.Forbidden [ pet_index ] ]
       ~dba_candidates:[ pet_index ] schema workload ~budget_fraction:0.6
   with
  | exception Cophy.Solver.Infeasible names ->
      Fmt.pr "@.--- infeasible constraints reported ---@.offenders: %a@."
        (Fmt.list ~sep:Fmt.comma Fmt.string) names
  | _ -> Fmt.pr "ERROR: infeasibility not detected!@.");

  ignore base
