(* The ILP baseline of Papadomanolakis & Ailamaki (SMDB 2007), per §5.1:
   index tuning as a BIP with one variable per *atomic configuration*
   rather than per index.  Since the number of atomic configurations grows
   with the product of per-table candidate counts, the technique must
   prune aggressively before the solver runs — and that pruning (plus the
   much larger BIP) is what makes it an order of magnitude slower than
   CoPhy (Figs. 5, 10).  Like the paper's reimplementation, ours is
   interfaced with INUM so what-if costs are fast, and uses the same
   solver as CoPhy. *)

type options = {
  per_table_cap : int;   (* candidates kept per table per query *)
  per_query_cap : int;   (* atomic configurations kept per query *)
  time_limit : float;
  jobs : int;            (* domains for the INUM build and the B&B rounds *)
}

let default_options =
  { per_table_cap = 4; per_query_cap = 40; time_limit = 600.0; jobs = 1 }

(* Branch and bound stops at the paper's 5% gap, like CoPhy's solver. *)
let gap_tolerance = 0.05

type timings = {
  inum_seconds : float;
  build_seconds : float;   (* enumeration + pruning + BIP building *)
  solve_seconds : float;
}

type result = {
  config : Storage.Config.t;
  objective : float;
  status : Lp.Branch_bound.status;
  timings : timings;
  configurations : int;    (* atomic configurations after pruning *)
}

(* Atomic configurations of a query from per-table shortlists. *)
let enumerate_atomic (inum : Inum.t) (candidates : Storage.Index.t array)
    ~per_table_cap =
  let tables = Inum.tables inum in
  let shortlist table =
    (* top candidates by their best achievable slot cost in any template *)
    let scored =
      Array.to_list candidates
      |> List.filter (fun ix -> Storage.Index.table ix = table)
      |> List.filter_map (fun ix ->
             let best = ref infinity in
             List.iteri
               (fun k _ ->
                 match Inum.gamma inum k ~table (Some ix) with
                 | Some g when g < !best -> best := g
                 | _ -> ())
               (Inum.templates inum);
             if !best < infinity then Some (ix, !best) else None)
      |> List.sort (fun (_, a) (_, b) -> compare a b)
    in
    None
    :: (List.filteri (fun i _ -> i < per_table_cap) scored
       |> List.map (fun (ix, _) -> Some ix))
  in
  let rec cross = function
    | [] -> [ [] ]
    | choices :: rest ->
        let tails = cross rest in
        List.concat_map (fun c -> List.map (fun tl -> c :: tl) tails) choices
  in
  cross (List.map shortlist tables)
  |> List.map (fun picks -> Storage.Config.of_list (List.filter_map Fun.id picks))

let solve ?(options = default_options) (env : Optimizer.Whatif.env)
    (w : Sqlast.Ast.workload) (candidates : Storage.Index.t array) ~budget =
  let schema = env.Optimizer.Whatif.schema in
  let t0 = Runtime.Clock.now () in
  let cache = Inum.build_workload ~jobs:options.jobs env w in
  let t1 = Runtime.Clock.now () in
  (* Enumerate and prune atomic configurations per query, costing each
     with INUM. *)
  let per_query =
    List.map
      (fun (q, weight, inum) ->
        let configs = enumerate_atomic inum candidates ~per_table_cap:options.per_table_cap in
        let costed =
          List.map (fun c -> (c, Inum.cost inum c)) configs
          |> List.sort (fun (_, a) (_, b) -> compare a b)
        in
        (* always keep the empty configuration so the BIP stays feasible *)
        let empty_cost = Inum.cost inum Storage.Config.empty in
        let kept = List.filteri (fun i _ -> i < options.per_query_cap) costed in
        let kept =
          if List.exists (fun (c, _) -> Storage.Config.is_empty c) kept then kept
          else kept @ [ (Storage.Config.empty, empty_cost) ]
        in
        (q, weight, kept))
      cache.Inum.selects
  in
  let nconfigs =
    List.fold_left (fun acc (_, _, ks) -> acc + List.length ks) 0 per_query
  in
  (* Build the BIP: y per (query, configuration); z per index. *)
  let p = Lp.Problem.create () in
  let ncand = Array.length candidates in
  let z_var =
    Array.init ncand (fun i ->
        let u =
          List.fold_left
            (fun acc (upd, weight) ->
              acc +. (weight *. Optimizer.Whatif.update_cost env upd candidates.(i)))
            0.0 cache.Inum.updates
        in
        Lp.Problem.add_var ~kind:Lp.Problem.Binary ~obj:u
          ~name:(Printf.sprintf "z%d" i) p)
  in
  let index_pos ix =
    let rec find i =
      if i >= ncand then None
      else if Storage.Index.equal candidates.(i) ix then Some i
      else find (i + 1)
    in
    find 0
  in
  List.iteri
    (fun qi (_, weight, kept) ->
      (* one linking row per (query, index): the sum of the y's of every
         configuration containing the index is bounded by z — valid since
         sum_c y_qc = 1, and tighter than per-configuration y <= z rows *)
      let links = Hashtbl.create 16 in
      let ys =
        List.mapi
          (fun ci (config, cost) ->
            let y =
              Lp.Problem.add_var ~kind:Lp.Problem.Binary ~obj:(weight *. cost)
                ~name:(Printf.sprintf "y%d_%d" qi ci) p
            in
            Storage.Config.iter
              (fun ix ->
                match index_pos ix with
                | Some pos ->
                    Hashtbl.replace links pos
                      (y :: Option.value ~default:[] (Hashtbl.find_opt links pos))
                | None -> ())
              config;
            y)
          kept
      in
      (* Sorted extraction: linking rows enter the ILP in candidate order,
         not hash order, so the model is reproducible run to run. *)
      List.iter
        (fun (pos, ys_using) ->
          ignore
            (Lp.Problem.add_row p
               ((z_var.(pos), -1.0) :: List.map (fun y -> (y, 1.0)) ys_using)
               Lp.Problem.Le 0.0))
        (Runtime.Tbl.sorted_bindings links);
      ignore
        (Lp.Problem.add_row p
           (List.map (fun y -> (y, 1.0)) ys)
           Lp.Problem.Eq 1.0))
    per_query;
  ignore
    (Lp.Problem.add_row ~name:"storage" p
       (Array.to_list
          (Array.mapi
             (fun i zv -> (zv, Storage.Index.size_bytes schema candidates.(i)))
             z_var))
       Lp.Problem.Le budget);
  let t2 = Runtime.Clock.now () in
  let bb_options =
    { Lp.Branch_bound.default_options with
      Lp.Branch_bound.gap_tolerance;
      time_limit = options.time_limit;
      jobs = options.jobs;
      (* branch on the index variables; the per-query configuration
         choice is a pure minimum once z is fixed *)
      decision_vars = Some (Array.to_list z_var) }
  in
  let r = Lp.Branch_bound.solve ~options:bb_options p in
  let t3 = Runtime.Clock.now () in
  let config =
    match r.Lp.Branch_bound.x with
    | Some x ->
        let acc = ref [] in
        Array.iteri
          (fun i zv -> if x.(zv) > 0.5 then acc := candidates.(i) :: !acc)
          z_var;
        Storage.Config.of_list !acc
    | None -> Storage.Config.empty
  in
  {
    config;
    objective = r.Lp.Branch_bound.obj;
    status = r.Lp.Branch_bound.status;
    timings =
      { inum_seconds = t1 -. t0; build_seconds = t2 -. t1;
        solve_seconds = t3 -. t2 };
    configurations = nconfigs;
  }
