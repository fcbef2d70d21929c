(* "Tool-A": a relaxation-based commercial-style advisor in the spirit of
   Bruno & Chaudhuri (SIGMOD 2005), the technique behind the paper's
   Tool-A.  It drives the what-if optimizer *directly* (no INUM), which is
   the root of its poor scaling with workload size:

   1. For each statement, optimize under the full per-query candidate set
     and keep the indexes the optimal plan actually uses — the per-query
     "ideal" configuration.
   2. Start from the union of the ideal configurations.
   3. While the storage budget is violated, apply the cheapest relaxation
     transformation: remove an index, or merge two indexes on the same
     table into a prefix-sharing one.  Each transformation is priced by
     re-optimizing the affected statements (more what-if calls).

   A wall-clock limit makes the technique give up like the paper's Tool-A
   did on the hardest inputs (Table 1: "Tool-A timed out"). *)

type options = { time_limit : float }

let default_options = { time_limit = 300.0 }

(* The relaxation search gives up after this many transformations. *)
let max_transformations = 500

let merge_indexes a b =
  (* prefix-preserving merge: key of [a], then [b]'s missing key columns;
     includes are unioned *)
  let key =
    Storage.Index.key_columns a
    @ List.filter
        (fun c -> not (List.mem c (Storage.Index.key_columns a)))
        (Storage.Index.key_columns b)
  in
  Storage.Index.create
    ~table:(Storage.Index.table a)
    ~includes:(Storage.Index.include_columns a @ Storage.Index.include_columns b)
    key

let solve ?(options = default_options) (env : Optimizer.Whatif.env)
    (w : Sqlast.Ast.workload) ~budget =
  let schema = env.Optimizer.Whatif.schema in
  let t0 = Runtime.Clock.now () in
  let out_of_time () = Runtime.Clock.now () -. t0 > options.time_limit in
  (* Step 1-2: per-statement ideal configurations through direct what-if. *)
  let statements =
    List.map
      (fun ({ Sqlast.Ast.stmt; weight } : Sqlast.Ast.weighted) ->
        let shell =
          match stmt with
          | Sqlast.Ast.Select q -> q
          | Sqlast.Ast.Update u -> Sqlast.Ast.query_shell u
        in
        (shell, weight))
      w
  in
  let truncated = ref false in
  let ideal =
    List.fold_left
      (fun acc (q, _) ->
        if out_of_time () then begin
          truncated := true;
          acc
        end
        else begin
          let per_query = Storage.Config.of_list (Cophy.Cgen.query_candidates q) in
          let plan = Optimizer.Whatif.optimize env q per_query in
          List.fold_left
            (fun acc ix -> Storage.Config.add ix acc)
            acc
            (Optimizer.Plan.indexes_used plan)
        end)
      Storage.Config.empty statements
  in
  (* Cached per-statement costs under the current configuration. *)
  let cost_of config q = Optimizer.Whatif.cost env q config in
  let total_cost config =
    List.fold_left
      (fun acc (q, weight) -> acc +. (weight *. cost_of config q))
      0.0 statements
  in
  let affected config_delta (q : Sqlast.Ast.query) =
    List.exists
      (fun ix -> List.mem (Storage.Index.table ix) q.Sqlast.Ast.tables)
      config_delta
  in
  let current = ref ideal in
  let current_costs =
    ref (List.map (fun (q, weight) -> (q, weight, cost_of ideal q)) statements)
  in
  let size c = Storage.Config.total_size schema c in
  let steps = ref 0 in
  let timed_out = ref false in
  while
    size !current > budget
    && (not !timed_out)
    && !steps < max_transformations
    && not (Storage.Config.is_empty !current)
  do
    incr steps;
    if out_of_time () then timed_out := true
    else begin
      (* candidate transformations *)
      let removals =
        List.map (fun ix -> ([ ix ], Storage.Config.remove ix !current))
          (Storage.Config.to_list !current)
      in
      let merges =
        let by_table = Hashtbl.create 8 in
        Storage.Config.iter
          (fun ix ->
            let tb = Storage.Index.table ix in
            Hashtbl.replace by_table tb
              (ix :: Option.value ~default:[] (Hashtbl.find_opt by_table tb)))
          !current;
        (* Sorted extraction: merge candidates come out in table-name
           order, so the greedy relaxation explores them deterministically. *)
        Runtime.Tbl.fold_sorted
          (fun _ ixs acc ->
            match ixs with
            | a :: b :: _ ->
                let m = merge_indexes a b in
                ( [ a; b ],
                  Storage.Config.add m
                    (Storage.Config.remove a (Storage.Config.remove b !current)) )
                :: acc
            | _ -> acc)
          by_table []
      in
      (* price each transformation: penalty per byte saved, re-optimizing
         only the affected statements.  The time check sits inside the
         pricing function: a single relaxation step over a large current
         configuration would otherwise overshoot the budget by far. *)
      let price (delta, config') =
        if out_of_time () then begin
          timed_out := true;
          None
        end
        else begin
          let saved = size !current -. size config' in
          if saved <= 0.0 then None
          else begin
            let penalty =
              List.fold_left
                (fun acc (q, weight, old_cost) ->
                  if affected delta q then
                    acc +. (weight *. (cost_of config' q -. old_cost))
                  else acc)
                0.0 !current_costs
            in
            Some (penalty /. saved, config')
          end
        end
      in
      let choices = List.filter_map price (removals @ merges) in
      match List.sort (fun (a, _) (b, _) -> compare a b) choices with
      | [] -> timed_out := size !current > budget
      | (_, config') :: _ ->
          current := config';
          current_costs :=
            List.map (fun (q, weight) -> (q, weight, cost_of config' q)) statements
    end
  done;
  let final =
    if size !current > budget then begin
      (* last resort: keep largest-benefit indexes greedily within budget;
         when time is gone, score by size alone instead of what-if calls *)
      let scored =
        if !timed_out || out_of_time () then
          List.map
            (fun ix -> (ix, -.Storage.Index.size_bytes schema ix))
            (Storage.Config.to_list !current)
          |> List.sort (fun (_, a) (_, b) -> compare b a)
        else begin
          let base = total_cost Storage.Config.empty in
          List.map
            (fun ix ->
              let only = Storage.Config.of_list [ ix ] in
              (ix, base -. total_cost only))
            (Storage.Config.to_list !current)
          |> List.sort (fun (_, a) (_, b) -> compare b a)
        end
      in
      let acc = ref Storage.Config.empty and used = ref 0.0 in
      List.iter
        (fun (ix, _) ->
          let s = Storage.Index.size_bytes schema ix in
          if !used +. s <= budget then begin
            acc := Storage.Config.add ix !acc;
            used := !used +. s
          end)
        scored;
      !acc
    end
    else !current
  in
  {
    Eval.config = final;
    seconds = Runtime.Clock.now () -. t0;
    whatif_calls = Optimizer.Whatif.whatif_calls env;
    candidates_examined = Storage.Config.cardinal ideal;
    timed_out = !timed_out || !truncated;
  }
