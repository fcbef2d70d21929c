(* "Tool-B": a DB2 Design Advisor-style technique (Zilio et al., VLDB
   2004), the paper's Tool-B.  Its two distinguishing traits, both of
   which the paper's experiments probe:

   - workload compression by random sampling — effective on homogeneous
     workloads (15 recurring templates), much less so on heterogeneous
     ones (Fig. 9);
   - RECOMMEND-then-greedy: the optimizer is asked, per sampled
     statement, which virtual indexes its best plan would use; the union
     is then knapsacked greedily by benefit/size, with a swap refinement
     pass. *)

type options = { time_limit : float }

let default_options = { time_limit = 300.0 }

(* Workload compression keeps this many statements, drawn with this
   seed. *)
let sample_size = 60
let seed = 17

let solve ?(options = default_options) (env : Optimizer.Whatif.env)
    (w : Sqlast.Ast.workload) ~budget =
  let schema = env.Optimizer.Whatif.schema in
  let t0 = Runtime.Clock.now () in
  let rng = Random.State.make [| seed; 0xb0b |] in
  (* Workload compression: uniform random sample. *)
  let arr = Array.of_list w in
  let n = Array.length arr in
  let sample =
    if n <= sample_size then Array.to_list arr
    else
      List.init sample_size (fun _ ->
          arr.(Random.State.int rng n))
  in
  let scale = float_of_int n /. float_of_int (List.length sample) in
  let shells =
    List.map
      (fun ({ Sqlast.Ast.stmt; weight } : Sqlast.Ast.weighted) ->
        let shell =
          match stmt with
          | Sqlast.Ast.Select q -> q
          | Sqlast.Ast.Update u -> Sqlast.Ast.query_shell u
        in
        (shell, weight *. scale))
      sample
  in
  (* RECOMMEND: per sampled statement, the virtual indexes the optimizer's
     best plan uses under the statement's own candidates. *)
  let virtuals =
    List.fold_left
      (fun acc (q, _) ->
        let per_query = Storage.Config.of_list (Cophy.Cgen.query_candidates q) in
        let plan = Optimizer.Whatif.optimize env q per_query in
        List.fold_left
          (fun acc ix -> Storage.Config.add ix acc)
          acc
          (Optimizer.Plan.indexes_used plan))
      Storage.Config.empty shells
  in
  (* Greedy benefit/size knapsack over the virtual indexes, benefits
     measured on the compressed workload with direct what-if. *)
  let cost_under config =
    List.fold_left
      (fun acc (q, weight) -> acc +. (weight *. Optimizer.Whatif.cost env q config))
      0.0 shells
  in
  let base = cost_under Storage.Config.empty in
  let scored =
    List.map
      (fun ix ->
        let benefit = base -. cost_under (Storage.Config.of_list [ ix ]) in
        (ix, benefit /. max 1.0 (Storage.Index.size_bytes schema ix), benefit))
      (Storage.Config.to_list virtuals)
    |> List.filter (fun (_, _, b) -> b > 0.0)
    |> List.sort (fun (_, r1, _) (_, r2, _) -> compare r2 r1)
  in
  let chosen = ref Storage.Config.empty and used = ref 0.0 in
  List.iter
    (fun (ix, _, _) ->
      let s = Storage.Index.size_bytes schema ix in
      if !used +. s <= budget then begin
        chosen := Storage.Config.add ix !chosen;
        used := !used +. s
      end)
    scored;
  (* Swap refinement: try replacing a chosen index with an unchosen one
     when it reduces the compressed-workload cost within budget. *)
  let out_of_time () = Runtime.Clock.now () -. t0 > options.time_limit in
  let improved = ref true in
  while !improved && not (out_of_time ()) do
    improved := false;
    let current_cost = cost_under !chosen in
    List.iter
      (fun (cand, _, _) ->
        if (not (Storage.Config.mem cand !chosen)) && not (out_of_time ())
        then begin
          let s_cand = Storage.Index.size_bytes schema cand in
          Storage.Config.iter
            (fun old ->
              if not !improved then begin
                let s_old = Storage.Index.size_bytes schema old in
                if !used -. s_old +. s_cand <= budget then begin
                  let swapped =
                    Storage.Config.add cand (Storage.Config.remove old !chosen)
                  in
                  let c = cost_under swapped in
                  if c < current_cost -. 1e-6 then begin
                    chosen := swapped;
                    used := !used -. s_old +. s_cand;
                    improved := true
                  end
                end
              end)
            !chosen
        end)
      scored
  done;
  {
    Eval.config = !chosen;
    seconds = Runtime.Clock.now () -. t0;
    whatif_calls = Optimizer.Whatif.whatif_calls env;
    candidates_examined = Storage.Config.cardinal virtuals;
    timed_out = out_of_time ();
  }
