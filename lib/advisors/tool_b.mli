(** "Tool-B": a DB2 Design Advisor-style technique (after Zilio et al.,
    VLDB 2004): workload compression by random sampling, RECOMMEND-style
    per-statement virtual indexes, then a greedy benefit/size knapsack
    with a swap refinement.  Sampling is what fails on heterogeneous
    workloads (Figure 9). *)

type options = {
  time_limit : float;  (** wall-clock budget *)
}

val default_options : options

(** Run the advisor under a storage budget in bytes.  Compression keeps
    a uniform random sample of 60 statements (fixed seed 17), or the
    whole workload when it is smaller. *)
val solve :
  ?options:options ->
  Optimizer.Whatif.env ->
  Sqlast.Ast.workload ->
  budget:float ->
  Eval.run
