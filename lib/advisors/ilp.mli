(** The ILP baseline (Papadomanolakis & Ailamaki, SMDB 2007): index
    tuning as a BIP with one variable per {e atomic configuration},
    requiring heavy pruning before the solver runs — the contrast to
    CoPhy's per-index formulation that Figures 5 and 10 quantify.  Like
    the paper's reimplementation, it is interfaced with INUM and solved
    by the same solver stack as CoPhy. *)

type options = {
  per_table_cap : int;  (** candidates shortlisted per table per query *)
  per_query_cap : int;  (** atomic configurations kept per query *)
  time_limit : float;
  jobs : int;  (** domains for the INUM build (default [1]) *)
}

val default_options : options

type timings = {
  inum_seconds : float;
  build_seconds : float;  (** enumeration + pruning + BIP building *)
  solve_seconds : float;
}

type result = {
  config : Storage.Config.t;
  objective : float;
  status : Lp.Branch_bound.status;
      (** how the search ended: [Optimal] within the 5% gap, or [Limit]
          at the time limit, with or without an incumbent *)
  timings : timings;
  configurations : int;  (** atomic configurations after pruning *)
}

(** Build and solve the atomic-configuration BIP under a storage budget
    in bytes.  Branch and bound stops at a 5% gap (the paper's setting,
    as for CoPhy). *)
val solve :
  ?options:options ->
  Optimizer.Whatif.env ->
  Sqlast.Ast.workload ->
  Storage.Index.t array ->
  budget:float ->
  result
