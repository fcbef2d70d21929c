(** "Tool-A": a relaxation-based commercial-style advisor (after Bruno &
    Chaudhuri, SIGMOD 2005) driving the what-if optimizer directly — the
    source of its poor scaling with workload size that Table 1 and
    Figures 4/7 exhibit. *)

type options = {
  time_limit : float;  (** wall-clock budget; exceeded = "timed out" *)
}

val default_options : options

(** Prefix-preserving merge of two indexes on the same table (the
    relaxation search's merge transformation). *)
val merge_indexes : Storage.Index.t -> Storage.Index.t -> Storage.Index.t

(** Run the advisor under a storage budget in bytes.  The relaxation
    search stops after 500 transformations. *)
val solve :
  ?options:options ->
  Optimizer.Whatif.env ->
  Sqlast.Ast.workload ->
  budget:float ->
  Eval.run
