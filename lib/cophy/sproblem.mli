(** The structured form of the CoPhy BIP (Theorem 1): per statement
    (block), per INUM template, the internal cost beta and per-slot
    admissible (candidate, gamma) choices — losslessly pruned (a slot
    choice is dropped only when its gamma is infinite or no better than
    the no-index gamma; the candidate's z variable always survives).

    {!Solver}'s Lagrangian decomposition, the one solver, exploits the
    block structure directly; {!to_lp} materializes the explicit BIP for simplex +
    branch-and-bound, which serves as a reference. *)

type slot_choice = { cand : int; gamma : float }
(** [cand = -1] is the no-index choice. *)

type template = {
  beta : float;
  choices : slot_choice array array;  (** per slot; no-index entry first *)
}

type block = {
  qid : int;
  weight : float;  (** f_q *)
  templates : template array;
  cands_used : int array;  (** candidate positions in this block, sorted *)
}

type t = {
  schema : Catalog.Schema.t;
  candidates : Storage.Index.t array;
  sizes : float array;  (** bytes *)
  ucost : float array;  (** weighted update-maintenance cost per candidate *)
  fixed : float;  (** weighted base-update costs (c_q sums) *)
  probe_regret : float;
      (** certified INUM probe regret at build time: the objective
          surface encoded by [blocks] sits above the exhaustive-probing
          surface by at most this much, at any selection (zero when the
          caches were built with an unlimited probe budget, or fully
          refined) *)
  blocks : block array;
  cand_blocks : int array array;  (** candidate -> referencing blocks *)
}

val num_candidates : t -> int
val num_blocks : t -> int

(** Number of (y, x, z) variables of the materialized BIP — the paper's
    measure of compactness (grows linearly with the input). *)
val variable_count : t -> int

(** A pricing memo for successive builds of one session: what a build
    priced, keyed by INUM entry ({!Inum.id}) and INUM template (by
    physical identity) — the priced templates and the access paths they
    were priced from — with the candidate set it was priced against. *)
type prices

val prices : unit -> prices
(** An empty memo. *)

(** Build from an INUM workload cache and a candidate set.
    [prune = false] disables the lossless slot dominance pruning
    (ablation only).

    Each INUM entry is priced on its own statement ({!Inum.query}, the
    canonical form the entry was built from) through one
    {!Optimizer.Access.context} per slot table: every candidate's access
    path on the table is computed once, and each template's slot
    requirement is answered from those paths (an order check, or a
    multiplication for a nested-loop inner).  This is the surface
    {!Inum.cost}, {!Inum.refine} and {!Inum.best_instantiation}
    evaluate, so a configuration at which refine certifies the INUM cost
    exact is exact in the BIP too, and two spellings of one statement
    (one {!Sqlast.Canon.key}) get the same block.

    A block's [templates] and [cands_used] are therefore computed once
    per INUM entry and shared physically by every statement that
    resolves to it; only [qid] and [weight] are per statement.  Entries
    are told apart by {!Inum.id}.  Each block is bit-identical to the
    block of a one-statement build.

    With [prices], a template the memo holds is not priced again: it is
    reused physically when the candidate set is unchanged, and extended
    by pricing only the candidates appended since otherwise.  Templates
    a refine added are priced from the memo's access paths, and
    appended candidates add only their own paths.  The memo reuses
    nothing when [env] is not (physically) the one it last saw, or when
    [candidates] does not keep every position it last saw physically
    (removing a candidate resets it).  [prune = false] neither reads nor
    updates it.  After the build the memo holds exactly the entries the
    build used.  Either way the problem is bit-identical to a build
    without [prices]: each gamma is the same float operations on the
    same inputs, and every choice array keeps its order. *)
val build :
  ?prices:prices ->
  ?prune:bool ->
  Optimizer.Whatif.env ->
  Inum.workload_cache ->
  Storage.Index.t array ->
  t

(** Workload compression: statements with identical cost structure
    (equal [templates] and [cands_used], floats compared by their bits)
    are interchangeable under every selection, so each group collapses
    into its first member with the summed weight.  Equality is by
    content: how the values are shared in memory does not matter.
    Every selection's objective is preserved (up to float
    re-association); merged statements' [qid]s disappear from [blocks].
    [compress t] is [(t', group)], where [group.(bi)] is the block of
    [t'] that block [bi] of [t] went into.  Homogeneous workloads shrink
    by an order of magnitude, which is what makes the decomposition's
    per-iteration cost independent of workload repetition. *)
val compress : t -> t * int array

(** Query-cost part of one block given a selection. *)
val block_cost_z : block -> bool array -> float

(** A block's slot minima under a selection [z].  Slots are numbered
    template by template: slot [s] of template [k] is at [off + s],
    [off] the slot count of the templates before [k]. *)
type minima = {
  smin : float array;  (** each slot's minimum *)
  sarg : int array;
      (** the candidate of each slot's first argmin ([-1]: the no-index
          choice, or no admissible choice) *)
  tcost : float;  (** [block_cost_z b z], bit-identical *)
  tpicks : int list;  (** [snd (block_cost_picks b z)] *)
}

(** [slot_minima b z]: one scan of [b] under [z], the one
    {!block_cost_picks} makes, keeping what it finds per slot. *)
val slot_minima : block -> bool array -> minima

(** [block_cost_picks b z] — [block_cost_z b z] (bit-identical) with the
    candidates its first minimizing assignment picks: the first template
    attaining the minimum and, in each of its slots, the first choice
    attaining the slot minimum ([[]] when every template costs
    infinity).  Dropping a selected candidate that is not among the
    picks leaves the cost bit-identical: the winning template keeps the
    same slot minima, summed in the same order, and no other template
    gets cheaper. *)
val block_cost_picks : block -> bool array -> float * int list

(** Full objective of a selection (query costs + maintenance + fixed).
    [jobs] fans the per-block cost evaluations over the domain pool; the
    reduction order is fixed, so the value is identical at every job
    count (default [1] = fully sequential). *)
val eval : ?jobs:int -> t -> bool array -> float

(** [eval_costs t z costs] is {!eval}[ t z] when [costs.(bi)] is
    {!block_cost_z} of block [bi] under [z]: the same sum in the same
    order, for a caller that already holds the block costs. *)
val eval_costs : t -> bool array -> float array -> float

(** Total size in bytes of the selected candidates. *)
val total_size : t -> bool array -> float

val config_of : t -> bool array -> Storage.Config.t
val z_of_config : t -> Storage.Config.t -> bool array

type lp_vars = {
  z_var : int array;
  y_var : (int * int, int) Hashtbl.t;
  x_var : (int * int * int * int, int) Hashtbl.t;
}

(** Materialize the BIP of Theorem 1.  Linking rows are aggregated per
    (block, candidate) — valid by [sum_k y = 1] and tighter than
    per-variable links.  [budget] adds the storage row; [z_rows] the
    constraint-language rows. *)
val to_lp :
  ?budget:float -> ?z_rows:Constr.z_row list -> t -> Lp.Problem.t * lp_vars

(** Read the selection out of a BIP solution vector. *)
val z_of_lp_solution : t -> lp_vars -> float array -> bool array
