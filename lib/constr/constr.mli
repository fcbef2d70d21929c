(** The constraint language for constrained physical-design tuning, after
    Bruno & Chaudhuri (PVLDB 2008), as adopted by the paper (§3.2 and
    appendix E): index constraints with scopes/filters, the implicit
    clustered-index rule, mandatory/forbidden sets, query-cost caps with
    generators, and soft constraints (explored along a Pareto curve
    rather than enforced). *)

(** The LP row sense, so a z row's comparison is its LP row's. *)
type cmp = Lp.Problem.sense = Le | Ge | Eq

type index_metric =
  | Size_bytes
  | Count
  | Key_width
  | Custom of string * (Storage.Index.t -> float)

(** A named predicate restricting which candidates a constraint covers
    (the language's filters). *)
type scope = { scope_name : string; applies : Storage.Index.t -> bool }

val all_indexes : scope
val on_table : string -> scope

(** Indexes with at least [k] key columns. *)
val wide_indexes : int -> scope

val scope_and : scope -> scope -> scope

type t =
  | Storage_budget of float  (** total size <= bytes *)
  | Index_sum of {
      scope : scope;
      metric : index_metric;
      cmp : cmp;
      bound : float;
    }  (** e.g. "at most 2 indexes with >= 5 columns on lineitem" *)
  | At_most_one_clustered
  | Mandatory of Storage.Index.t list
  | Forbidden of Storage.Index.t list
  | Query_cost_cap of { query_pred : int -> bool; factor : float }
      (** cost(q, X) <= factor * cost(q, X0) for covered statement ids *)
  | Udf of {
      udf_name : string;
      accepts : Storage.Index.t array -> bool array -> bool;
    }
      (** black-box predicate over the selection (appendix E.5), enforced
          by rejecting candidate solutions inside the solver's search *)

(** Generator: FOR q IN W ASSERT cost(q,X) <= factor * cost(q,X0). *)
val for_all_queries : float -> t

val for_query : int -> float -> t

type set = { hard : t list; soft : (string * t) list }

val empty : set

(** Budget + the implicit clustered rule. *)
val with_budget : float -> set

val add_hard : t -> set -> set
val add_soft : label:string -> t -> set -> set

val metric_value : Catalog.Schema.t -> index_metric -> Storage.Index.t -> float

(** True for constraints expressible as rows over the z variables alone
    (everything except query-cost caps and black-box predicates). *)
val z_only : t -> bool

val is_udf : t -> bool

(** Conjunction of the black-box predicates in the list, as one
    acceptance function over selections. *)
val udf_acceptance :
  Storage.Index.t array -> t list -> bool array -> bool

(** A linear row over candidate positions. *)
type z_row = {
  row_coeffs : (int * float) list;
  row_cmp : cmp;
  row_rhs : float;
  row_name : string;
}

(** Linearize one z-only constraint over the candidate array.
    @raise Invalid_argument on query-cost caps (those need the full BIP). *)
val linearize : Catalog.Schema.t -> Storage.Index.t array -> t -> z_row list

(** All rows of the z-only constraints in the list. *)
val linearize_all :
  Catalog.Schema.t -> Storage.Index.t array -> t list -> z_row list

(** [add_rows p vars rows] adds each row to [p] as a row named
    [row_name] over the variables [vars] (candidate position -> LP
    variable).
    @raise Invalid_argument when a row names a position outside [vars]
    or a variable [p] does not have. *)
val add_rows : Lp.Problem.t -> int array -> z_row list -> unit

(** Does a selection satisfy the row? *)
val row_holds : z_row -> bool array -> bool

(** Evaluate any constraint against a selection; query-cost caps use the
    provided costing callbacks. *)
val satisfied :
  Catalog.Schema.t ->
  Storage.Index.t array ->
  bool array ->
  query_cost:(int -> float) ->
  baseline_cost:(int -> float) ->
  statement_ids:int list ->
  t ->
  bool

val pp : t Fmt.t
