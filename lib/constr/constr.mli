(** The constraint language for constrained physical-design tuning, after
    Bruno & Chaudhuri (PVLDB 2008), as adopted by the paper (§3.2 and
    appendix E): index constraints with scopes/filters, the implicit
    clustered-index rule, mandatory/forbidden sets, query-cost caps with
    generators, and black-box predicates.

    A constraint list is the one constraint value, from the API
    ([Cophy.Advisor.advise], [Cophy.Interactive.create]) down to the
    solver; {!split} classifies it once.  The storage budget is not a
    constraint here but the solver's [~budget] argument (an extra storage
    row is [Index_sum] over [all_indexes] with [Size_bytes]).  Soft
    constraints are not enforced at all: they are trade-offs explored as
    [Cophy.Pareto] sweeps. *)

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

(** A query-cost cap: cost(q, X) <= [factor] * cost(q, X0) for every
    statement id [query_pred] covers, X0 being the baseline. *)
type cap = { query_pred : int -> bool; factor : float }

type t =
  | Index_sum of {
      scope : scope;
      metric : index_metric;
      cmp : cmp;
      bound : float;
    }  (** e.g. "at most 2 indexes with >= 5 columns on lineitem" *)
  | At_most_one_clustered
  | Mandatory of Storage.Index.t list
  | Forbidden of Storage.Index.t list
  | Query_cost_cap of cap
  | Udf of {
      udf_name : string;
      accepts : Storage.Index.t array -> bool array -> bool;
    }
      (** black-box predicate over the selection (appendix E.5), enforced
          by rejecting candidate solutions inside the solver's search *)

(** Generator: FOR q IN W ASSERT cost(q,X) <= factor * cost(q,X0). *)
val for_all_queries : float -> t

val for_query : int -> float -> t

val metric_value : Catalog.Schema.t -> index_metric -> Storage.Index.t -> float

(** A linear row over candidate positions. *)
type z_row = {
  row_coeffs : (int * float) list;
  row_cmp : cmp;
  row_rhs : float;
  row_name : string;
}

(** A constraint list, classified once. *)
type split = {
  z_rows : z_row list;
      (** the rows of every linear constraint ([Index_sum],
          [At_most_one_clustered], [Mandatory], [Forbidden]; listed
          indexes outside the candidates get no row) *)
  caps : cap list;  (** the query-cost caps, for the caller to price *)
  accept : (bool array -> bool) option;
      (** the conjunction of the black-box predicates over a selection,
          [None] when the list has none *)
}

(** [split schema candidates cs] — the z rows over positions in
    [candidates], the caps and the black-box gate of [cs]. *)
val split : Catalog.Schema.t -> Storage.Index.t array -> t list -> split

(** [add_rows p vars rows] adds each row to [p] as a row named
    [row_name] over the variables [vars] (candidate position -> LP
    variable).
    @raise Invalid_argument when a row names a position outside [vars]
    or a variable [p] does not have. *)
val add_rows : Lp.Problem.t -> int array -> z_row list -> unit

(** Does a selection satisfy the row? *)
val row_holds : z_row -> bool array -> bool

val pp : t Fmt.t
