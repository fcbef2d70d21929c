(** Linear / binary-integer program builder (minimization form):

    {v
      minimize    c'x + offset
      subject to  a_i x (<= | = | >=) b_i
                  l <= x <= u,   marked variables binary/integer
    v} *)

type var_kind = Continuous | Binary | Integer
type sense = Le | Ge | Eq

type var = {
  mutable obj : float;
  mutable lb : float;
  mutable ub : float;
  kind : var_kind;
  vname : string;
}

type row = {
  coeffs : (int * float) array;  (** sorted by variable, deduplicated *)
  sense : sense;
  rhs : float;
  rname : string;
}

type t

val create : unit -> t
val nvars : t -> int
val nrows : t -> int

(** Add a variable, returning its id (dense, starting at 0).  Binary
    variables are clamped to [0, 1].
    @raise Invalid_argument when [lb > ub]. *)
val add_var :
  ?kind:var_kind ->
  ?lb:float ->
  ?ub:float ->
  ?obj:float ->
  ?name:string ->
  t ->
  int

(** Add a constraint row; duplicate variable coefficients are merged.
    Returns the row id.  @raise Invalid_argument on unknown variables. *)
val add_row : ?name:string -> t -> (int * float) list -> sense -> float -> int

val set_obj : t -> int -> float -> unit

(** Add a constant to the objective (reported by evaluators, ignored by
    the simplex itself). *)
val add_obj_offset : t -> float -> unit

val obj_offset : t -> float
val set_bounds : t -> int -> lb:float -> ub:float -> unit
val var : t -> int -> var
val rows : t -> row array
val row : t -> int -> row

(** Ids of binary/integer variables, ascending. *)
val integer_vars : t -> int list

(** [c'x + offset] for an assignment. *)
val objective_value : t -> float array -> float

(** Row and bound satisfaction within [tol]. *)
val feasible : ?tol:float -> t -> float array -> bool
