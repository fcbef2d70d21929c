(** Sparse LU factorization of a simplex basis, with Markowitz pivoting.

    [factor] eliminates the m x m basis matrix whose k-th column is the
    constraint column of the variable in basis position k, choosing at
    each step the pivot that minimizes the Markowitz fill-in estimate
    [(r_i - 1) * (c_j - 1)] among entries passing a relative stability
    threshold.  The factors are stored sparsely; [solve]/[solve_transpose]
    run in time proportional to the factor nonzeros, not m^2.

    Vector index conventions (matching {!Simplex}): right-hand sides of
    [B w = a] are row-indexed and solutions are basis-position-indexed;
    [solve_transpose] maps a basis-position-indexed cost vector to
    row-indexed duals. *)

type t

(** Raised when the basis matrix is (numerically) singular; carries the
    elimination step that found no admissible pivot. *)
exception Singular of int

(** [factor ~m ~cols ~basis] factors the matrix whose column [k] is
    [cols.(basis.(k))] (sparse (row, coeff) pairs). *)
val factor : m:int -> cols:(int * float) array array -> basis:int array -> t

(** Nonzeros stored in L and U (a proxy for factor quality, used by the
    refactorization trigger). *)
val nnz : t -> int

(** [solve t b] overwrites the row-indexed [b] with the
    basis-position-indexed solution of [B w = b]. *)
val solve : t -> float array -> unit

(** [solve_transpose t c] overwrites the basis-position-indexed [c]
    (cost of the variable in each basis position) with the row-indexed
    solution of [B' y = c]. *)
val solve_transpose : t -> float array -> unit
