(** Query canonicalization: a normal form and a stable text key, so that
    repeat statements are recognized across irrelevant spelling changes.

    Two statements that differ only in whitespace, literal constants,
    column qualification, or the order of order-insensitive clauses
    (FROM list, WHERE conjuncts, GROUP BY columns, select list) parse
    to the same {!normalize}d form and therefore the same {!key}.
    Structurally different statements — different tables, predicate
    shapes, selectivities, aggregation, ORDER BY — get distinct keys.

    The keyed INUM template cache ({!Inum.Keyed}) builds on the
    canonical form, so a cache hit returns templates bit-identical to a
    fresh build of the normalized query: canonicalization fixes the
    clause order every float reduction runs in. *)

val normalize : Ast.query -> Ast.query
(** The canonical representative of a query's equivalence class:
    [query_id] is masked to [0]; tables, select items, predicates,
    joins (orientation-normalized) and group-by columns are sorted
    under explicit total orders.  ORDER BY is semantically ordered and
    kept as written.  Idempotent. *)

val normalize_update : Ast.update -> Ast.update
(** Canonical update: [update_id] masked to [0], SET columns and WHERE
    predicates sorted. *)

val key : Ast.query -> string
(** Stable cache key of {!normalize}: equal iff the normal forms are
    equal.  Selectivities are rendered in hexadecimal float notation,
    so the key distinguishes any two different selectivity values. *)

val raw_key : Ast.query -> string
(** The serialization [key] applies to the normal form, applied to the
    query as written: every field but [query_id], in the order given.
    Equal iff the two queries are equal up to [query_id], so two
    statements with one [key] can still differ here in clause order —
    which candidate generation reads (it follows the written GROUP BY
    order); costs are priced on the canonical form
    ([key q = raw_key (normalize q)]). *)

val raw_equal : Ast.query -> Ast.query -> bool
(** [raw_equal a b = String.equal (raw_key a) (raw_key b)], without
    serializing either query: field by field, [query_id] ignored,
    selectivities compared as [%h] renders them. *)

(** Hash tables keyed by a query's raw shape: keys are equal by
    {!raw_equal}, and hashed over the same fields (every field but
    [query_id], selectivities by their bits), so a caller can do work
    once per statement as written, not once per statement. *)
module Raw_tbl : Hashtbl.S with type key = Ast.query

val update_key : Ast.update -> string

val statement_key : Ast.statement -> string
(** [key]/[update_key] with a [select:]/[update:] tag, so a SELECT can
    never collide with an UPDATE. *)
