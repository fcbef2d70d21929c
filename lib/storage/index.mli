(** Index definitions: composite keys, INCLUDE payload columns, clustered
    indexes.  Each index is defined on exactly one table (paper §2). *)

type t = private {
  table : string;
  key_columns : string list;
  include_columns : string list;  (** sorted, disjoint from the key *)
  clustered : bool;
}

(** [create ~table keys] builds an index; include columns overlapping the
    key are dropped.  @raise Invalid_argument on an empty or duplicated key. *)
val create :
  ?clustered:bool -> ?includes:string list -> table:string -> string list -> t

val table : t -> string
val key_columns : t -> string list
val include_columns : t -> string list
val clustered : t -> bool

(** Columns servable without a base-table lookup (whole table if clustered). *)
val covered_columns : t -> string list

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val to_string : t -> string
val pp : t Fmt.t

(** Estimated on-disk size in bytes (leaves + interior). *)
val size_bytes : Catalog.Schema.t -> t -> float

(** Number of leaf pages. *)
val leaf_pages : Catalog.Schema.t -> t -> int

(** B+-tree height in levels (>= 1), for seek costing. *)
val height : Catalog.Schema.t -> t -> int

(** The height of a tree over that many leaf pages:
    [height schema t = height_of_leaf_pages (leaf_pages schema t)]. *)
val height_of_leaf_pages : int -> int

(** Distinct count of the full composite key (capped by the row count). *)
val key_distinct : Catalog.Schema.t -> t -> float

(** Whether an UPDATE writing [set_columns] must maintain this index. *)
val affected_by_update : t -> set_columns:string list -> bool

val validate : Catalog.Schema.t -> t -> (unit, string) result
