(* Index definitions.  Per the paper (§2) an index is defined on exactly one
   table; we support composite keys, INCLUDE columns (non-key payload, as in
   covering indexes), and clustered indexes.  Indexes are interned so they
   can be compared and hashed cheaply and used as BIP variable identities. *)

type t = {
  table : string;
  key_columns : string list;       (* ordered search key *)
  include_columns : string list;   (* sorted payload-only columns *)
  clustered : bool;
}

let create ?(clustered = false) ?(includes = []) ~table key_columns =
  if key_columns = [] then invalid_arg "Index.create: empty key";
  let rec dup = function
    | [] -> false
    | c :: rest -> List.mem c rest || dup rest
  in
  if dup key_columns then invalid_arg "Index.create: duplicate key column";
  let includes =
    List.sort_uniq String.compare
      (List.filter (fun c -> not (List.mem c key_columns)) includes)
  in
  { table; key_columns; include_columns = includes; clustered }

let table t = t.table
let key_columns t = t.key_columns
let include_columns t = t.include_columns
let clustered t = t.clustered

(* All columns whose values the index can serve without a base-table
   lookup.  A clustered index covers the whole table. *)
let covered_columns t = t.key_columns @ t.include_columns

let compare (a : t) (b : t) = Stdlib.compare a b
let equal (a : t) (b : t) = a = b
let hash (t : t) = Hashtbl.hash t

let to_string t =
  Printf.sprintf "%s%s(%s%s)"
    (if t.clustered then "c" else "")
    t.table
    (String.concat "," t.key_columns)
    (match t.include_columns with
    | [] -> ""
    | cs -> " incl " ^ String.concat "," cs)

let pp ppf t = Fmt.string ppf (to_string t)

(* --- Size estimation --- *)

(* B+-tree size: leaf pages hold (key + rid + payload) entries; interior
   pages add ~0.5% overhead; default fill factor models page slack.  A
   clustered index stores full rows in its leaves, so its *additional*
   footprint over the heap is only the interior levels — but since building
   it reorganizes the heap we charge leaf storage like commercial advisors
   do when budgeting. *)
let fill_factor = 0.70
let rid_width = 8

let entry_width schema t =
  let tbl = Catalog.Schema.find_table schema t.table in
  let width_of c = Catalog.Schema.column_width (Catalog.Schema.find_column tbl c) in
  let keys = List.fold_left (fun acc c -> acc + width_of c) 0 t.key_columns in
  if t.clustered then keys + Catalog.Schema.row_width tbl
  else
    keys + rid_width
    + List.fold_left (fun acc c -> acc + width_of c) 0 t.include_columns

let leaf_pages schema t =
  let tbl = Catalog.Schema.find_table schema t.table in
  let per_page =
    max 1
      (int_of_float
         (float_of_int Catalog.Schema.page_size *. fill_factor
          /. float_of_int (entry_width schema t)))
  in
  max 1 ((tbl.Catalog.Schema.row_count + per_page - 1) / per_page)

(* Estimated size in bytes, including interior nodes. *)
let size_bytes schema t =
  let leaves = leaf_pages schema t in
  let interior = max 1 (leaves / 100) in
  float_of_int ((leaves + interior) * Catalog.Schema.page_size)

(* B+-tree height (number of levels above the leaves), used for seek cost. *)
let height_of_leaf_pages leaves =
  let fanout = 200 in
  let rec levels n acc = if n <= 1 then acc else levels (n / fanout) (acc + 1) in
  max 1 (levels leaves 1)

let height schema t = height_of_leaf_pages (leaf_pages schema t)

(* The number of distinct values of the full key, used for update cost and
   duplicate handling: capped product of per-column distinct counts. *)
let key_distinct schema t =
  let tbl = Catalog.Schema.find_table schema t.table in
  let d =
    List.fold_left
      (fun acc c ->
        let col = Catalog.Schema.find_column tbl c in
        min
          (float_of_int tbl.Catalog.Schema.row_count)
          (acc *. float_of_int col.Catalog.Schema.distinct))
      1.0 t.key_columns
  in
  max 1.0 d

(* Does updating [cols] require maintaining this index? *)
let affected_by_update t ~set_columns =
  List.exists (fun c -> List.mem c (covered_columns t)) set_columns

(* Validity against a schema. *)
let validate schema t =
  match Catalog.Schema.find_table_opt schema t.table with
  | None -> Error (Printf.sprintf "index on unknown table %s" t.table)
  | Some tbl ->
      let missing =
        List.filter
          (fun c -> not (Catalog.Schema.mem_column tbl c))
          (covered_columns t)
      in
      if missing = [] then Ok ()
      else
        Error
          (Printf.sprintf "index %s references unknown columns: %s"
             (to_string t) (String.concat ", " missing))
