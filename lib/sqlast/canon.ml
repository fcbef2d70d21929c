(* Canonical statement forms and stable cache keys.

   The INUM layer's per-query results depend only on the query structure
   (tables, predicate selectivities, joins, grouping, ordering) — never
   on [query_id] or on the spelling of the SQL text.  They do, however,
   depend bit-for-bit on clause order: float reductions over predicate
   lists fold left-to-right, so [WHERE a AND b] and [WHERE b AND a]
   can differ in the last ulp.  The canonical form pins one
   representative ordering for every order-insensitive clause, which
   makes "same key => bit-identical INUM build" a theorem rather than a
   hope. *)

open Ast

(* --- Explicit total orders (lint L1: no polymorphic compare near
   floats; we also want orders independent of constructor layout). --- *)

let cmp_rank = function
  | Eq -> 0
  | Lt -> 1
  | Le -> 2
  | Gt -> 3
  | Ge -> 4
  | Between -> 5
  | Like -> 6

let compare_col (a : col_ref) (b : col_ref) =
  match String.compare a.table b.table with
  | 0 -> String.compare a.column b.column
  | c -> c

let compare_predicate (a : predicate) (b : predicate) =
  match compare_col a.pred_col b.pred_col with
  | 0 -> (
      match Int.compare (cmp_rank a.cmp) (cmp_rank b.cmp) with
      | 0 -> (
          match Float.compare a.selectivity b.selectivity with
          | 0 -> Bool.compare a.is_equality b.is_equality
          | c -> c)
      | c -> c)
  | c -> c

(* Equi-joins are symmetric: orient the smaller column reference left. *)
let orient_join (j : join) =
  if compare_col j.left j.right <= 0 then j
  else { left = j.right; right = j.left }

let compare_join (a : join) (b : join) =
  match compare_col a.left b.left with
  | 0 -> compare_col a.right b.right
  | c -> c

let agg_rank = function Count -> 0 | Sum -> 1 | Avg -> 2 | Min -> 3 | Max -> 4

let compare_select_item a b =
  match (a, b) with
  | Col _, Agg _ -> -1
  | Agg _, Col _ -> 1
  | Col ca, Col cb -> compare_col ca cb
  | Agg (fa, ca), Agg (fb, cb) -> (
      match Int.compare (agg_rank fa) (agg_rank fb) with
      | 0 -> compare_col ca cb
      | c -> c)

(* --- Normal forms --- *)

let normalize (q : query) : query =
  {
    query_id = 0;
    tables = List.sort_uniq String.compare q.tables;
    select = List.sort compare_select_item q.select;
    predicates = List.sort compare_predicate q.predicates;
    joins = List.sort compare_join (List.map orient_join q.joins);
    group_by = List.sort compare_col q.group_by;
    (* ORDER BY is semantically ordered: keep it as written. *)
    order_by = q.order_by;
  }

let normalize_update (u : update) : update =
  {
    update_id = 0;
    target = u.target;
    set_columns = List.sort_uniq String.compare u.set_columns;
    where = List.sort compare_predicate u.where;
  }

(* --- Keys --- *)

(* Serialization uses [%S] for every identifier (injective even for
   adversarial table/column names) and [%h] for selectivities (exact
   hexadecimal float round-trip, so distinct values never collide). *)

let buf_col b (c : col_ref) = Printf.bprintf b "%S.%S" c.table c.column

let buf_predicate b (p : predicate) =
  Printf.bprintf b "%a%d:%h:%b" (fun b -> buf_col b) p.pred_col
    (cmp_rank p.cmp) p.selectivity p.is_equality

let buf_list item b xs =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      item b x)
    xs

(* The serialization of [q] as written: clause order is kept, only
   [query_id] is left out. *)
let raw_key (q : query) =
  let b = Buffer.create 256 in
  Buffer.add_string b "t[";
  buf_list (fun b t -> Printf.bprintf b "%S" t) b q.tables;
  Buffer.add_string b "]s[";
  buf_list
    (fun b -> function
      | Col c -> buf_col b c
      | Agg (f, c) -> Printf.bprintf b "%d(%a)" (agg_rank f) (fun b -> buf_col b) c)
    b q.select;
  Buffer.add_string b "]p[";
  buf_list buf_predicate b q.predicates;
  Buffer.add_string b "]j[";
  buf_list
    (fun b (j : join) ->
      buf_col b j.left;
      Buffer.add_char b '=';
      buf_col b j.right)
    b q.joins;
  Buffer.add_string b "]g[";
  buf_list buf_col b q.group_by;
  Buffer.add_string b "]o[";
  buf_list
    (fun b (c, d) ->
      buf_col b c;
      Buffer.add_string b (match d with Asc -> "+" | Desc -> "-"))
    b q.order_by;
  Buffer.add_char b ']';
  Buffer.contents b

let key q = raw_key (normalize q)

(* [raw_key a = raw_key b] without serializing: the same fields in the
   same order, selectivities compared as [%h] renders them (bit for bit,
   except that every NaN of one sign renders alike). *)
let same_col (a : col_ref) (b : col_ref) =
  String.equal a.table b.table && String.equal a.column b.column

let same_selectivity a b =
  Float.equal a b && Bool.equal (Float.sign_bit a) (Float.sign_bit b)

let same_predicate (a : predicate) (b : predicate) =
  same_col a.pred_col b.pred_col
  && Int.equal (cmp_rank a.cmp) (cmp_rank b.cmp)
  && same_selectivity a.selectivity b.selectivity
  && Bool.equal a.is_equality b.is_equality

let same_select_item a b =
  match (a, b) with
  | Col ca, Col cb -> same_col ca cb
  | Agg (fa, ca), Agg (fb, cb) ->
      Int.equal (agg_rank fa) (agg_rank fb) && same_col ca cb
  | Col _, Agg _ | Agg _, Col _ -> false

let same_direction a b =
  match (a, b) with Asc, Asc | Desc, Desc -> true | Asc, Desc | Desc, Asc -> false

let raw_equal (a : query) (b : query) =
  List.equal String.equal a.tables b.tables
  && List.equal same_select_item a.select b.select
  && List.equal same_predicate a.predicates b.predicates
  && List.equal
       (fun (x : join) (y : join) -> same_col x.left y.left && same_col x.right y.right)
       a.joins b.joins
  && List.equal same_col a.group_by b.group_by
  && List.equal
       (fun (c, d) (c', d') -> same_col c c' && same_direction d d')
       a.order_by b.order_by

(* A hash consistent with [raw_equal]: every field [raw_equal] reads,
   in order, selectivities as [Hashtbl.hash] hashes floats (every NaN
   alike, [-0.] as [0.]), so equal shapes hash alike. *)
let raw_hash (q : query) =
  let mix h x = (h * 31) + Hashtbl.hash x in
  let mix_col h (c : col_ref) = mix (mix h c.table) c.column in
  let h = List.fold_left mix 0 q.tables in
  let h =
    List.fold_left
      (fun h -> function
        | Col c -> mix_col (mix h 0) c
        | Agg (f, c) -> mix_col (mix h (1 + agg_rank f)) c)
      h q.select
  in
  let h =
    List.fold_left
      (fun h (p : predicate) ->
        mix (mix (mix (mix_col h p.pred_col) (cmp_rank p.cmp)) p.selectivity)
          p.is_equality)
      h q.predicates
  in
  let h =
    List.fold_left (fun h (j : join) -> mix_col (mix_col h j.left) j.right) h q.joins
  in
  let h = List.fold_left mix_col h q.group_by in
  List.fold_left
    (fun h (c, d) -> mix (mix_col h c) (match d with Asc -> 0 | Desc -> 1))
    h q.order_by
  land max_int

(* Tables keyed by raw shape: [raw_equal] with a hash consistent with
   it. *)
module Raw_tbl = Hashtbl.Make (struct
  type t = query

  let equal = raw_equal
  let hash = raw_hash
end)

let update_key (u : update) =
  let u = normalize_update u in
  let b = Buffer.create 128 in
  Printf.bprintf b "%S|set[" u.target;
  buf_list (fun b c -> Printf.bprintf b "%S" c) b u.set_columns;
  Buffer.add_string b "]w[";
  buf_list buf_predicate b u.where;
  Buffer.add_char b ']';
  Buffer.contents b

let statement_key = function
  | Select q -> "select:" ^ key q
  | Update u -> "update:" ^ update_key u
