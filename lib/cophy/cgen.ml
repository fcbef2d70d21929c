(* CGen — candidate-index generation (paper §4).  Examines each query and
   generates a large number of candidates from the referenced columns with
   standard heuristics, without any complex pruning; the DBA may add an
   interesting set of her own.  The union over the workload forms S. *)

open Sqlast

(* Deterministic column orderings make candidate sets reproducible. *)
let sorted_uniq = List.sort_uniq String.compare

(* Per-query, per-table candidates. *)
let table_candidates (q : Ast.query) table =
  let preds = Ast.table_predicates q table in
  let eq_cols =
    List.filter_map
      (fun p -> if p.Ast.is_equality then Some p.Ast.pred_col.Ast.column else None)
      preds
    |> sorted_uniq
  in
  let range_cols =
    List.filter_map
      (fun p ->
        if p.Ast.is_equality then None else Some p.Ast.pred_col.Ast.column)
      preds
    |> sorted_uniq
  in
  let join_cols =
    List.map (fun (c : Ast.col_ref) -> c.Ast.column) (Ast.join_columns q table)
    |> sorted_uniq
  in
  let group_cols =
    List.filter_map
      (fun (c : Ast.col_ref) ->
        if c.Ast.table = table then Some c.Ast.column else None)
      q.Ast.group_by
  in
  let order_cols =
    List.filter_map
      (fun ((c : Ast.col_ref), _) ->
        if c.Ast.table = table then Some c.Ast.column else None)
      q.Ast.order_by
  in
  let referenced = Ast.referenced_columns q table in
  let mk ?(includes = []) keys =
    if keys = [] then [] else [ Storage.Index.create ~table ~includes keys ]
  in
  let distinct_prefix cols =
    (* drop duplicates keeping first occurrence *)
    List.fold_left
      (fun acc c -> if List.mem c acc then acc else acc @ [ c ])
      [] cols
  in
  let shapes =
    (* single-column indexes on every interesting column *)
    List.concat_map (fun c -> mk [ c ]) (sorted_uniq (eq_cols @ range_cols @ join_cols))
    (* multi-column: all equality columns, then one range column *)
    @ mk eq_cols
    @ List.concat_map (fun r -> mk (distinct_prefix (eq_cols @ [ r ]))) range_cols
    (* join column leading, then the equality columns *)
    @ List.concat_map (fun j -> mk (distinct_prefix (j :: eq_cols))) join_cols
    (* group-by and order-by orders *)
    @ mk (distinct_prefix group_cols)
    @ mk (distinct_prefix order_cols)
    @ mk (distinct_prefix (eq_cols @ group_cols))
  in
  (* covering variants: add the query's referenced columns as INCLUDEs *)
  let covering =
    List.map
      (fun ix ->
        Storage.Index.create ~table
          ~includes:referenced
          (Storage.Index.key_columns ix))
      shapes
  in
  shapes @ covering

let query_candidates (q : Ast.query) =
  List.concat_map (fun t -> table_candidates q t) q.Ast.tables

(* Candidate set of a whole workload (update shells included), optionally
   extended with a DBA-provided set.  [query_candidates] reads only the
   fields [Canon.raw_equal] compares, so a statement whose raw shape was
   already expanded adds nothing to the set and is skipped.  The
   canonical key would merge too much: it sorts GROUP BY, and the
   group-by candidates follow the written order. *)
let generate ?(dba = []) (w : Ast.workload) =
  let seen = Canon.Raw_tbl.create 64 in
  let fresh q =
    if Canon.Raw_tbl.mem seen q then false
    else begin
      Canon.Raw_tbl.replace seen q ();
      true
    end
  in
  let per_query =
    List.concat_map
      (fun (q, _) -> if fresh q then query_candidates q else [])
      (Ast.selects w)
  in
  Storage.Config.of_list (per_query @ dba) |> Storage.Config.to_list

(* Random valid indexes, used to inflate S for the scalability experiments
   (the paper's S_L of 10K indexes). *)
let random_candidates schema ~n ~seed =
  let rng = Random.State.make [| seed; 0xcafe |] in
  let tables = Array.of_list (Catalog.Schema.tables schema) in
  List.init n (fun _ ->
      let tbl = tables.(Random.State.int rng (Array.length tables)) in
      let cols = tbl.Catalog.Schema.columns in
      let k = 1 + Random.State.int rng (min 3 (Array.length cols)) in
      let picked = ref [] in
      while List.length !picked < k do
        let c = cols.(Random.State.int rng (Array.length cols)).Catalog.Schema.col_name in
        if not (List.mem c !picked) then picked := c :: !picked
      done;
      Storage.Index.create ~table:tbl.Catalog.Schema.tbl_name !picked)
  |> Storage.Config.of_list |> Storage.Config.to_list
