(* The constraint language for constrained physical-design tuning, after
   Bruno & Chaudhuri (PVLDB 2008) as adopted by the paper (§3.2, App. E):

   - index constraints: linear assertions over per-index quantities
     (size, count, key width, arbitrary weights), optionally scoped to a
     subset of the candidates (the "filters" of the language);
   - the implicit rule of at most one clustered index per table;
   - mandatory / forbidden candidate sets;
   - query-cost constraints: cost(q, X) <= factor * cost(q, X0), possibly
     generated FOR q IN W (the language's generators);
   - black-box predicates over the selection (appendix E.5).

   Soft constraints are not constraints here: CoPhy explores them along
   a Pareto curve ([Cophy.Pareto]).  The storage budget is the solver's
   [~budget] argument.  [split] classifies a list once: everything except
   query-cost caps and black-box predicates linearizes to rows over the
   z variables (one per candidate index), per Appendix E. *)

type cmp = Lp.Problem.sense = Le | Ge | Eq

type index_metric =
  | Size_bytes
  | Count
  | Key_width                       (* number of key columns *)
  | Custom of string * (Storage.Index.t -> float)

(* A named predicate restricting which candidates a constraint covers. *)
type scope = { scope_name : string; applies : Storage.Index.t -> bool }

let all_indexes = { scope_name = "all"; applies = (fun _ -> true) }

let on_table t =
  { scope_name = "table " ^ t; applies = (fun ix -> Storage.Index.table ix = t) }

let wide_indexes k =
  {
    scope_name = Printf.sprintf "width>=%d" k;
    applies = (fun ix -> List.length (Storage.Index.key_columns ix) >= k);
  }

(* A query-cost cap: cost(q, X) <= factor * cost(q, X0) for every
   statement id [query_pred] covers. *)
type cap = { query_pred : int -> bool; factor : float }

type t =
  | Index_sum of {
      scope : scope;
      metric : index_metric;
      cmp : cmp;
      bound : float;
    }
  | At_most_one_clustered
  | Mandatory of Storage.Index.t list
  | Forbidden of Storage.Index.t list
  | Query_cost_cap of cap
  | Udf of {
      udf_name : string;
      (* Black-box predicate over the selection (appendix E.5): not
         linearizable, enforced by rejecting candidate solutions inside
         the solver's search. *)
      accepts : Storage.Index.t array -> bool array -> bool;
    }

(* Generator: FOR q IN W ASSERT cost(q,X) <= factor cost(q,X0). *)
let for_all_queries factor =
  Query_cost_cap { query_pred = (fun _ -> true); factor }

let for_query qid factor =
  Query_cost_cap { query_pred = (fun id -> id = qid); factor }

let metric_value schema metric ix =
  match metric with
  | Size_bytes -> Storage.Index.size_bytes schema ix
  | Count -> 1.0
  | Key_width -> float_of_int (List.length (Storage.Index.key_columns ix))
  | Custom (_, f) -> f ix

let metric_name = function
  | Size_bytes -> "size"
  | Count -> "count"
  | Key_width -> "key_width"
  | Custom (n, _) -> n

(* --- Linearization over the z variables --- *)

type z_row = {
  row_coeffs : (int * float) list;    (* candidate position, coefficient *)
  row_cmp : cmp;
  row_rhs : float;
  row_name : string;
}

(* One row [z_pos cmp rhs] per listed index, at its (last) position in
   [candidates]; indexes outside the candidates get no row. *)
let pin_rows candidates ixs cmp rhs label =
  List.filter_map
    (fun ix ->
      let pos = ref (-1) in
      Array.iteri
        (fun i c -> if Storage.Index.equal c ix then pos := i)
        candidates;
      if !pos < 0 then None
      else
        Some
          {
            row_coeffs = [ (!pos, 1.0) ];
            row_cmp = cmp;
            row_rhs = rhs;
            row_name = label ^ Storage.Index.to_string ix;
          })
    ixs

(* Rows over positions in [candidates] encoding one linear constraint;
   caps and black boxes have none. *)
let linearize schema (candidates : Storage.Index.t array) = function
  | Index_sum { scope; metric; cmp; bound } ->
      [ {
          row_coeffs =
            Array.to_list candidates
            |> List.mapi (fun i ix -> (i, ix))
            |> List.filter (fun (_, ix) -> scope.applies ix)
            |> List.map (fun (i, ix) -> (i, metric_value schema metric ix));
          row_cmp = cmp;
          row_rhs = bound;
          row_name = Printf.sprintf "%s(%s)" (metric_name metric) scope.scope_name;
        } ]
  | At_most_one_clustered ->
      let tables =
        Array.to_list candidates
        |> List.filter Storage.Index.clustered
        |> List.map Storage.Index.table
        |> List.sort_uniq String.compare
      in
      List.map
        (fun t ->
          {
            row_coeffs =
              Array.to_list candidates
              |> List.mapi (fun i ix -> (i, ix))
              |> List.filter (fun (_, ix) ->
                     Storage.Index.clustered ix && Storage.Index.table ix = t)
              |> List.map (fun (i, _) -> (i, 1.0));
            row_cmp = Le;
            row_rhs = 1.0;
            row_name = "clustered(" ^ t ^ ")";
          })
        tables
  | Mandatory ixs -> pin_rows candidates ixs Ge 1.0 "mandatory "
  | Forbidden ixs -> pin_rows candidates ixs Le 0.0 "forbidden "
  | Query_cost_cap _ | Udf _ -> []

(* --- Classification --- *)

type split = {
  z_rows : z_row list;
  caps : cap list;
  accept : (bool array -> bool) option;
}

(* The one classification of a constraint list: the z rows of the linear
   constraints, the query-cost caps (for the caller to price against its
   baseline), and the conjunction of the black-box predicates. *)
let split schema candidates cs =
  let udfs =
    List.filter_map (function Udf { accepts; _ } -> Some accepts | _ -> None) cs
  in
  {
    z_rows = List.concat_map (linearize schema candidates) cs;
    caps =
      List.filter_map (function Query_cost_cap c -> Some c | _ -> None) cs;
    accept =
      (match udfs with
      | [] -> None
      | _ -> Some (fun z -> List.for_all (fun a -> a candidates z) udfs));
  }

(* The rows as named LP rows over [vars] (candidate position -> LP
   variable): the one encoding of a z row every solver path uses. *)
let add_rows p (vars : int array) rows =
  List.iter
    (fun row ->
      ignore
        (Lp.Problem.add_row ~name:row.row_name p
           (List.map (fun (a, c) -> (vars.(a), c)) row.row_coeffs)
           row.row_cmp row.row_rhs))
    rows

(* Does a selection satisfy the row? *)
let row_holds row (z : bool array) =
  let lhs =
    List.fold_left
      (fun acc (i, c) -> if z.(i) then acc +. c else acc)
      0.0 row.row_coeffs
  in
  match row.row_cmp with
  | Le -> lhs <= row.row_rhs +. 1e-9
  | Ge -> lhs >= row.row_rhs -. 1e-9
  | Eq -> abs_float (lhs -. row.row_rhs) <= 1e-9

let pp ppf = function
  | Index_sum { scope; metric; cmp; bound } ->
      Fmt.pf ppf "sum %s over %s %s %g" (metric_name metric) scope.scope_name
        (match cmp with Le -> "<=" | Ge -> ">=" | Eq -> "=")
        bound
  | At_most_one_clustered -> Fmt.string ppf "at most one clustered index per table"
  | Mandatory ixs ->
      Fmt.pf ppf "mandatory: %a" (Fmt.list ~sep:Fmt.comma Storage.Index.pp) ixs
  | Forbidden ixs ->
      Fmt.pf ppf "forbidden: %a" (Fmt.list ~sep:Fmt.comma Storage.Index.pp) ixs
  | Query_cost_cap { factor; _ } ->
      Fmt.pf ppf "for q in W: cost(q,X) <= %g cost(q,X0)" factor
  | Udf { udf_name; _ } -> Fmt.pf ppf "black-box constraint %s" udf_name
