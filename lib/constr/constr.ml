(* The constraint language for constrained physical-design tuning, after
   Bruno & Chaudhuri (PVLDB 2008) as adopted by the paper (§3.2, App. E):

   - index constraints: linear assertions over per-index quantities
     (size, count, key width, arbitrary weights), optionally scoped to a
     subset of the candidates (the "filters" of the language);
   - the implicit rule of at most one clustered index per table;
   - mandatory / forbidden candidate sets;
   - query-cost constraints: cost(q, X) <= factor * cost(q, X0), possibly
     generated FOR q IN W (the language's generators);
   - soft constraints, which CoPhy explores along a Pareto curve instead
     of enforcing.

   Everything except query-cost caps linearizes to rows over the z
   variables (one per candidate index), per Appendix E. *)

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

let scope_and a b =
  {
    scope_name = a.scope_name ^ " & " ^ b.scope_name;
    applies = (fun ix -> a.applies ix && b.applies ix);
  }

type t =
  | Storage_budget of float           (* sum of sizes <= bytes *)
  | Index_sum of {
      scope : scope;
      metric : index_metric;
      cmp : cmp;
      bound : float;
    }
  | At_most_one_clustered
  | Mandatory of Storage.Index.t list
  | Forbidden of Storage.Index.t list
  | Query_cost_cap of {
      query_pred : int -> bool;       (* statement ids covered *)
      factor : float;                 (* w.r.t. the baseline configuration *)
    }
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

type set = {
  hard : t list;
  soft : (string * t) list;           (* label, constraint *)
}

let empty = { hard = []; soft = [] }
let with_budget m = { hard = [ Storage_budget m; At_most_one_clustered ]; soft = [] }
let add_hard c set = { set with hard = c :: set.hard }
let add_soft ~label c set = { set with soft = (label, c) :: set.soft }

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

(* --- Classification --- *)

(* Constraints over z only can be linearized without the full BIP. *)
let z_only = function
  | Storage_budget _ | Index_sum _ | At_most_one_clustered | Mandatory _
  | Forbidden _ ->
      true
  | Query_cost_cap _ | Udf _ -> false

let is_udf = function Udf _ -> true | _ -> false

(* Combined black-box acceptance predicate of a constraint list. *)
let udf_acceptance candidates cs =
  let udfs =
    List.filter_map
      (function Udf { accepts; _ } -> Some accepts | _ -> None)
      cs
  in
  fun z -> List.for_all (fun accepts -> accepts candidates z) udfs

(* --- Linearization over the z variables --- *)

type z_row = {
  row_coeffs : (int * float) list;    (* candidate position, coefficient *)
  row_cmp : cmp;
  row_rhs : float;
  row_name : string;
}

(* Rows over positions in [candidates] encoding one z-only constraint. *)
let linearize schema (candidates : Storage.Index.t array) = function
  | Storage_budget m ->
      [ {
          row_coeffs =
            Array.to_list
              (Array.mapi
                 (fun i ix -> (i, Storage.Index.size_bytes schema ix))
                 candidates);
          row_cmp = Le;
          row_rhs = m;
          row_name = "storage";
        } ]
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
  | Mandatory ixs ->
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
                row_cmp = Ge;
                row_rhs = 1.0;
                row_name = "mandatory " ^ Storage.Index.to_string ix;
              })
        ixs
  | Forbidden ixs ->
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
                row_cmp = Le;
                row_rhs = 0.0;
                row_name = "forbidden " ^ Storage.Index.to_string ix;
              })
        ixs
  | Query_cost_cap _ ->
      invalid_arg "Constr.linearize: query-cost constraints need the full BIP"
  | Udf { udf_name; _ } ->
      invalid_arg
        ("Constr.linearize: black-box constraint " ^ udf_name
       ^ " is enforced inside the solver search")

(* All z-rows of a constraint list. *)
let linearize_all schema candidates cs =
  List.concat_map (linearize schema candidates) (List.filter z_only cs)

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

(* --- Direct evaluation on a configuration --- *)

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

(* [satisfied schema candidates z ~query_cost ~baseline_cost c]: evaluate a
   constraint against a selection [z] of [candidates].  Query-cost caps
   get per-statement costing callbacks. *)
let satisfied schema candidates (z : bool array)
    ~(query_cost : int -> float)      (* statement id -> cost under z *)
    ~(baseline_cost : int -> float)   (* statement id -> cost under X0 *)
    ~(statement_ids : int list) = function
  | Query_cost_cap { query_pred; factor } ->
      List.for_all
        (fun qid ->
          (not (query_pred qid))
          || query_cost qid <= (factor *. baseline_cost qid) +. 1e-6)
        statement_ids
  | Udf { accepts; _ } -> accepts candidates z
  | c -> List.for_all (fun row -> row_holds row z) (linearize schema candidates c)

let pp ppf = function
  | Storage_budget m -> Fmt.pf ppf "storage <= %.3g bytes" m
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
