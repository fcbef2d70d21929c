(* Tests for the constraint language, its classification and its
   linearization. *)

let schema = Catalog.Tpch.schema ()

let ix ?clustered table keys = Storage.Index.create ?clustered ~table keys

let candidates =
  [|
    ix "lineitem" [ "l_shipdate" ];
    ix "lineitem" [ "l_shipdate"; "l_quantity"; "l_extendedprice"; "l_discount"; "l_tax"; "l_shipmode" ];
    ix "orders" [ "o_orderdate" ];
    ix ~clustered:true "orders" [ "o_custkey" ];
    ix ~clustered:true "orders" [ "o_orderdate" ];
  |]

(* The z rows of a single constraint. *)
let rows c = (Constr.split schema candidates [ c ]).Constr.z_rows

(* An extra storage row next to the solver's budget. *)
let storage bound =
  Constr.Index_sum
    { scope = Constr.all_indexes; metric = Constr.Size_bytes;
      cmp = Constr.Le; bound }

let test_storage_budget_row () =
  let rows = rows (storage 1e9) in
  Alcotest.(check int) "one row" 1 (List.length rows);
  let row = List.hd rows in
  Alcotest.(check int) "all candidates" 5 (List.length row.Constr.row_coeffs);
  List.iter
    (fun (i, c) ->
      Alcotest.(check (float 1.0)) "coefficient is size"
        (Storage.Index.size_bytes schema candidates.(i))
        c)
    row.Constr.row_coeffs

let test_index_sum_scoped () =
  let c =
    Constr.Index_sum
      { scope = Constr.on_table "lineitem"; metric = Constr.Count;
        cmp = Constr.Le; bound = 1.0 }
  in
  let rows = rows c in
  let row = List.hd rows in
  Alcotest.(check int) "only lineitem candidates" 2
    (List.length row.Constr.row_coeffs);
  (* selecting both lineitem indexes violates it *)
  let z = [| true; true; false; false; false |] in
  Alcotest.(check bool) "violated" false (Constr.row_holds row z);
  let z1 = [| true; false; false; false; false |] in
  Alcotest.(check bool) "satisfied" true (Constr.row_holds row z1)

let test_key_width_filter () =
  let c =
    Constr.Index_sum
      { scope = Constr.wide_indexes 5; metric = Constr.Count;
        cmp = Constr.Le; bound = 0.0 }
  in
  let rows = rows c in
  let row = List.hd rows in
  (* only the 6-column lineitem index is wide *)
  Alcotest.(check int) "one wide candidate" 1 (List.length row.Constr.row_coeffs);
  Alcotest.(check int) "it is candidate 1" 1 (fst (List.hd row.Constr.row_coeffs))

let test_clustered_rows () =
  let rows = rows Constr.At_most_one_clustered in
  (* only orders has clustered candidates -> one row with 2 entries *)
  Alcotest.(check int) "one table" 1 (List.length rows);
  let row = List.hd rows in
  Alcotest.(check int) "two clustered" 2 (List.length row.Constr.row_coeffs);
  let z_both = [| false; false; false; true; true |] in
  Alcotest.(check bool) "both clustered violates" false (Constr.row_holds row z_both)

let test_mandatory_forbidden () =
  let m = Constr.Mandatory [ candidates.(0) ] in
  let f = Constr.Forbidden [ candidates.(2) ] in
  let mrow = List.hd (rows m) in
  let frow = List.hd (rows f) in
  let z = [| true; false; false; false; false |] in
  Alcotest.(check bool) "mandatory ok" true (Constr.row_holds mrow z);
  Alcotest.(check bool) "forbidden ok" true (Constr.row_holds frow z);
  let z2 = [| false; false; true; false; false |] in
  Alcotest.(check bool) "mandatory violated" false (Constr.row_holds mrow z2);
  Alcotest.(check bool) "forbidden violated" false (Constr.row_holds frow z2);
  (* unknown indexes are ignored in linearization *)
  let unknown = Constr.Mandatory [ ix "part" [ "p_brand" ] ] in
  Alcotest.(check int) "unknown skipped" 0
    (List.length (rows unknown))

let test_generators () =
  (match Constr.for_all_queries 0.5 with
  | Constr.Query_cost_cap { query_pred; factor } ->
      Alcotest.(check (float 0.0)) "factor" 0.5 factor;
      Alcotest.(check bool) "covers all" true (query_pred 123)
  | _ -> Alcotest.fail "wrong constructor");
  match Constr.for_query 7 0.5 with
  | Constr.Query_cost_cap { query_pred; _ } ->
      Alcotest.(check bool) "only 7" true (query_pred 7 && not (query_pred 8))
  | _ -> Alcotest.fail "wrong constructor"

(* Linear constraints become z rows; caps and black boxes become none. *)
let test_classification () =
  let linear =
    [ storage 1.0; Constr.At_most_one_clustered;
      Constr.Mandatory [ candidates.(0) ]; Constr.Forbidden [ candidates.(2) ] ]
  in
  let sp = Constr.split schema candidates linear in
  Alcotest.(check int) "one row each" 4 (List.length sp.Constr.z_rows);
  Alcotest.(check int) "no caps" 0 (List.length sp.Constr.caps);
  Alcotest.(check bool) "no gate" true (Option.is_none sp.Constr.accept);
  let sp = Constr.split schema candidates [ Constr.for_all_queries 0.5 ] in
  Alcotest.(check int) "a cap has no row" 0 (List.length sp.Constr.z_rows);
  Alcotest.(check int) "one cap" 1 (List.length sp.Constr.caps)

(* Caps come out with their coverage and factor, for the caller to
   price; the black boxes come out as one conjunction over selections. *)
let test_split_caps_and_gates () =
  let count_le k =
    Constr.Udf
      {
        udf_name = Printf.sprintf "at most %d" k;
        accepts =
          (fun cands z ->
            Alcotest.(check int) "gate sees the candidates"
              (Array.length candidates) (Array.length cands);
            Array.fold_left (fun n b -> if b then n + 1 else n) 0 z <= k);
      }
  in
  let sp =
    Constr.split schema candidates
      [ Constr.for_query 7 0.75; count_le 2;
        Constr.Forbidden [ candidates.(1) ]; count_le 1 ]
  in
  Alcotest.(check (list string)) "only the forbidden row"
    [ "forbidden " ^ Storage.Index.to_string candidates.(1) ]
    (List.map (fun r -> r.Constr.row_name) sp.Constr.z_rows);
  (match sp.Constr.caps with
  | [ { Constr.query_pred; factor } ] ->
      Alcotest.(check (float 0.0)) "factor" 0.75 factor;
      Alcotest.(check bool) "covers 7 only" true
        (query_pred 7 && not (query_pred 8))
  | _ -> Alcotest.fail "expected one cap");
  match sp.Constr.accept with
  | None -> Alcotest.fail "expected a gate"
  | Some accept ->
      Alcotest.(check bool) "one index passes both" true
        (accept [| true; false; false; false; false |]);
      Alcotest.(check bool) "two fail the tighter one" false
        (accept [| true; false; true; false; false |])

(* linearization soundness: a selection satisfies the constraint object iff
   it satisfies all its rows *)
let prop_linearization_sound =
  QCheck.Test.make ~name:"linearize rows match direct semantics" ~count:100
    QCheck.(int_range 0 31)
    (fun mask ->
      let z = Array.init 5 (fun i -> mask land (1 lsl i) <> 0) in
      let budget_holds =
        let total =
          Array.to_list candidates
          |> List.mapi (fun i ix -> if z.(i) then Storage.Index.size_bytes schema ix else 0.0)
          |> List.fold_left ( +. ) 0.0
        in
        total <= 2e8
      in
      let rows = rows (storage 2e8) in
      List.for_all (fun r -> Constr.row_holds r z) rows = budget_holds)

let () =
  Alcotest.run "constr"
    [
      ( "linearize",
        [
          Alcotest.test_case "storage budget" `Quick test_storage_budget_row;
          Alcotest.test_case "scoped index sum" `Quick test_index_sum_scoped;
          Alcotest.test_case "key-width filter" `Quick test_key_width_filter;
          Alcotest.test_case "clustered" `Quick test_clustered_rows;
          Alcotest.test_case "mandatory/forbidden" `Quick test_mandatory_forbidden;
          QCheck_alcotest.to_alcotest prop_linearization_sound;
        ] );
      ( "semantics",
        [ Alcotest.test_case "generators" `Quick test_generators ] );
      ( "split",
        [
          Alcotest.test_case "classification" `Quick test_classification;
          Alcotest.test_case "caps and gates" `Quick test_split_caps_and_gates;
        ] );
    ]
