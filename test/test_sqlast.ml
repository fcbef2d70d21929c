(* Tests for the SQL AST, printer, and parser. *)

open Sqlast

let schema = Catalog.Tpch.schema ()

let sample_query () =
  {
    Ast.query_id = 1;
    tables = [ "orders"; "lineitem" ];
    select =
      [ Ast.Col (Ast.col_ref "lineitem" "l_shipmode");
        Ast.Agg (Ast.Count, Ast.col_ref "orders" "o_orderkey") ];
    predicates =
      [ Ast.predicate ~selectivity:0.01
          (Ast.col_ref "lineitem" "l_shipmode") Ast.Eq;
        Ast.predicate ~selectivity:0.2
          (Ast.col_ref "orders" "o_orderdate") Ast.Le ];
    joins =
      [ { Ast.left = Ast.col_ref "orders" "o_orderkey";
          right = Ast.col_ref "lineitem" "l_orderkey" } ];
    group_by = [ Ast.col_ref "lineitem" "l_shipmode" ];
    order_by = [ (Ast.col_ref "lineitem" "l_shipmode", Ast.Asc) ];
  }

(* --- AST helpers --- *)

let test_predicate_validation () =
  Alcotest.check_raises "bad selectivity"
    (Invalid_argument "Ast.predicate: selectivity out of [0,1]") (fun () ->
      ignore (Ast.predicate ~selectivity:1.5 (Ast.col_ref "t" "c") Ast.Eq))

let test_table_predicates () =
  let q = sample_query () in
  Alcotest.(check int) "lineitem preds" 1
    (List.length (Ast.table_predicates q "lineitem"));
  Alcotest.(check int) "orders preds" 1
    (List.length (Ast.table_predicates q "orders"));
  Alcotest.(check int) "absent table" 0
    (List.length (Ast.table_predicates q "part"))

let test_join_columns () =
  let q = sample_query () in
  let jl = Ast.join_columns q "lineitem" in
  Alcotest.(check int) "one join col" 1 (List.length jl);
  Alcotest.(check string) "join col name" "l_orderkey"
    (List.hd jl).Ast.column

let test_referenced_columns () =
  let q = sample_query () in
  let cols = Ast.referenced_columns q "lineitem" in
  Alcotest.(check (list string)) "lineitem refs"
    [ "l_orderkey"; "l_shipmode" ] cols;
  let ocols = Ast.referenced_columns q "orders" in
  Alcotest.(check (list string)) "orders refs"
    [ "o_orderdate"; "o_orderkey" ] ocols

let test_validate () =
  let q = sample_query () in
  Alcotest.(check bool) "valid" true (Ast.validate schema q = Ok ());
  let bad = { q with Ast.tables = [ "orders"; "orders" ] } in
  Alcotest.(check bool) "duplicate table rejected" true
    (Result.is_error (Ast.validate schema bad));
  let bad2 =
    { q with
      Ast.select = [ Ast.Col (Ast.col_ref "lineitem" "nonexistent") ] }
  in
  Alcotest.(check bool) "unknown column rejected" true
    (Result.is_error (Ast.validate schema bad2))

let test_query_shell () =
  let u =
    { Ast.update_id = 9; target = "customer"; set_columns = [ "c_acctbal" ];
      where = [ Ast.predicate ~selectivity:0.001
                  (Ast.col_ref "customer" "c_custkey") Ast.Eq ] }
  in
  let shell = Ast.query_shell u in
  Alcotest.(check (list string)) "shell tables" [ "customer" ] shell.Ast.tables;
  Alcotest.(check int) "shell preds" 1 (List.length shell.Ast.predicates);
  Alcotest.(check int) "shell id" 9 shell.Ast.query_id

let test_workload_split () =
  let q = sample_query () in
  let u =
    { Ast.update_id = 2; target = "customer"; set_columns = [ "c_acctbal" ];
      where = [] }
  in
  let w =
    [ { Ast.stmt = Ast.Select q; weight = 2.0 };
      { Ast.stmt = Ast.Update u; weight = 3.0 } ]
  in
  (* updates contribute their query shells to the select side *)
  Alcotest.(check int) "selects incl shells" 2 (List.length (Ast.selects w));
  Alcotest.(check int) "updates" 1 (List.length (Ast.updates w));
  let _, weight = List.nth (Ast.selects w) 1 in
  Alcotest.(check (float 1e-9)) "weights carried" 3.0 weight

(* --- Printer / parser round-trip --- *)

let test_print_select () =
  let text = Print.statement_to_string (Ast.Select (sample_query ())) in
  Alcotest.(check bool) "has SELECT" true
    (String.length text > 0 && String.sub text 0 6 = "SELECT");
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has FROM" true (contains "FROM");
  Alcotest.(check bool) "has GROUP BY" true (contains "GROUP BY");
  Alcotest.(check bool) "has sel hint" true (contains "/*sel=")

let test_parse_simple () =
  match Parse.statement schema "SELECT l_quantity FROM lineitem WHERE l_shipdate <= ?" with
  | Ast.Select q ->
      Alcotest.(check (list string)) "tables" [ "lineitem" ] q.Ast.tables;
      Alcotest.(check int) "preds" 1 (List.length q.Ast.predicates);
      let p = List.hd q.Ast.predicates in
      Alcotest.(check bool) "range default 1/3" true
        (abs_float (p.Ast.selectivity -. (1.0 /. 3.0)) < 1e-9)
  | Ast.Update _ -> Alcotest.fail "expected select"

let test_parse_join_and_agg () =
  let sql =
    "SELECT o_orderpriority, COUNT(o_orderkey) FROM orders, lineitem \
     WHERE orders.o_orderkey = lineitem.l_orderkey AND l_shipmode = 'AIR' \
     GROUP BY o_orderpriority ORDER BY o_orderpriority ASC;"
  in
  match Parse.statement schema sql with
  | Ast.Select q ->
      Alcotest.(check int) "joins" 1 (List.length q.Ast.joins);
      Alcotest.(check int) "preds" 1 (List.length q.Ast.predicates);
      Alcotest.(check int) "group" 1 (List.length q.Ast.group_by);
      Alcotest.(check int) "order" 1 (List.length q.Ast.order_by);
      (* bare columns resolved to their tables *)
      Alcotest.(check string) "resolved table" "lineitem"
        (List.hd q.Ast.predicates).Ast.pred_col.Ast.table
  | Ast.Update _ -> Alcotest.fail "expected select"

let test_parse_update () =
  match
    Parse.statement schema
      "UPDATE customer SET c_acctbal = 0 WHERE c_custkey = 42"
  with
  | Ast.Update u ->
      Alcotest.(check string) "target" "customer" u.Ast.target;
      Alcotest.(check (list string)) "set" [ "c_acctbal" ] u.Ast.set_columns;
      Alcotest.(check int) "where" 1 (List.length u.Ast.where)
  | Ast.Select _ -> Alcotest.fail "expected update"

let test_parse_errors () =
  let expect_fail sql =
    match Parse.statement schema sql with
    | exception Parse.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error on %S" sql
  in
  expect_fail "SELECT x FROM nonexistent";
  expect_fail "SELECT nonexistent FROM lineitem";
  expect_fail "DELETE FROM lineitem";
  expect_fail "SELECT l_quantity FROM lineitem WHERE";
  (* o_orderkey is ambiguous?  no — unique; c_custkey vs o_custkey are
     distinct; build a genuinely ambiguous case via two tables sharing
     no column: skip.  Trailing garbage: *)
  expect_fail "SELECT l_quantity FROM lineitem extra"

(* A selectivity hint that is NaN or outside [0,1] is a parse error,
   not a predicate with a meaningless selectivity or an escaping
   [Invalid_argument]; [Ast.predicate] refuses NaN too. *)
let test_parse_bad_selectivity_hint () =
  List.iter
    (fun hint ->
      let sql =
        Printf.sprintf
          "SELECT lineitem.l_returnflag FROM lineitem WHERE \
           lineitem.l_shipdate <= ? /*sel=%s*/"
          hint
      in
      match Parse.statement schema sql with
      | exception Parse.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted the hint sel=%s" hint)
    [ "nan"; "inf"; "1.5"; "-0.5" ];
  (match Ast.predicate ~selectivity:Float.nan (Ast.col_ref "t" "c") Ast.Eq with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Ast.predicate accepted a NaN selectivity");
  match
    Parse.statement schema
      "SELECT lineitem.l_returnflag FROM lineitem WHERE \
       lineitem.l_shipdate <= ? /*sel=1*/"
  with
  | Ast.Select { Ast.predicates = [ p ]; _ } ->
      Alcotest.(check (float 0.0)) "sel=1 is in range" 1.0 p.Ast.selectivity
  | _ -> Alcotest.fail "expected one predicate"

let test_roundtrip () =
  let q = sample_query () in
  let text = Print.statement_to_string (Ast.Select q) in
  match Parse.statement schema text with
  | Ast.Select q' ->
      Alcotest.(check (list string)) "tables" q.Ast.tables q'.Ast.tables;
      Alcotest.(check int) "joins" (List.length q.Ast.joins)
        (List.length q'.Ast.joins);
      Alcotest.(check int) "preds" (List.length q.Ast.predicates)
        (List.length q'.Ast.predicates);
      (* selectivities travel through the /*sel*/ hints *)
      List.iter2
        (fun p p' ->
          Alcotest.(check (float 1e-6)) "selectivity" p.Ast.selectivity
            p'.Ast.selectivity)
        q.Ast.predicates q'.Ast.predicates
  | Ast.Update _ -> Alcotest.fail "expected select"

let test_parse_script () =
  let stmts =
    Parse.script schema
      "SELECT l_quantity FROM lineitem; SELECT o_orderkey FROM orders;
       UPDATE customer SET c_acctbal = 1"
  in
  Alcotest.(check int) "three statements" 3 (List.length stmts)

(* Round-trip over randomly generated workloads. *)
let prop_workload_roundtrip =
  QCheck.Test.make ~name:"generated workloads reparse" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let w = Workload.Gen.hom schema ~n:15 ~seed in
      List.for_all
        (fun { Ast.stmt; _ } ->
          let text = Print.statement_to_string stmt in
          match Parse.statement schema text with
          | Ast.Select _ | Ast.Update _ -> true
          | exception Parse.Parse_error _ -> false)
        w)

(* --- Canonicalization --- *)

(* A spelling-only permutation of a query: every list whose order the
   canonical form ignores is reversed, joins are flipped, and the id is
   renamed.  The canonical key must not see any of it. *)
let scramble (q : Ast.query) =
  {
    q with
    Ast.query_id = q.Ast.query_id + 1000;
    tables = List.rev q.Ast.tables;
    select = List.rev q.Ast.select;
    predicates = List.rev q.Ast.predicates;
    joins =
      List.rev_map
        (fun { Ast.left; right } -> { Ast.left = right; right = left })
        q.Ast.joins;
    group_by = List.rev q.Ast.group_by;
  }

let test_canon_idempotent () =
  let q = Canon.normalize (sample_query ()) in
  Alcotest.(check bool) "normalize is idempotent" true (Canon.normalize q = q);
  Alcotest.(check string) "key stable under normalize" (Canon.key q)
    (Canon.key (Canon.normalize q))

let test_canon_statement_key_prefixes () =
  let q = sample_query () in
  let u =
    {
      Ast.update_id = 9;
      target = "orders";
      set_columns = [ "o_comment" ];
      where =
        [ Ast.predicate ~selectivity:0.01
            (Ast.col_ref "orders" "o_orderkey") Ast.Eq ];
    }
  in
  let sk = Canon.statement_key (Ast.Select q) in
  let uk = Canon.statement_key (Ast.Update u) in
  Alcotest.(check bool) "select prefixed" true
    (String.length sk > 7 && String.sub sk 0 7 = "select:");
  Alcotest.(check bool) "update prefixed" true
    (String.length uk > 7 && String.sub uk 0 7 = "update:");
  Alcotest.(check bool) "keys differ across kinds" true (sk <> uk)

(* Invariance: the key ignores spelling (list order, join orientation,
   query id) across randomly generated workloads. *)
let prop_canon_key_invariant =
  QCheck.Test.make ~name:"canonical key ignores spelling" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let w = Workload.Gen.hom schema ~n:12 ~seed in
      List.for_all
        (fun { Ast.stmt; _ } ->
          match stmt with
          | Ast.Update _ -> true
          | Ast.Select q -> Canon.key q = Canon.key (scramble q))
        w)

(* Distinctness: structural edits — a changed selectivity, a dropped
   select item, a dropped predicate — must change the key. *)
let prop_canon_key_distinct =
  QCheck.Test.make ~name:"canonical key separates structures" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let w = Workload.Gen.hom schema ~n:12 ~seed in
      List.for_all
        (fun { Ast.stmt; _ } ->
          match stmt with
          | Ast.Update _ -> true
          | Ast.Select q ->
              let k = Canon.key q in
              let sel_changed =
                match q.Ast.predicates with
                | [] -> true
                | p :: rest ->
                    let p' =
                      { p with Ast.selectivity = p.Ast.selectivity /. 2.0 }
                    in
                    Canon.key { q with Ast.predicates = p' :: rest } <> k
                    && (rest = []
                       || Canon.key { q with Ast.predicates = rest } <> k)
              in
              let select_changed =
                match q.Ast.select with
                | [] | [ _ ] -> true
                | _ :: rest -> Canon.key { q with Ast.select = rest } <> k
              in
              sel_changed && select_changed)
        w)

(* [raw_equal] agrees with [raw_key] equality on every pair drawn from a
   generated workload and its edits: a new query id, scrambled clauses,
   a selectivity halved, set to 0. or -0., or to NaN of either sign (the
   last four bypass [Ast.predicate]'s range check); and a [Raw_tbl]
   holding one of two raw-equal queries finds the other. *)
let prop_raw_equal_is_raw_key =
  QCheck.Test.make ~name:"raw_equal = raw_key equality" ~count:20
    QCheck.(pair bool (int_range 0 10_000))
    (fun (het, seed) ->
      let w =
        if het then Workload.Gen.het schema ~n:6 ~seed
        else Workload.Gen.hom schema ~n:6 ~seed
      in
      let with_sel q s =
        match q.Ast.predicates with
        | [] -> q
        | p :: rest ->
            { q with Ast.predicates = { p with Ast.selectivity = s } :: rest }
      in
      let variants q =
        let sel =
          match q.Ast.predicates with p :: _ -> p.Ast.selectivity | [] -> 1.0
        in
        [ q; { q with Ast.query_id = q.Ast.query_id + 1000 }; scramble q;
          with_sel q (sel /. 2.0); with_sel q 0.0; with_sel q (-0.0);
          with_sel q Float.nan; with_sel q (-.Float.nan) ]
      in
      let qs =
        List.concat_map
          (fun { Ast.stmt; _ } ->
            match stmt with Ast.Select q -> variants q | Ast.Update _ -> [])
          w
      in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              Bool.equal (Canon.raw_equal a b)
                (String.equal (Canon.raw_key a) (Canon.raw_key b))
              && ((not (Canon.raw_equal a b))
                 ||
                 let tbl = Canon.Raw_tbl.create 1 in
                 Canon.Raw_tbl.replace tbl a ();
                 Canon.Raw_tbl.mem tbl b))
            qs)
        qs)

let () =
  Alcotest.run "sqlast"
    [
      ( "ast",
        [
          Alcotest.test_case "predicate validation" `Quick test_predicate_validation;
          Alcotest.test_case "table predicates" `Quick test_table_predicates;
          Alcotest.test_case "join columns" `Quick test_join_columns;
          Alcotest.test_case "referenced columns" `Quick test_referenced_columns;
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "query shell" `Quick test_query_shell;
          Alcotest.test_case "workload split" `Quick test_workload_split;
        ] );
      ( "parse",
        [
          Alcotest.test_case "print select" `Quick test_print_select;
          Alcotest.test_case "simple" `Quick test_parse_simple;
          Alcotest.test_case "join and agg" `Quick test_parse_join_and_agg;
          Alcotest.test_case "update" `Quick test_parse_update;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "selectivity hint outside [0,1]" `Quick
            test_parse_bad_selectivity_hint;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "script" `Quick test_parse_script;
          QCheck_alcotest.to_alcotest prop_workload_roundtrip;
        ] );
      ( "canon",
        [
          Alcotest.test_case "idempotent" `Quick test_canon_idempotent;
          Alcotest.test_case "statement key prefixes" `Quick
            test_canon_statement_key_prefixes;
          QCheck_alcotest.to_alcotest prop_canon_key_invariant;
          QCheck_alcotest.to_alcotest prop_canon_key_distinct;
          QCheck_alcotest.to_alcotest prop_raw_equal_is_raw_key;
        ] );
    ]
