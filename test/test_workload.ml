(* Tests for the workload generators. *)

open Sqlast

let schema = Catalog.Tpch.schema ()

let test_hom_counts_and_templates () =
  let w = Workload.Gen.hom schema ~n:30 ~seed:1 in
  Alcotest.(check int) "30 statements" 30 (List.length w);
  (* statements cycle over the 15 templates: ids 1..30, tables repeat *)
  let tables_of i =
    match (List.nth w i).Ast.stmt with
    | Ast.Select q -> q.Ast.tables
    | Ast.Update _ -> []
  in
  Alcotest.(check (list string)) "template cycle" (tables_of 0) (tables_of 15)

let test_hom_deterministic () =
  let w1 = Workload.Gen.hom schema ~n:10 ~seed:42 in
  let w2 = Workload.Gen.hom schema ~n:10 ~seed:42 in
  List.iter2
    (fun a b ->
      Alcotest.(check string) "identical"
        (Print.statement_to_string a.Ast.stmt)
        (Print.statement_to_string b.Ast.stmt))
    w1 w2;
  let w3 = Workload.Gen.hom schema ~n:10 ~seed:43 in
  let differs =
    List.exists2
      (fun a b ->
        Print.statement_to_string a.Ast.stmt
        <> Print.statement_to_string b.Ast.stmt)
      w1 w3
  in
  Alcotest.(check bool) "seed matters" true differs

let test_all_statements_valid () =
  let check w =
    List.iter
      (fun { Ast.stmt; _ } ->
        match stmt with
        | Ast.Select q -> (
            match Ast.validate schema q with
            | Ok () -> ()
            | Error e -> Alcotest.failf "invalid query: %s" e)
        | Ast.Update u -> (
            match Ast.validate schema (Ast.query_shell u) with
            | Ok () -> ()
            | Error e -> Alcotest.failf "invalid update shell: %s" e))
      w
  in
  check (Workload.Gen.hom schema ~n:45 ~seed:5);
  check (Workload.Gen.het schema ~n:45 ~seed:5);
  check
    (Workload.Gen.hom schema ~n:45 ~seed:5
    |> Workload.Gen.with_updates schema ~fraction:0.3 ~seed:5)

let test_het_diversity () =
  let w = Workload.Gen.het schema ~n:60 ~seed:9 in
  (* heterogeneous workloads should show many distinct table sets *)
  let signatures =
    List.filter_map
      (fun { Ast.stmt; _ } ->
        match stmt with
        | Ast.Select q -> Some (List.sort compare q.Ast.tables)
        | Ast.Update _ -> None)
      w
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "many table-set shapes" true
    (List.length signatures > 8)

let test_het_connected_joins () =
  let w = Workload.Gen.het schema ~n:60 ~seed:11 in
  List.iter
    (fun { Ast.stmt; _ } ->
      match stmt with
      | Ast.Select q ->
          (* joins connect the table set: #joins = #tables - 1 *)
          Alcotest.(check int) "spanning joins"
            (List.length q.Ast.tables - 1)
            (List.length q.Ast.joins)
      | Ast.Update _ -> ())
    w

let test_with_updates_fraction () =
  let w = Workload.Gen.hom schema ~n:200 ~seed:2 in
  let wu = Workload.Gen.with_updates schema ~fraction:0.25 ~seed:2 w in
  let n_upd =
    List.length (List.filter (fun s -> match s.Ast.stmt with Ast.Update _ -> true | _ -> false) wu)
  in
  Alcotest.(check bool) "about a quarter" true (n_upd > 25 && n_upd < 80);
  Alcotest.check_raises "bad fraction"
    (Invalid_argument "Gen.with_updates: fraction out of [0,1]") (fun () ->
      ignore (Workload.Gen.with_updates schema ~fraction:1.5 ~seed:1 w))

let test_skew_changes_selectivities () =
  let skewed = Catalog.Tpch.schema ~z:2.0 () in
  let sel_product w =
    List.fold_left
      (fun acc { Ast.stmt; _ } ->
        match stmt with
        | Ast.Select q ->
            List.fold_left
              (fun acc p -> acc +. p.Ast.selectivity)
              acc q.Ast.predicates
        | Ast.Update _ -> acc)
      0.0 w
  in
  let s_uniform = sel_product (Workload.Gen.hom schema ~n:30 ~seed:4) in
  let s_skewed = sel_product (Workload.Gen.hom skewed ~n:30 ~seed:4) in
  Alcotest.(check bool) "skew shifts selectivities" true
    (abs_float (s_uniform -. s_skewed) > 1e-6)

let prop_selectivities_in_range =
  QCheck.Test.make ~name:"all selectivities within (0,1]" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let w =
        Workload.Gen.het schema ~n:20 ~seed
        @ Workload.Gen.hom schema ~n:20 ~seed
      in
      List.for_all
        (fun { Ast.stmt; _ } ->
          let preds =
            match stmt with
            | Ast.Select q -> q.Ast.predicates
            | Ast.Update u -> u.Ast.where
          in
          List.for_all
            (fun p -> p.Ast.selectivity > 0.0 && p.Ast.selectivity <= 1.0)
            preds)
        w)

(* --- Selectivity pins --- *)

(* Every predicate selectivity of the benchmark's generated inputs (seed
   7) as [%h], in statement and clause order, digested: the count, then
   the first 12 hex digits of the digest.  A generator change that moves
   one selectivity by one ulp, or draws one value more or less from the
   generator's random state, moves a pin. *)
let selectivities_sig stmts =
  let b = Buffer.create 65536 in
  let n = ref 0 in
  let preds ps =
    List.iter
      (fun (p : Ast.predicate) ->
        incr n;
        Printf.bprintf b "%h;" p.Ast.selectivity)
      ps;
    Buffer.add_char b '|'
  in
  List.iter
    (function
      | Ast.Select q -> preds q.Ast.predicates
      | Ast.Update u -> preds u.Ast.where)
    stmts;
  Printf.sprintf "%d:%s" !n
    (String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 12)

let bench_inputs () =
  let stmts w = List.map (fun (wt : Ast.weighted) -> wt.Ast.stmt) w in
  [
    ("hom n=1000", stmts (Workload.Gen.hom schema ~n:1000 ~seed:7));
    ("het n=30", stmts (Workload.Gen.het schema ~n:30 ~seed:7));
    ("het n=40 seed 8", stmts (Workload.Gen.het schema ~n:40 ~seed:8));
    ( "drift",
      List.filter_map
        (function
          | Workload.Replay.Statement (s, _) -> Some s
          | Workload.Replay.Recommend -> None)
        (Workload.Replay.drift ~recommend_every:10 ~update_fraction:0.1 schema
           ~n:100 ~events:300 ~seed:7) );
  ]

let selectivity_pins =
  [
    "hom n=1000 2131:6371f7c891e4";
    "het n=30 81:ee88b3eab6bd";
    "het n=40 seed 8 115:1a808b17ae65";
    "drift 584:7c15485ed7d6";
  ]

let test_selectivity_pins () =
  Alcotest.(check (list string)) "selectivities" selectivity_pins
    (List.map
       (fun (name, stmts) -> name ^ " " ^ selectivities_sig stmts)
       (bench_inputs ()))

let () =
  Alcotest.run "workload"
    [
      ( "hom",
        [
          Alcotest.test_case "counts and cycle" `Quick test_hom_counts_and_templates;
          Alcotest.test_case "deterministic" `Quick test_hom_deterministic;
        ] );
      ( "het",
        [
          Alcotest.test_case "diversity" `Quick test_het_diversity;
          Alcotest.test_case "connected joins" `Quick test_het_connected_joins;
        ] );
      ( "common",
        [
          Alcotest.test_case "validity" `Quick test_all_statements_valid;
          Alcotest.test_case "update mixing" `Quick test_with_updates_fraction;
          Alcotest.test_case "skew sensitivity" `Quick test_skew_changes_selectivities;
          QCheck_alcotest.to_alcotest prop_selectivities_in_range;
        ] );
      ( "pins",
        [
          Alcotest.test_case "benchmark inputs' selectivities" `Quick
            test_selectivity_pins;
        ] );
    ]
