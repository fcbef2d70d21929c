(* cophy-race tests: the fixture library under race_fixtures/ is
   compiled normally by dune; we analyze its .cmt typed trees with
   Race_core and assert the exact diagnostics each deliberate
   interference pattern produces.  The final guard analyzes every lib/
   library the @race alias covers and asserts the committed tree is
   interference-clean — a new unjustified shared write fails here as
   well as in CI. *)

(* Runs under `dune runtest` (cwd = _build/default/test) and under
   `dune exec test/test_race.exe` from the project root, as CI's race
   job does. *)
let base =
  if Sys.file_exists "race_fixtures" then "" else "_build/default/test/"

let fixture_dir = base ^ "race_fixtures/.race_fixtures.objs/byte"

let cmts_of dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".cmt")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let analyze_fixtures () = Race_core.analyze (cmts_of fixture_dir)

let with_rule name vs = List.filter (fun v -> v.Race_core.rule = name) vs

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let mentions needle v =
  contains (v.Race_core.where ^ " " ^ v.Race_core.message) needle

(* --- The seeded races are caught, with actionable diagnostics --- *)

let test_racy_fixture () =
  let vs = Race_core.run_checks (analyze_fixtures ()) in
  let shared = with_rule "shared_mutable" vs in
  Alcotest.(check int) "three unjustified shared writes" 3
    (List.length shared);
  List.iter
    (fun v ->
      Alcotest.(check bool) "located in rf_racy.ml" true
        (contains v.Race_core.where "rf_racy.ml");
      Alcotest.(check bool) "names the parallel_map spawn site" true
        (mentions "Runtime.parallel_map at" v);
      Alcotest.(check bool) "suggests the [@race.allow] escape hatch" true
        (mentions "[@race.allow" v);
      match v.Race_core.path with
      | spawn :: _ ->
          Alcotest.(check bool) "path starts at the spawn site" true
            (contains spawn "spawned: ")
      | [] -> Alcotest.fail "finding carries no spawn->write path")
    shared;
  let has target kind =
    List.exists (fun v -> mentions target v && mentions kind v) shared
  in
  Alcotest.(check bool) "module-level hits race, named as such" true
    (has "Race_fixtures.Rf_racy.hits" "module-level");
  Alcotest.(check bool) "captured sum race, named as such" true
    (has "captured sum" "ref assignment");
  (* both closures writing [hits] are reported — the misdirected allow in
     bump_parallel suppresses nothing *)
  Alcotest.(check int) "both hits writers reported" 2
    (List.length
       (List.filter (fun v -> mentions "Race_fixtures.Rf_racy.hits" v) shared))

let test_unused_allow () =
  let vs = Race_core.run_checks (analyze_fixtures ()) in
  let unused = with_rule "unused_allow" vs in
  Alcotest.(check int) "exactly one stale justification" 1
    (List.length unused);
  let v = List.hd unused in
  Alcotest.(check bool) "names the misdirected target" true
    (mentions "wrong_target" v);
  Alcotest.(check bool) "located in rf_racy.ml" true
    (contains v.Race_core.where "rf_racy.ml")

let test_sarif_output () =
  (* the --json rendering of the same findings: rule ids, the physical
     location, and the spawn-site -> write path must all survive into
     the machine-readable report *)
  let vs = Race_core.run_checks (analyze_fixtures ()) in
  let log =
    Ak_findings.sarif_log ~tool:"cophy-race" ~rules:Race_core.all_rule_names vs
  in
  Alcotest.(check bool) "SARIF version tag" true
    (contains log {|"version":"2.1.0"|});
  Alcotest.(check bool) "shared_mutable results present" true
    (contains log {|"ruleId":"shared_mutable"|});
  Alcotest.(check bool) "unused_allow result present" true
    (contains log {|"ruleId":"unused_allow"|});
  Alcotest.(check bool) "physical location points at the fixture" true
    (contains log {|"uri":"test/race_fixtures/rf_racy.ml"|});
  Alcotest.(check bool) "spawn path is embedded" true
    (contains log "spawned: Runtime.parallel_map at")

(* --- Justified and slot-disjoint writes are silent, not skipped --- *)

let test_clean_fixtures_silent () =
  let vs = Race_core.run_checks (analyze_fixtures ()) in
  Alcotest.(check int) "no findings mention rf_allowed" 0
    (List.length (List.filter (mentions "rf_allowed") vs));
  Alcotest.(check int) "no findings mention rf_slotted" 0
    (List.length (List.filter (mentions "rf_slotted") vs))

let test_roots_registered () =
  (* silence is because the writes are justified / slot-disjoint /
     task-confined — not because the closures escaped the analysis *)
  let t = analyze_fixtures () in
  ignore (Race_core.run_checks t);
  let roots = Race_core.spawn_roots t in
  let has_root frag = List.exists (fun n -> contains n frag) roots in
  Alcotest.(check bool) "rf_allowed closure is a spawn root" true
    (has_root "Rf_allowed.total{closure@");
  Alcotest.(check bool) "rf_slotted closure is a spawn root" true
    (has_root "Rf_slotted.squares_into{closure@");
  Alcotest.(check bool) "rf_slotted per-task frame closure is a root" true
    (has_root "Rf_slotted.row_sums{closure@")

(* --- Negative guard: the committed lib/ tree is interference-clean --- *)

let lib_names =
  [ "advisors"; "catalog"; "constr"; "cophy"; "inum"; "lp"; "optimizer";
    "runtime"; "serve"; "sqlast"; "storage"; "workload" ]

let test_lib_tree_clean () =
  let files =
    List.concat_map
      (fun l -> cmts_of (Printf.sprintf "%s../lib/%s/.%s.objs/byte" base l l))
      lib_names
  in
  Alcotest.(check bool) "lib/ typed trees were found" true
    (List.length files > 30);
  let t = Race_core.analyze files in
  let vs = Race_core.run_checks t in
  List.iter (Race_core.pp_violation stderr) vs;
  Alcotest.(check int) "every lib/ spawn seam is interference-clean" 0
    (List.length vs);
  Alcotest.(check bool) "the audit actually covered the seams" true
    (List.length (Race_core.spawn_roots t) >= 10)

(* Both whole-program analyzers read the one seam list in the kernel
   ([Ak_seams.seams]), argument position included, so cophy-dsa audits
   the effects of exactly the closures whose writes cophy-race audits:
   branch and bound's node evaluator at [parallel_map], and the pool's
   helper job at [Runtime.submit]'s second argument. *)
let test_dsa_same_roots () =
  let files =
    List.concat_map
      (fun l -> cmts_of (Printf.sprintf "%s../lib/%s/.%s.objs/byte" base l l))
      lib_names
  in
  let race = Race_core.spawn_roots (Race_core.analyze files) in
  let dsa = Dsa_core.spawn_roots (Dsa_core.analyze files) in
  Alcotest.(check (list string)) "same spawn roots" race dsa;
  List.iter
    (fun root ->
      Alcotest.(check bool) (root ^ " is a spawn root") true
        (List.mem root dsa))
    [ "Lp.Branch_bound.solve.eval"; "Runtime.parallel_map.helper_job" ]

let () =
  Alcotest.run "race"
    [ ( "fixtures",
        [ Alcotest.test_case "seeded races are caught" `Quick
            test_racy_fixture;
          Alcotest.test_case "stale justification is a finding" `Quick
            test_unused_allow;
          Alcotest.test_case "findings serialize to SARIF with paths" `Quick
            test_sarif_output;
          Alcotest.test_case "justified / slot-disjoint writes are silent"
            `Quick test_clean_fixtures_silent;
          Alcotest.test_case "clean closures still audited as roots" `Quick
            test_roots_registered ] );
      ( "lib tree",
        [ Alcotest.test_case "committed spawn seams are clean" `Quick
            test_lib_tree_clean;
          Alcotest.test_case "cophy-dsa audits the same spawn roots" `Quick
            test_dsa_same_roots ] ) ]
