(* cophy-dsa tests: the fixture library under dsa_fixtures/ is compiled
   normally by dune; we analyze its .cmt/.cmti artifacts with Dsa_core
   and assert the exact diagnostics each deliberate violation produces.
   The final property closes the loop dynamically: whatever exceptions
   Lp.Simplex.solve actually raises on random LPs must stay within its
   committed @raises allowlist in tools/dsa/exceptions.toml. *)

let fixture_dir = "dsa_fixtures/.dsa_fixtures.objs/byte"

let fixture_files () =
  Sys.readdir fixture_dir |> Array.to_list
  |> List.filter (fun f ->
         Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti")
  |> List.sort compare
  |> List.map (fun f -> Filename.concat fixture_dir f)

let analyze_fixtures () = Dsa_core.analyze (fixture_files ())

let rules vs = List.map (fun v -> v.Dsa_core.rule) vs
let with_rule name vs = List.filter (fun v -> v.Dsa_core.rule = name) vs

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let mentions needle v =
  contains (v.Dsa_core.where ^ " " ^ v.Dsa_core.message) needle

let node t name =
  match Hashtbl.find_opt t.Dsa_core.nodes name with
  | Some n -> n
  | None ->
      Alcotest.failf "analysis has no node %s (have: %s)" name
        (Hashtbl.fold (fun k _ acc -> k ^ " " ^ acc) t.Dsa_core.nodes "")

(* --- Check 1: domain safety over the unsafe / allowed closures --- *)

let test_domain_safety_unsafe () =
  let t = analyze_fixtures () in
  let vs = Dsa_core.run_checks t in
  let ds = with_rule "domain_safety" vs in
  Alcotest.(check int) "three effect findings" 3 (List.length ds);
  List.iter
    (fun v -> Alcotest.(check bool) "located in df_unsafe.ml" true
        (contains v.Dsa_core.where "df_unsafe.ml"))
    ds;
  let has effect what =
    List.exists (fun v -> mentions effect v && mentions what v) ds
  in
  Alcotest.(check bool) "mutates_global on hits" true
    (has "mutates_global" "Dsa_fixtures.Df_unsafe.hits");
  Alcotest.(check bool) "io on print_endline" true
    (has "io" "print_endline");
  Alcotest.(check bool) "nondet on Random.float" true
    (has "nondet" "Random.float");
  (* every domain_safety message names the spawn chain and the rule's
     escape hatch, so the diagnostic is actionable *)
  List.iter
    (fun v ->
      Alcotest.(check bool) "names a spawn chain" true
        (mentions "reachable from a parallel_map/Domain.spawn closure" v);
      Alcotest.(check bool) "suggests @dsa.allow" true (mentions "dsa.allow" v))
    ds

let test_domain_safety_allowed () =
  let t = analyze_fixtures () in
  let vs = Dsa_core.run_checks t in
  Alcotest.(check (list string)) "justified allow is silent" []
    (rules (List.filter (mentions "df_allowed") vs));
  (* the closure still became a spawn root — the allow suppressed the io
     finding, it did not hide the closure from the analysis *)
  let closure =
    Hashtbl.fold
      (fun name nd acc ->
        if nd.Dsa_core.n_spawn_root && contains name "df_allowed" then Some nd
        else acc)
      t.Dsa_core.nodes None
  in
  match closure with
  | None -> Alcotest.fail "df_allowed closure was not registered as spawn root"
  | Some nd ->
      Alcotest.(check int) "no direct effects survive the allow" 0
        (List.length nd.Dsa_core.n_direct)

(* --- Exception-escape inference on the swallow/reraise/escape trio --- *)

let raises t name = Dsa_core.SSet.elements (node t name).Dsa_core.n_raises

let test_raises_inference () =
  let t = analyze_fixtures () in
  ignore (Dsa_core.run_checks t);
  Alcotest.(check (list string)) "catch-all swallow empties the set" []
    (raises t "Dsa_fixtures.Df_swallow.swallowed");
  Alcotest.(check (list string)) "re-raise keeps Failure" [ "Failure" ]
    (raises t "Dsa_fixtures.Df_swallow.reraised");
  Alcotest.(check (list string)) "unhandled Hashtbl.find escapes Not_found"
    [ "Not_found" ]
    (raises t "Dsa_fixtures.Df_swallow.escapes")

let test_exception_escape_rule () =
  (* no entry for [escapes]: Not_found must trip exception_escape; the
     other two public functions are covered (or raise nothing) *)
  let toml =
    {|["Dsa_fixtures.Df_swallow"]
reraised = ["Failure"]
|}
  in
  let t = analyze_fixtures () in
  let vs = with_rule "exception_escape" (Dsa_core.run_checks ~exceptions_toml:toml t) in
  Alcotest.(check int) "exactly one escape" 1 (List.length vs);
  let v = List.hd vs in
  Alcotest.(check bool) "names Not_found" true (mentions "Not_found" v);
  Alcotest.(check bool) "names the function" true
    (mentions "Dsa_fixtures.Df_swallow.escapes" v);
  Alcotest.(check bool) "flags the missing entry" true
    (mentions "no entry declared" v);
  (* declaring the escape silences the rule *)
  let toml_ok = toml ^ "escapes = [\"Not_found\"]\n" in
  let t2 = analyze_fixtures () in
  Alcotest.(check (list string)) "allowlisted escape is clean" []
    (rules
       (with_rule "exception_escape"
          (Dsa_core.run_checks ~exceptions_toml:toml_ok t2)));
  (* "*" is the declared-unknowable wildcard *)
  let toml_star = toml ^ "escapes = [\"*\"]\n" in
  let t3 = analyze_fixtures () in
  Alcotest.(check (list string)) "wildcard allows anything" []
    (rules
       (with_rule "exception_escape"
          (Dsa_core.run_checks ~exceptions_toml:toml_star t3)))

(* --- Check 3: signature drift against a committed snapshot --- *)

let test_signature_drift () =
  let t = analyze_fixtures () in
  let actual = Dsa_core.signatures t in
  Alcotest.(check bool) "fixtures export signatures" true (actual <> []);
  (* identical snapshot: no drift *)
  let t1 = analyze_fixtures () in
  Alcotest.(check (list string)) "identical snapshot is clean" []
    (rules
       (with_rule "signature_drift"
          (Dsa_core.run_checks ~signatures_expected:actual t1)));
  (* tamper with one line: that function must be reported as drifted *)
  let tampered =
    List.map
      (fun line ->
        if contains line "Df_swallow.escapes" then line ^ "X" else line)
      actual
  in
  let t2 = analyze_fixtures () in
  let drift =
    with_rule "signature_drift"
      (Dsa_core.run_checks ~signatures_expected:tampered t2)
  in
  Alcotest.(check int) "one drifted signature" 1 (List.length drift);
  Alcotest.(check bool) "names the drifted function" true
    (mentions "Df_swallow.escapes" (List.hd drift));
  (* drop a line: the now-uncovered function is reported as new *)
  let missing =
    List.filter (fun line -> not (contains line "Df_unsafe.run")) actual
  in
  let t3 = analyze_fixtures () in
  let news =
    with_rule "signature_drift"
      (Dsa_core.run_checks ~signatures_expected:missing t3)
  in
  Alcotest.(check int) "one uncovered signature" 1 (List.length news);
  Alcotest.(check bool) "reported as new" true
    (mentions "no snapshot entry" (List.hd news));
  (* stale entry: a snapshot line with no inferred counterpart *)
  let stale = ("Dsa_fixtures.Df_gone.f : mutates_global=- io=- nondet=- "
               ^ "raises={}") :: actual in
  let t4 = analyze_fixtures () in
  let gone =
    with_rule "signature_drift"
      (Dsa_core.run_checks ~signatures_expected:stale t4)
  in
  Alcotest.(check int) "one stale entry" 1 (List.length gone);
  Alcotest.(check bool) "reported as disappeared" true
    (mentions "disappeared" (List.hd gone))

(* --- The committed allowlist matches runtime behaviour --- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* "Lp__Simplex.Singular_basis" / "Stdlib.Not_found" -> the names
   exceptions.toml uses ("Lp.Simplex.Singular_basis" / "Not_found"). *)
let normalize_exn_name s =
  let buf = Buffer.create (String.length s) in
  let i = ref 0 in
  let len = String.length s in
  while !i < len do
    if !i + 1 < len && s.[!i] = '_' && s.[!i + 1] = '_' then begin
      Buffer.add_char buf '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  let s = Buffer.contents buf in
  let prefix = "Stdlib." in
  let pl = String.length prefix in
  if String.length s > pl && String.sub s 0 pl = prefix then
    String.sub s pl (String.length s - pl)
  else s

let solve_allowlist =
  lazy
    (let table =
       Dsa_core.parse_exceptions_toml (read_file "../tools/dsa/exceptions.toml")
     in
     match Hashtbl.find_opt table "Lp.Simplex.solve" with
     | Some s -> s
     | None -> Dsa_core.SSet.empty)

let random_lp_gen =
  QCheck.Gen.(
    let* n = int_range 1 6 in
    let* m = int_range 0 6 in
    let* seed = int_range 0 1_000_000 in
    return (n, m, seed))

(* Unlike test_lp's generator this one does NOT engineer feasibility:
   infeasible and unbounded instances exercise more solver paths, and the
   property is about escaping exceptions, not optimality. *)
let build_lp (n, m, seed) =
  let rng = Random.State.make [| seed; 0x05A |] in
  let p = Lp.Problem.create () in
  let vars =
    Array.init n (fun _ ->
        let ub =
          if Random.State.bool rng then infinity
          else Random.State.float rng 10.0
        in
        Lp.Problem.add_var ~obj:(Random.State.float rng 4.0 -. 2.0) ~ub p)
  in
  for _ = 1 to m do
    let coeffs =
      Array.to_list vars
      |> List.filter_map (fun v ->
             if Random.State.bool rng then
               Some (v, Random.State.float rng 4.0 -. 2.0)
             else None)
    in
    let sense =
      match Random.State.int rng 3 with
      | 0 -> Lp.Problem.Le
      | 1 -> Lp.Problem.Ge
      | _ -> Lp.Problem.Eq
    in
    if coeffs <> [] then
      ignore
        (Lp.Problem.add_row p coeffs sense (Random.State.float rng 8.0 -. 2.0))
  done;
  p

let prop_solve_raises_within_allowlist =
  QCheck.Test.make
    ~name:"Simplex.solve raises stay within the exceptions.toml allowlist"
    ~count:120 (QCheck.make random_lp_gen) (fun spec ->
      let allowed = Lazy.force solve_allowlist in
      let p = build_lp spec in
      match Lp.Simplex.solve p with
      | (_ : Lp.Simplex.result) -> true
      | exception e ->
          let name = normalize_exn_name (Printexc.exn_slot_name e) in
          if
            Dsa_core.SSet.mem "*" allowed || Dsa_core.SSet.mem name allowed
          then true
          else
            QCheck.Test.fail_reportf
              "%s escaped Lp.Simplex.solve but the committed allowlist for \
               it is {%s}"
              name
              (String.concat ", " (Dsa_core.SSet.elements allowed)))

let () =
  Alcotest.run "dsa"
    [ ( "fixtures",
        [ Alcotest.test_case "domain_safety: unsafe closure" `Quick
            test_domain_safety_unsafe;
          Alcotest.test_case "domain_safety: justified allow" `Quick
            test_domain_safety_allowed;
          Alcotest.test_case "raises inference" `Quick test_raises_inference;
          Alcotest.test_case "exception_escape rule" `Quick
            test_exception_escape_rule;
          Alcotest.test_case "signature drift" `Quick test_signature_drift ] );
      ( "allowlist property",
        [ QCheck_alcotest.to_alcotest prop_solve_raises_within_allowlist ] ) ]
