(* cophy-dsa driver.

     dsa_main [--exceptions FILE] [--signatures-expected FILE]
              [--emit-signatures] [--emit-pruned-exceptions]
              [--json FILE] CMT_OR_CMTI_FILES...

   - default mode runs the whole-program checks (domain_safety over
     spawn-seam closures, exception_escape against the
     @raises allowlist, allowlist staleness, signature_drift against the
     committed snapshot) and exits 1 when any violation remains;
   - [--json FILE] additionally writes the findings as a single-run
     SARIF log (merged across analyzers by sarif_merge, uploaded by CI);
   - [--emit-signatures] prints the inferred public effect signatures to
     stdout (the payload of tools/dsa/signatures.expected) and exits 0;
   - [--emit-pruned-exceptions] prints the --exceptions file minus the
     entries that no longer name a live public function (the payload of
     `dune build @dsa-prune`) and exits 0.

   The CLI skeleton is Ak_driver, shared with the other analyzers.
   Run through dune:

     dune build @dsa           # analyze every module in lib/
     dune build @dsa-promote   # accept signature drift into the snapshot
     dune build @dsa-prune     # drop stale exceptions.toml entries

   See dsa_core.ml for the analysis and DESIGN.md §10 for the model. *)

let () =
  let d =
    Ak_driver.parse ~tool:"dsa"
      ~usage:
        "usage: dsa_main [--exceptions FILE] [--signatures-expected FILE] \
         [--emit-signatures] [--emit-pruned-exceptions] [--json FILE] \
         FILES.cmt[i]..."
      ~file_opts:[ "--exceptions"; "--signatures-expected" ]
      ~flags:[ "--emit-signatures"; "--emit-pruned-exceptions" ]
      ()
  in
  let t = Ak_driver.load d Dsa_core.analyze in
  if d.Ak_driver.debug then begin
    (* dump spawn roots and nodes carrying direct effects — the raw
       inputs of the domain-safety check, for triaging its output *)
    let nodes =
      Hashtbl.fold (fun _ nd acc -> nd :: acc) t.Dsa_core.nodes []
      |> List.sort (fun a b -> compare a.Dsa_core.n_name b.Dsa_core.n_name)
    in
    List.iter
      (fun nd ->
        if nd.Dsa_core.n_spawn_root then
          Printf.printf "root %s (%s)\n" nd.Dsa_core.n_name nd.Dsa_core.n_loc;
        List.iter
          (fun (k, loc, what) ->
            Printf.printf "direct %s %s: %s (%s)\n"
              (Dsa_core.effect_name k) nd.Dsa_core.n_name what loc)
          nd.Dsa_core.n_direct)
      nodes;
    let reach = Dsa_core.spawn_reachable t in
    Printf.printf "spawn-reachable: %d nodes\n" (Dsa_core.SSet.cardinal reach);
    Dsa_core.SSet.iter (fun n -> Printf.printf "reach %s\n" n) reach
  end;
  let exceptions = Ak_driver.opt d "--exceptions" in
  if Ak_driver.flag d "--emit-signatures" then begin
    print_string
      "# cophy-dsa inferred effect signatures of public (.mli-exported)\n\
       # functions in lib/.  Regenerate + accept with `dune build \
       @dsa-promote`.\n";
    List.iter print_endline (Dsa_core.signatures t)
  end
  else if Ak_driver.flag d "--emit-pruned-exceptions" then begin
    match exceptions with
    | None ->
        prerr_endline "dsa: --emit-pruned-exceptions requires --exceptions";
        exit 2
    | Some f -> (
        try print_string (Dsa_core.prune_exceptions_toml t (Ak_driver.read_file f))
        with Failure msg ->
          prerr_endline ("dsa: " ^ msg);
          exit 2)
  end
  else begin
    let exceptions_toml = Option.map Ak_driver.read_file exceptions in
    let signatures_expected =
      Option.map
        (fun f -> String.split_on_char '\n' (Ak_driver.read_file f))
        (Ak_driver.opt d "--signatures-expected")
    in
    let viols =
      try Dsa_core.run_checks ?exceptions_toml ?signatures_expected t
      with Failure msg ->
        prerr_endline ("dsa: " ^ msg);
        exit 2
    in
    Ak_driver.finish d ~rules:Dsa_core.all_rule_names
      ~fail:(Printf.sprintf "%d violation(s)" (List.length viols))
      ~ok:
        (Printf.sprintf "OK (%d files, %d public signatures)"
           (List.length d.Ak_driver.files)
           (List.length (Dsa_core.signatures t)))
      viols
  end
