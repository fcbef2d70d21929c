(* A small MIP solver front-end for CPLEX LP format files:

     dune exec bin/lp_solve.exe -- model.lp [--gap 0.01] [--time 60]
                                  [--jobs 4] [--stats] [--check]
                                  [--trace FILE]

   Prints the status, objective, and nonzero variable values (integer
   models also print their node count).  The objective is in the
   model's own sense, so a Maximize model prints its maximum; the
   relative gap and the certificate's objective residual are
   differences and read the same in either sense.  Continuous models
   run the sparse simplex.  Integer models run the cold best-first
   branch-and-bound, each node a fresh sparse solve: [--jobs] sets the
   parallel node-evaluation width (the certified objective and the node
   count are identical at every job count).
   [--stats] prints the trace counters of the layers that ran:
   simplex.*, plus bb.* on integer models.
   [--check] runs the Lp.Analyze model checks before solving (static
   errors abort with exit code 4) and certifies the solution afterwards
   (a failed certificate aborts with exit code 5): a continuous optimum
   is certified with its row duals against the LP optimality
   conditions; on an integer model every incumbent branch and bound
   accepts is certified too. *)

let () =
  let file = ref "" in
  let gap = ref 1e-6 in
  let time = ref infinity in
  let want_stats = ref false in
  let want_check = ref false in
  let trace = ref None in
  let jobs = ref 1 in
  let specs =
    [ ("--gap", Arg.Set_float gap, "relative optimality gap (default 1e-6)");
      ("--time", Arg.Set_float time, "time limit in seconds");
      ( "--jobs",
        Arg.Set_int jobs,
        "parallel node evaluations in branch and bound (default 1)" );
      ( "--stats",
        Arg.Set want_stats,
        "print simplex and branch-and-bound counters after solving" );
      ( "--check",
        Arg.Set want_check,
        "analyze the model before solving and certify the solution after" );
      ( "--trace",
        Arg.String (fun f -> trace := Some f),
        "FILE write kernel spans and counters as Chrome trace_event JSON" ) ]
  in
  Arg.parse specs (fun f -> file := f) "lp_solve [options] FILE.lp";
  if !want_stats then Runtime.Trace.enable ();
  (* The trace is written at exit, so it survives the early-exit paths
     (infeasible, failed certificate, iteration limit). *)
  (match !trace with
  | None -> ()
  | Some tf -> (
      match Runtime.Trace.record_to_file tf with
      | Ok () -> ()
      | Error msg ->
          Fmt.epr "cannot write %s@." msg;
          exit 2));
  if !file = "" then begin
    prerr_endline "usage: lp_solve [options] FILE.lp";
    exit 2
  end;
  (* The trace counters of the layers that ran, by name prefix. *)
  let print_stats prefixes () =
    if !want_stats then
      List.iter
        (fun (name, v) ->
          if List.exists (fun prefix -> String.starts_with ~prefix name) prefixes
          then Fmt.pr "%s: %d@." name v)
        (Runtime.Trace.counters ())
  in
  match Lp.Lp_format.of_file !file with
  | exception Lp.Lp_format.Format_error msg ->
      Fmt.epr "parse error: %s@." msg;
      exit 1
  | p, direction ->
      let in_sense = Lp.Lp_format.directed direction in
      if !want_check then begin
        let issues = Lp.Analyze.check p in
        List.iter (fun i -> Fmt.pr "check: %a@." Lp.Analyze.pp_issue i) issues;
        if Lp.Analyze.has_errors issues then begin
          Fmt.epr "check: model has errors; not solving@.";
          exit 4
        end
      end;
      let certify ?duals ~obj x =
        if !want_check then begin
          let cert = Lp.Analyze.certify ?duals ~obj p x in
          Fmt.pr "certificate: %s@." (Lp.Analyze.certificate_summary cert);
          if not cert.Lp.Analyze.cert_ok then begin
            List.iter (Fmt.epr "certify: %s@.") cert.Lp.Analyze.cert_issues;
            exit 5
          end
        end
      in
      let has_integers = Lp.Problem.integer_vars p <> [] in
      if has_integers then begin
        let print_stats = print_stats [ "simplex."; "bb." ] in
        let options =
          { Lp.Branch_bound.default_options with
            Lp.Branch_bound.gap_tolerance = !gap;
            time_limit = !time;
            jobs = max 1 !jobs;
            certify_incumbents = !want_check }
        in
        let r =
          match Lp.Branch_bound.solve ~options p with
          | r -> r
          | exception Lp.Analyze.Certification_failed msg ->
              Fmt.epr "certify: %s@." msg;
              exit 5
        in
        (match r.Lp.Branch_bound.status with
        | Lp.Branch_bound.Optimal ->
            Fmt.pr "status: optimal (gap %.3g)@."
              ((r.Lp.Branch_bound.obj -. r.Lp.Branch_bound.bound)
              /. (abs_float r.Lp.Branch_bound.obj +. 1e-12))
        | Lp.Branch_bound.Infeasible -> Fmt.pr "status: infeasible@."
        | Lp.Branch_bound.Unbounded -> Fmt.pr "status: unbounded@."
        | Lp.Branch_bound.Limit -> Fmt.pr "status: limit reached@.");
        match r.Lp.Branch_bound.x with
        | None ->
            print_stats ();
            exit (if r.Lp.Branch_bound.status = Lp.Branch_bound.Infeasible then 1 else 3)
        | Some x ->
            Fmt.pr "objective: %.9g@.nodes: %d@."
              (in_sense r.Lp.Branch_bound.obj)
              r.Lp.Branch_bound.nodes;
            Array.iteri
              (fun v value ->
                if abs_float value > 1e-9 then
                  Fmt.pr "%s = %.9g@." (Lp.Problem.var p v).Lp.Problem.vname value)
              x;
            certify ~obj:r.Lp.Branch_bound.obj x;
            print_stats ()
      end
      else begin
        let print_stats = print_stats [ "simplex." ] in
        let r = Lp.Simplex.solve p in
        (match r.Lp.Simplex.status with
        | Lp.Simplex.Optimal ->
            Fmt.pr "status: optimal@.objective: %.9g@.iterations: %d@."
              (in_sense (r.Lp.Simplex.obj +. Lp.Problem.obj_offset p))
              r.Lp.Simplex.iterations;
            Array.iteri
              (fun v value ->
                if abs_float value > 1e-9 then
                  Fmt.pr "%s = %.9g@." (Lp.Problem.var p v).Lp.Problem.vname value)
              r.Lp.Simplex.x;
            certify ~duals:r.Lp.Simplex.duals
              ~obj:(r.Lp.Simplex.obj +. Lp.Problem.obj_offset p)
              r.Lp.Simplex.x;
            print_stats ()
        | Lp.Simplex.Infeasible ->
            Fmt.pr "status: infeasible@.";
            print_stats ();
            exit 1
        | Lp.Simplex.Unbounded ->
            Fmt.pr "status: unbounded@.";
            print_stats ();
            exit 1
        | Lp.Simplex.Iter_limit ->
            Fmt.pr "status: iteration limit@.";
            print_stats ();
            exit 3)
      end
