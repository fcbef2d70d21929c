(* Paper-reproduction experiment harness: one section per table/figure
   of the evaluation (Table 1, Figures 4-10), printing the same series
   the paper reports.

     dune exec bench/main.exe                    # every experiment
     dune exec bench/main.exe -- table1 fig5     # a subset

   Performance is measured by perfbench (perfbench/README.md); the
   invariants the experiments rely on are pinned by the test suite. *)

let () =
  let selected = List.tl (Array.to_list Sys.argv) in
  let to_run =
    if selected = [] then Experiments.all
    else List.filter (fun (name, _) -> List.mem name selected) Experiments.all
  in
  if to_run = [] then begin
    Fmt.epr "unknown experiment; available: %a@."
      (Fmt.list ~sep:Fmt.sp Fmt.string)
      (List.map fst Experiments.all);
    exit 1
  end;
  let t0 = Runtime.Clock.now () in
  List.iter (fun (_, f) -> f ()) to_run;
  Fmt.pr "@.Total experiment time: %.1fs@." (Runtime.Clock.now () -. t0)
