(* The repository benchmark: one closed-loop client driving the public
   API at jobs 1, every output checked.  See perfbench/README.md for the
   workloads, the metrics and the layer table.

     sh perfbench/run.sh --workload advise-hom1000 --seed 7 --seconds 20 --trace 0

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics: the end-to-end metrics with
   --trace 0, the per-layer metrics of one traced pass with --trace 1. *)

open Sqlast

let jobs = 1
let check_jobs = 2
let probe_budget = 16
let budget_fraction = 0.5

(* Timed passes per run.  The count is fixed per workload, not derived
   from --seconds or from elapsed time, so both sides of a comparison
   take the same number of samples on any machine (README.md). *)
let hom_passes = 20
let het_passes = 3
let serve_passes = 10

(* Set-ups before the timed passes, and as many again after them (once
   [heap_peak_mb] is read), so that the median set-up time samples both
   ends of the run. *)
let setup_reps = 6

(* Every workload keeps its statements and frequencies at this
   generator seed.  --seed draws the order in which the advise workloads
   pass their statements (the recommendation does not depend on it) and
   which SELECT each of serve-drift's what-if reads sends.  The solver's work jumps with the input:
   one het30 advise takes 0.3 s to 11 s over fresh seeds, and frequencies
   moved by 10% change hom1000's refine rounds and one serve replay's
   time by a third, more than a run-to-run bound can hold (README.md). *)
let shapes_seed = 7

(* serve-drift: statement writes in one replay; a recommend after every
   10th, a whatif read after every 5th. *)
let serve_writes = 300

(* ---- statistics ---- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let fastest xs = List.fold_left Float.min infinity xs

let mean xs =
  match xs with
  | [] -> Float.nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let now = Runtime.Clock.now

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- failure accounting ---- *)

let attempted = ref 0
let failed = ref 0

(* One operation or run-level check: counted as attempted, and as failed
   unless [ok]. *)
let check ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "FAILED: %s\n%!" what
  end

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ---- advise workloads ---- *)

type advised = {
  config : Storage.Config.t;
  objective : float;
  gap : float;
  probe_regret : float;
}

let advised_of_report (r : Cophy.Solver.report) =
  {
    config = r.Cophy.Solver.config;
    objective = r.Cophy.Solver.objective;
    gap = r.Cophy.Solver.gap;
    probe_regret = r.Cophy.Solver.probe_regret;
  }

let same_advice a b =
  same_float a.objective b.objective && Storage.Config.equal a.config b.config

let budget_of schema = budget_fraction *. Catalog.Tpch.database_size schema

let fits_budget schema config =
  Storage.Config.total_size schema config <= budget_of schema *. (1.0 +. 1e-9)

let shuffle ~seed w =
  let rng = Random.State.make [| seed; 0x5bf1 |] in
  let a = Array.of_list w in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let advise ~jobs schema w =
  advised_of_report
    (Cophy.Advisor.advise ~jobs ~probe_budget schema w ~budget_fraction)
      .Cophy.Advisor.report

(* The calls [Advisor.advise] makes, in its order and with its arguments,
   each wrapped in a benchmark span: INUM fills a keyed store, CGen
   proposes candidates, the session is created over that store, then
   build / solve and refine / build / solve until refine forces nothing
   (at most 8 rounds).  [Interactive.create] runs [add_statements] again
   over the filled store (all hits, no probes), a pass [advise] does not
   make; its span is the separate layer [inum.session].  Returns the
   advice, the final session and the store's hit rate after the fill. *)
let traced_advise schema w =
  Spans.with_span "advise" @@ fun () ->
  let store =
    Inum.Keyed.create ~probe_budget (Optimizer.Whatif.make_env schema)
  in
  ignore
    (Spans.with_span "inum.build" (fun () ->
         Inum.add_statements ~jobs store Inum.empty_cache w));
  let hit_rate = Inum.Keyed.hit_rate store in
  let candidates =
    Spans.with_span "cgen" (fun () -> Cophy.Cgen.generate ~dba:[] w)
  in
  let session =
    Spans.with_span "inum.session" (fun () ->
        Cophy.Interactive.create ~constraints:[]
          ~baseline:Storage.Config.empty ~jobs ~candidates ~store schema w
          ~budget:(budget_of schema))
  in
  let options = { Cophy.Solver.default_options with Cophy.Solver.jobs } in
  let build () =
    ignore
      (Spans.with_span "sproblem.build" (fun () ->
           Cophy.Interactive.problem session))
  in
  let solve () =
    Spans.with_span "solver.solve" (fun () ->
        Cophy.Interactive.retune ~options session)
  in
  build ();
  let rec converge report rounds =
    if rounds = 0 then report
    else if
      Spans.with_span "inum.refine" (fun () ->
          Cophy.Interactive.refine_at session report.Cophy.Solver.config)
      = 0
    then report
    else begin
      build ();
      converge (solve ()) (rounds - 1)
    end
  in
  let report = converge (solve ()) 8 in
  (advised_of_report report, session, hit_rate)

(* ---- serve-drift ---- *)

type kind = Statement | Recommend | Whatif

type request = { kind : kind; line : string }

let kind_name = function
  | Statement -> "statement"
  | Recommend -> "recommend"
  | Whatif -> "whatif"

let request_line fields = Serve.Json.to_string (Serve.Json.Obj fields)

(* [serve_writes] statement writes from a drifting replay (100
   templates, a tenth of them UPDATEs), a recommend after every 10th
   write and a whatif read after every 5th.  The reads send the SELECTs
   of 40 heterogeneous statements in turn, from the first again once all
   are sent, and --seed shuffles that sequence: every seed sends the
   same reads in another order, so the keyed store ends the same.  The
   reads do not change the session, so every seed gets the same
   recommendations. *)
let serve_requests schema ~seed =
  let events =
    Workload.Replay.drift ~recommend_every:10 ~update_fraction:0.1 schema
      ~n:100 ~events:serve_writes ~seed:shapes_seed
  in
  let reads =
    Array.of_list
      (List.filter_map
         (fun (wt : Ast.weighted) ->
           match wt.Ast.stmt with Ast.Select _ as s -> Some s | _ -> None)
         (Workload.Gen.het schema ~n:40 ~seed:(shapes_seed + 1)))
  in
  let reads =
    Array.of_list
      (shuffle ~seed
         (List.init (serve_writes / 5) (fun i -> reads.(i mod Array.length reads))))
  in
  let writes = ref 0 in
  List.concat_map
    (function
      | Workload.Replay.Statement (stmt, delta) ->
          incr writes;
          let write =
            {
              kind = Statement;
              line =
                request_line
                  [
                    ("op", Serve.Json.Str "statement");
                    ("sql", Serve.Json.Str (Print.statement_to_string stmt));
                    ("delta", Serve.Json.Num delta);
                  ];
            }
          in
          if !writes mod 5 <> 0 then [ write ]
          else
            let read = reads.((!writes / 5) - 1) in
            [
              write;
              {
                kind = Whatif;
                line =
                  request_line
                    [
                      ("op", Serve.Json.Str "whatif");
                      ("sql", Serve.Json.Str (Print.statement_to_string read));
                    ];
              };
            ]
      | Workload.Replay.Recommend ->
          [ { kind = Recommend; line = request_line [ ("op", Serve.Json.Str "recommend") ] } ])
    events

let new_engine ~jobs schema =
  Serve.Engine.create ~window:256 ~jobs ~budget_fraction ~probe_budget schema

(* A reply with its wall-clock fields ([*_ms]) removed: what must repeat
   exactly across job counts and with tracing on. *)
let deterministic_part reply =
  match Serve.Json.of_string reply with
  | Serve.Json.Obj fields ->
      Serve.Json.to_string
        (Serve.Json.Obj
           (List.filter
              (fun (k, _) -> not (String.ends_with ~suffix:"_ms" k))
              fields))
  | j -> Serve.Json.to_string j
  | exception Serve.Json.Parse_error _ -> reply

let num_field reply k =
  match Option.bind (Serve.Json.member k reply) Serve.Json.to_float with
  | Some f when Float.is_finite f -> Some f
  | _ -> None

(* Check one reply: parses, [ok:true], echoes its op and carries the
   op's fields.  Returns the parsed reply when it passed. *)
let check_reply req reply =
  let parsed =
    match Serve.Json.of_string reply with
    | j -> Some j
    | exception Serve.Json.Parse_error _ -> None
  in
  let fields_ok j =
    let has_num k = Option.is_some (num_field j k) in
    let has_str k =
      Option.is_some (Option.bind (Serve.Json.member k j) Serve.Json.to_str)
    in
    Serve.Json.member "ok" j = Some (Serve.Json.Bool true)
    && Serve.Json.member "op" j = Some (Serve.Json.Str (kind_name req.kind))
    &&
    match req.kind with
    | Statement -> has_str "key"
    | Recommend ->
        List.for_all has_num [ "objective"; "bound"; "gap"; "probe_regret" ]
        && (match Serve.Json.member "indexes" j with
           | Some (Serve.Json.List ixs) ->
               List.for_all (fun ix -> Option.is_some (Serve.Json.to_str ix)) ixs
           | _ -> false)
    | Whatif -> List.for_all has_num [ "cost_base"; "cost_recommended"; "improvement" ]
  in
  match parsed with
  | Some j when fields_ok j -> Some j
  | _ -> None

type replay = {
  replies : string array;
  latencies : (kind * float) list;  (* seconds, request order *)
  configs : Storage.Config.t list;  (* recommended, in order *)
  workload : Ast.workload;  (* the session's, after the last request *)
  misses : int;  (* keyed-store misses after the last request *)
}

(* Send every request through [Engine.handle_line], each only after the
   previous reply (closed loop, one client).  The engine is dropped at the
   end, so a run's later passes do not mark the earlier passes' sessions
   in every major collection. *)
let replay ~jobs schema requests =
  let engine = new_engine ~jobs schema in
  let session = Serve.Engine.session engine in
  let n = List.length requests in
  let replies = Array.make n "" in
  let latencies = ref [] in
  let configs = ref [] in
  List.iteri
    (fun i req ->
      let a = now () in
      let reply = Serve.Engine.handle_line engine req.line in
      let b = now () in
      replies.(i) <- reply;
      latencies := (req.kind, b -. a) :: !latencies;
      if req.kind = Recommend then
        match Cophy.Interactive.last_report session with
        | Some r -> configs := r.Cophy.Solver.config :: !configs
        | None -> ())
    requests;
  {
    replies;
    latencies = List.rev !latencies;
    configs = List.rev !configs;
    workload = Cophy.Interactive.workload session;
    misses = Inum.Keyed.misses (Cophy.Interactive.store session);
  }

(* Keyed-store misses beyond the distinct statement keys the stream
   holds (an UPDATE's query shell is built through the store too): a
   repeat statement must never cost a probe. *)
let repeat_probes schema requests r =
  let distinct = Hashtbl.create 256 in
  List.iter
    (fun req ->
      if req.kind <> Recommend then
        match Serve.Json.of_string req.line with
        | j -> (
            match Option.bind (Serve.Json.member "sql" j) Serve.Json.to_str with
            | Some sql ->
                Hashtbl.replace distinct
                  (Canon.statement_key (Parse.statement schema sql))
                  ()
            | None -> ())
        | exception Serve.Json.Parse_error _ -> ())
    requests;
  r.misses - Hashtbl.length distinct

(* Per-request checks of one replay, counted in attempted / failed. *)
let check_replay schema requests r =
  List.iteri
    (fun i req ->
      check
        (Option.is_some (check_reply req r.replies.(i)))
        (Printf.sprintf "%s request %d replied %s" (kind_name req.kind) i
           r.replies.(i)))
    requests;
  List.iteri
    (fun i config ->
      check (fits_budget schema config)
        (Printf.sprintf "recommendation %d exceeds the storage budget" i))
    r.configs;
  let repeats = repeat_probes schema requests r in
  check (repeats = 0) (Printf.sprintf "repeat_probes = %d" repeats)

let decode schema line =
  let j = Serve.Json.of_string line in
  let sql =
    Option.value ~default:""
      (Option.bind (Serve.Json.member "sql" j) Serve.Json.to_str)
  in
  let delta =
    Option.value ~default:1.0
      (Option.bind (Serve.Json.member "delta" j) Serve.Json.to_float)
  in
  (Parse.statement schema sql, delta)

(* The dispatch [Engine.handle_line] does, split at the public calls so
   each gets its own span: the codec (JSON and SQL parsing, reply
   printing), [observe], [flush], [recommend] and [whatif].  Before each
   recommend the session's BIP is built in its own span: [recommend]'s
   first retune would build the same problem lazily, so this only moves
   that build out of [serve.recommend].  Returns the recommend / whatif
   replies by request position and the number of BIP builds made before
   a recommend. *)
let traced_replay schema engine requests =
  let session = Serve.Engine.session engine in
  let last_problem = ref None in
  let prebuilds = ref 0 in
  Spans.with_span "replay" @@ fun () ->
  let replies =
    List.mapi
      (fun i req ->
        match req.kind with
        | Statement ->
            let stmt, delta =
              Spans.with_span "serve.codec" (fun () -> decode schema req.line)
            in
            Spans.with_span "serve.observe" (fun () ->
                Serve.Engine.observe engine stmt delta);
            (i, None)
        | Recommend ->
            Spans.with_span "serve.flush" (fun () -> Serve.Engine.flush engine);
            let sp =
              Spans.with_span "sproblem.build" (fun () ->
                  Cophy.Interactive.problem session)
            in
            (match !last_problem with
            | Some p when p == sp -> ()
            | _ -> incr prebuilds);
            let reply =
              Spans.with_span "serve.recommend" (fun () ->
                  Serve.Engine.recommend engine)
            in
            (* built by the final retune, so this does not build *)
            last_problem := Some (Cophy.Interactive.problem session);
            (i, Some (Spans.with_span "serve.codec" (fun () -> Serve.Json.to_string reply)))
        | Whatif ->
            let stmt, _ =
              Spans.with_span "serve.codec" (fun () -> decode schema req.line)
            in
            Spans.with_span "serve.flush" (fun () -> Serve.Engine.flush engine);
            let reply =
              Spans.with_span "serve.whatif" (fun () ->
                  Serve.Engine.whatif engine stmt)
            in
            (i, Some (Spans.with_span "serve.codec" (fun () -> Serve.Json.to_string reply))))
      requests
  in
  (replies, !prebuilds)

(* ---- metrics ---- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let print_result metrics =
  let metric_json x =
    Printf.sprintf {|%S:{"value":%.17g,"unit":%S}|} x.name x.value x.unit_
  in
  List.iter
    (fun x -> Printf.printf "  %-32s %16.6f %s\n" x.name x.value x.unit_)
    metrics;
  Printf.printf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|}
    (!failed = 0) !attempted !failed
    (String.concat "," (List.map metric_json metrics));
  print_newline ()

(* Repeat [setup] [reps] times; the last result and the wall times. *)
let setups ~reps setup =
  let times = ref [] in
  let last = ref None in
  for _ = 1 to reps do
    Gc.full_major ();
    let r, dt = timed setup in
    times := dt :: !times;
    last := Some r
  done;
  (Option.get !last, !times)

(* [n] timed passes, each from a collected heap. *)
let passes n pass =
  let runs =
    List.init n (fun _ ->
        Gc.full_major ();
        timed pass)
  in
  Printf.printf "# pass seconds:%s\n"
    (String.concat "" (List.map (fun (_, dt) -> Printf.sprintf " %.4f" dt) runs));
  runs

let perf_of schema w config =
  Advisors.Eval.perf
    (Optimizer.Whatif.make_env schema)
    w config
    ~baseline:(Advisors.Eval.baseline_config ())

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Runtime.Trace.counters ()))

let fail_rate () = float_of_int !failed /. float_of_int (max 1 !attempted)

(* The serve request latencies of one untraced replay; zero on the
   advise workloads, which send no serve requests. *)
type serve_latencies = {
  recommend_ms : float list;
  whatif_ms : float list;
  statement_us : float list;
}

let no_serve = { recommend_ms = []; whatif_ms = []; statement_us = [] }

let serve_latencies (runs : replay list) =
  let lat kind scale =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun (k, s) -> if k = kind then Some (s *. scale) else None)
          r.latencies)
      runs
  in
  {
    recommend_ms = lat Recommend 1000.0;
    whatif_ms = lat Whatif 1000.0;
    statement_us = lat Statement 1e6;
  }

(* The time of one replay of the stream: the sum over its requests of
   each request's fastest latency across [runs].  Every pass does the
   same work (the run checks that the replies repeat), so a slower
   latency is time the machine took from the program, not work the
   program did: on a shared host identical passes took up to 1.7 times
   as long as each other, in spells of seconds to minutes.  The fastest
   of the passes removes a spell that misses one of them; the median of
   the passes keeps any spell that covers half of them (README.md). *)
let replay_seconds (runs : replay list) =
  let per_run = List.map (fun r -> Array.of_list (List.map snd r.latencies)) runs in
  match per_run with
  | [] -> Float.nan
  | first :: _ ->
      let total = ref 0.0 in
      Array.iteri
        (fun i _ ->
          total := !total +. fastest (List.map (fun a -> a.(i)) per_run))
        first;
      !total

(* Per-layer metrics, the same names on every workload, from the
   attribution of the traced pass and the program's trace counters. *)
let layer_metrics (a : Spans.attribution) ~untraced_wall ~hit_rate ~builds
    ~session ~serve =
  let self layer = Option.value ~default:0.0 (List.assoc_opt layer a.Spans.layers) in
  let c name = float_of_int (counter name) in
  let pct xs q = if xs = [] then 0.0 else percentile xs q in
  let sp = Cophy.Interactive.problem session in
  [
    m "inum.build_s" "s" (self "inum.build");
    m "inum.session_s" "s" (self "inum.session");
    m "inum.refine_s" "s" (self "inum.refine");
    m "cgen.s" "s" (self "cgen");
    m "sproblem.build_s" "s" (self "sproblem.build");
    m "solver.solve_s" "s" (self "solver.solve");
    m "serve.codec_s" "s" (self "serve.codec");
    m "serve.observe_s" "s" (self "serve.observe");
    m "serve.flush_s" "s" (self "serve.flush");
    m "serve.recommend_self_s" "s" (self "serve.recommend");
    m "serve.whatif_self_s" "s" (self "serve.whatif");
    m "other_s" "s" (self "other");
    m "traced_wall_s" "s" a.Spans.wall;
    m "trace_overhead_s" "s" (a.Spans.wall -. untraced_wall);
    m "inum.probes_forced" "count" (c "inum.probes_forced");
    m "inum.probes_skipped" "count" (c "inum.probes_skipped");
    m "inum.templates_kept" "count" (c "inum.templates_kept");
    m "inum.keyed_hit_rate" "ratio" hit_rate;
    m "optimizer.template_probes" "count" (c "whatif.template_probes");
    m "cgen.candidates" "count"
      (float_of_int (List.length (Cophy.Interactive.candidates session)));
    m "sproblem.builds" "count" (float_of_int builds);
    m "sproblem.variables" "count" (float_of_int (Cophy.Sproblem.variable_count sp));
    m "sproblem.blocks" "count" (float_of_int (Cophy.Sproblem.num_blocks sp));
    m "solver.retunes" "count"
      (float_of_int (Spans.program_count "solver.feasibility_check"));
    m "decomposition.iterations" "count" (c "decomposition.iterations");
    m "decomposition.block_solves" "count" (c "decomposition.block_solves");
    m "lp.bb_nodes" "count" (c "bb.nodes");
    m "lp.dual_iterations" "count" (c "simplex.dual_iterations");
    m "lp.pivots" "count" (c "simplex.pivots");
    m "lp.refactorizations" "count" (c "simplex.refactorizations");
    m "lp.cuts_added" "count" (c "bb.cuts_added");
    m "serve.window_evictions" "count" (c "serve.window_evictions");
    m "serve.recommend_p50_ms" "ms" (pct serve.recommend_ms 0.5);
    m "serve.recommend_p90_ms" "ms" (pct serve.recommend_ms 0.9);
    m "serve.whatif_p50_ms" "ms" (pct serve.whatif_ms 0.5);
    m "serve.whatif_p95_ms" "ms" (pct serve.whatif_ms 0.95);
    m "serve.statement_p50_us" "us" (pct serve.statement_us 0.5);
    m "fail_rate" "ratio" (fail_rate ());
  ]

let with_program_trace f =
  Runtime.Trace.reset ();
  Runtime.Trace.enable ();
  Spans.start ();
  Fun.protect f ~finally:(fun () ->
      Spans.stop ();
      Runtime.Trace.disable ())

let write_spans ~workload ~seed =
  let dir = ".bench_build" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Printf.sprintf "%s/spans-%s-seed%d.json" dir workload seed in
  Out_channel.with_open_text path (fun oc -> output_string oc (Spans.to_json ()));
  Printf.printf "# spans written to %s\n" path

(* Layer self times as shares of the traced wall; [other] must stay
   within a tenth of it. *)
let check_layers (a : Spans.attribution) =
  List.iter
    (fun (layer, s) ->
      Printf.printf "  %-24s %10.4f s  %5.1f%%\n" layer s
        (100.0 *. s /. a.Spans.wall))
    a.Spans.layers;
  let other = Option.value ~default:0.0 (List.assoc_opt "other" a.Spans.layers) in
  check (other <= 0.10 *. a.Spans.wall)
    (Printf.sprintf "unattributed time %.3fs exceeds 10%% of %.3fs" other
       a.Spans.wall)

(* ---- workloads ---- *)

let run_advise ~workload ~shape ~seed ~trace =
  let setup () =
    let schema = Catalog.Tpch.schema () in
    let w =
      match shape with
      | `Hom -> shuffle ~seed (Workload.Gen.hom schema ~n:1000 ~seed:shapes_seed)
      | `Het -> shuffle ~seed (Workload.Gen.het schema ~n:30 ~seed:shapes_seed)
    in
    (schema, w)
  in
  let (schema, w), setup_times = setups ~reps:setup_reps setup in
  let advise_checked ~jobs label =
    match advise ~jobs schema w with
    | a ->
        check (fits_budget schema a.config)
          (Printf.sprintf "%s: recommendation exceeds the storage budget" label);
        Some a
    | exception e ->
        check false (Printf.sprintf "%s raised %s" label (Printexc.to_string e));
        None
  in
  let check_jobs_identical first =
    match advise_checked ~jobs:check_jobs "advise at jobs 2" with
    | Some a -> check (same_advice first a) "recommendation differs at jobs 2"
    | None -> ()
  in
  if not trace then begin
    let n = match shape with `Hom -> hom_passes | `Het -> het_passes in
    let runs = passes n (fun () -> advise_checked ~jobs "advise") in
    let heap = heap_peak_mb () in
    match List.filter_map fst runs with
    | [] -> print_result []
    | first :: rest ->
        List.iteri
          (fun i a ->
            check (same_advice first a)
              (Printf.sprintf "advise pass %d differs from pass 0" (i + 1)))
          rest;
        check_jobs_identical first;
        let setup_s = median (setup_times @ snd (setups ~reps:setup_reps setup)) in
        print_result
          [
            m "setup_s" "s" setup_s;
            (* one call, so its fastest pass (see [replay_seconds]) *)
            m "wall_s" "s" (fastest (List.map snd runs));
            m "perf" "ratio" (perf_of schema w first.config);
            m "gap" "ratio" first.gap;
            m "regret_ratio" "ratio" (first.probe_regret /. first.objective);
            m "heap_peak_mb" "MiB" heap;
          ]
  end
  else begin
    Gc.full_major ();
    let untraced, untraced_wall =
      timed (fun () -> advise_checked ~jobs "advise")
    in
    Gc.full_major ();
    let traced, session, hit_rate =
      with_program_trace (fun () -> traced_advise schema w)
    in
    check (fits_budget schema traced.config)
      "traced advise: recommendation exceeds the storage budget";
    (match untraced with
    | Some u ->
        check (same_advice u traced) "traced advise differs from Advisor.advise"
    | None -> ());
    check (Runtime.Trace.dropped_spans () = 0) "program trace dropped spans";
    let a = Spans.attribute ~root:"advise" in
    check_layers a;
    check_jobs_identical traced;
    write_spans ~workload ~seed;
    let builds =
      Option.value ~default:0 (List.assoc_opt "sproblem.build" a.Spans.counts)
    in
    print_result
      (layer_metrics a ~untraced_wall ~hit_rate ~builds ~session ~serve:no_serve)
  end

let run_serve ~workload ~seed ~trace =
  let setup () =
    let schema = Catalog.Tpch.schema () in
    let requests = serve_requests schema ~seed in
    ignore (new_engine ~jobs schema);
    (schema, requests)
  in
  let (schema, requests), setup_times = setups ~reps:setup_reps setup in
  let checked_replay ~jobs =
    match replay ~jobs schema requests with
    | r ->
        check_replay schema requests r;
        Some r
    | exception e ->
        check false ("replay raised " ^ Printexc.to_string e);
        None
  in
  let differing (a : replay) replies =
    List.length
      (List.filter
         (fun (i, r) ->
           not (String.equal (deterministic_part r) (deterministic_part a.replies.(i))))
         replies)
  in
  let all_replies (r : replay) = List.mapi (fun i x -> (i, x)) (Array.to_list r.replies) in
  let check_jobs_identical first =
    match checked_replay ~jobs:check_jobs with
    | Some r ->
        let d = differing first (all_replies r) in
        check (d = 0) (Printf.sprintf "replay at jobs 2: %d replies differ" d)
    | None -> ()
  in
  if not trace then begin
    let runs = passes serve_passes (fun () -> checked_replay ~jobs) in
    let heap = heap_peak_mb () in
    match List.filter_map fst runs with
    | [] -> print_result []
    | first :: rest as all ->
        List.iteri
          (fun i r ->
            let d = differing first (all_replies r) in
            check (d = 0) (Printf.sprintf "replay %d: %d replies differ" (i + 1) d))
          rest;
        check_jobs_identical first;
        let setup_s = median (setup_times @ snd (setups ~reps:setup_reps setup)) in
        let recommends =
          List.filter_map
            (fun reply ->
              match Serve.Json.of_string reply with
              | j when Serve.Json.member "op" j = Some (Serve.Json.Str "recommend") -> Some j
              | _ -> None
              | exception Serve.Json.Parse_error _ -> None)
            (Array.to_list first.replies)
        in
        let field k = List.filter_map (fun j -> num_field j k) recommends in
        let lat = serve_latencies all in
        Printf.printf
          "# %s: recommend p50 %.2f ms p90 %.2f ms (n=%d); whatif p50 %.3f ms \
           p95 %.3f ms (n=%d); statement p50 %.1f us (n=%d)\n"
          workload (percentile lat.recommend_ms 0.5) (percentile lat.recommend_ms 0.9)
          (List.length lat.recommend_ms) (percentile lat.whatif_ms 0.5)
          (percentile lat.whatif_ms 0.95) (List.length lat.whatif_ms)
          (percentile lat.statement_us 0.5) (List.length lat.statement_us);
        let final_config =
          match List.rev first.configs with c :: _ -> c | [] -> Storage.Config.empty
        in
        print_result
          [
            m "setup_s" "s" setup_s;
            m "wall_s" "s" (replay_seconds all);
            m "perf" "ratio"
              (perf_of schema first.workload final_config);
            m "gap" "ratio" (mean (field "gap"));
            m "regret_ratio" "ratio"
              (mean (List.map2 ( /. ) (field "probe_regret") (field "objective")));
            m "heap_peak_mb" "MiB" heap;
          ]
  end
  else begin
    let untraced =
      List.filter_map fst (passes serve_passes (fun () -> checked_replay ~jobs))
    in
    Gc.full_major ();
    let engine = new_engine ~jobs schema in
    let traced, prebuilds =
      with_program_trace (fun () -> traced_replay schema engine requests)
    in
    check (Runtime.Trace.dropped_spans () = 0) "program trace dropped spans";
    let a = Spans.attribute ~root:"replay" in
    check_layers a;
    let untraced_wall, serve =
      match untraced with
      | u :: _ ->
          let d = differing u (List.filter_map (fun (i, r) -> Option.map (fun r -> (i, r)) r) traced) in
          check (d = 0)
            (Printf.sprintf "traced replay: %d replies differ from handle_line" d);
          check_jobs_identical u;
          (replay_seconds untraced, serve_latencies untraced)
      | [] -> (Float.nan, no_serve)
    in
    write_spans ~workload ~seed;
    let recommends = List.length (List.filter (fun r -> r.kind = Recommend) requests) in
    (* every retune after a recommend's first one follows a refine that
       forced probes, which rebuilt the BIP *)
    let builds =
      prebuilds + Spans.program_count "solver.feasibility_check" - recommends
    in
    let hits = float_of_int (counter "inum.cache_hits")
    and misses = float_of_int (counter "inum.cache_misses") in
    print_result
      (layer_metrics a ~untraced_wall
         ~hit_rate:(if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0)
         ~builds ~session:(Serve.Engine.session engine) ~serve)
  end

(* ---- command line ---- *)

let workloads = [ "advise-hom1000"; "advise-het30"; "serve-drift" ]

let () =
  let workload = ref "" and seed = ref 7 and seconds = ref 0 and trace = ref 0 in
  let rev = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, " input seed (default 7)");
      ( "--seconds",
        Arg.Set_int seconds,
        " accepted and recorded; the pass count per workload is fixed" );
      ("--trace", Arg.Set_int trace, " 1: one traced pass, per-layer metrics");
      ("--rev", Arg.Set_string rev, " source revision to record (run.sh passes it)");
    ]
  in
  let usage = "cophy_bench --workload W [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage;
  if not (List.mem !workload workloads) || (!trace <> 0 && !trace <> 1) then begin
    Arg.usage (Arg.align spec) usage;
    exit 2
  end;
  Printf.printf
    "# perfbench workload=%s seed=%d seconds=%d trace=%d jobs=%d nproc=%d \
     ocaml=%s rev=%s\n%!"
    !workload !seed !seconds !trace jobs
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !rev;
  let trace = !trace = 1 in
  match !workload with
  | "advise-hom1000" -> run_advise ~workload:!workload ~shape:`Hom ~seed:!seed ~trace
  | "advise-het30" -> run_advise ~workload:!workload ~shape:`Het ~seed:!seed ~trace
  | _ -> run_serve ~workload:!workload ~seed:!seed ~trace
