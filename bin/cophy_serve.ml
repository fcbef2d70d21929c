(* cophy_serve — the long-running advisor daemon.

   Reads line-delimited JSON workload events (see Serve.Engine for the
   protocol) from stdin, or from a TCP client when --listen is given,
   and writes one JSON response per line.

     cophy_serve --window 256 -j 4 < events.jsonl
     cophy_serve --listen 7133 &
     cophy_serve --emit-replay --n 100 --events 2000 --seed 7 > events.jsonl

   --emit-replay prints a deterministic drifting event stream (the
   Workload.Replay generator) in protocol form and exits: the fixture
   generator for smoke tests and benchmarks. *)

open Cmdliner

let window_arg =
  let doc = "Sliding-window capacity in observation events." in
  Arg.(value & opt int 256 & info [ "window" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc = "Worker domains for INUM builds and solver fan-outs (0 = one \
             per core)." in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let budget_arg =
  let doc = "Storage budget as a fraction of the database size." in
  Arg.(value & opt float 0.25 & info [ "m"; "budget" ] ~docv:"M" ~doc)

let scale_arg =
  let doc = "TPC-H scale factor." in
  Arg.(value & opt float 1.0 & info [ "sf"; "scale" ] ~docv:"SF" ~doc)

let skew_arg =
  let doc = "Zipf skew z of the data (0 = uniform)." in
  Arg.(value & opt float 0.0 & info [ "z"; "skew" ] ~docv:"Z" ~doc)

let listen_arg =
  let doc = "Serve a TCP client on 127.0.0.1:$(docv) instead of stdin \
             (one client at a time; stream framing is identical)." in
  Arg.(value & opt (some int) None & info [ "listen" ] ~docv:"PORT" ~doc)

let probe_budget_arg =
  let doc =
    "Up-front INUM what-if probes per query (0 = unlimited).  Deferred \
     probes resolve lazily during recommend/whatif; the stats response \
     reports the outstanding count and the certified regret bound."
  in
  Arg.(value & opt int 16 & info [ "probe-budget" ] ~docv:"N" ~doc)

let no_certify_arg =
  let doc = "Skip Lp.Analyze certification of served recommendations." in
  Arg.(value & flag & info [ "no-certify" ] ~doc)

let trace_arg =
  let doc =
    "Record pipeline spans and counters and write them as Chrome \
     trace_event JSON to $(docv) on exit.  Tracing never changes any \
     response (latency fields excepted)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* --emit-replay options *)

let emit_replay_arg =
  let doc = "Print a drifting replay event stream (protocol JSONL) and \
             exit." in
  Arg.(value & flag & info [ "emit-replay" ] ~doc)

let n_arg =
  let doc = "Templates in the replay population." in
  Arg.(value & opt int 100 & info [ "n" ] ~docv:"N" ~doc)

let events_arg =
  let doc = "Observation events in the replay stream." in
  Arg.(value & opt int 1000 & info [ "events" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed for the replay stream." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let recommend_every_arg =
  let doc = "Insert a recommend request every $(docv) observations \
             (0 = only at end of stream)." in
  Arg.(value & opt int 0 & info [ "recommend-every" ] ~docv:"N" ~doc)

(* Start tracing before any work, so an unwritable path fails up front;
   the export is written when the process exits. *)
let with_trace trace f =
  (match trace with
  | None -> ()
  | Some file -> (
      match Runtime.Trace.record_to_file file with
      | Ok () -> ()
      | Error msg ->
          Fmt.epr "cannot write %s@." msg;
          exit 2));
  f ()

let emit_replay schema ~n ~events ~seed ~recommend_every =
  let stream =
    Workload.Replay.drift ~recommend_every schema ~n ~events ~seed
  in
  List.iter
    (fun ev ->
      let json =
        match ev with
        | Workload.Replay.Statement (stmt, delta) ->
            Serve.Json.Obj
              [
                ("op", Serve.Json.Str "statement");
                ("sql", Serve.Json.Str (Sqlast.Print.statement_to_string stmt));
                ("delta", Serve.Json.Num delta);
              ]
        | Workload.Replay.Recommend ->
            Serve.Json.Obj [ ("op", Serve.Json.Str "recommend") ]
      in
      print_endline (Serve.Json.to_string json))
    stream;
  print_endline
    (Serve.Json.to_string (Serve.Json.Obj [ ("op", Serve.Json.Str "stats") ]));
  print_endline
    (Serve.Json.to_string (Serve.Json.Obj [ ("op", Serve.Json.Str "quit") ]))

let serve_tcp engine port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 1;
  Fmt.epr "# cophy_serve listening on 127.0.0.1:%d@." port;
  let rec accept_loop () =
    let client, _ = Unix.accept sock in
    let ic = Unix.in_channel_of_descr client in
    let oc = Unix.out_channel_of_descr client in
    Serve.Engine.serve_channels engine ic oc;
    (try Unix.close client with Unix.Unix_error _ -> ());
    accept_loop ()
  in
  accept_loop ()

let main window jobs budget sf z listen probe_budget no_certify trace emit n
    events seed recommend_every =
  let schema = Catalog.Tpch.schema ~sf ~z () in
  if emit then emit_replay schema ~n ~events ~seed ~recommend_every
  else
    with_trace trace @@ fun () ->
    let jobs = if jobs <= 0 then Runtime.recommended_jobs () else jobs in
    let probe_budget = if probe_budget <= 0 then None else Some probe_budget in
    let engine =
      Serve.Engine.create ~window ~jobs ~budget_fraction:budget
        ~certify:(not no_certify) ?probe_budget schema
    in
    match listen with
    | Some port -> serve_tcp engine port
    | None -> Serve.Engine.serve_channels engine stdin stdout

let cmd =
  let doc = "long-running CoPhy advisor daemon (line-delimited JSON)" in
  let info = Cmd.info "cophy_serve" ~doc in
  Cmd.v info
    Term.(
      const main $ window_arg $ jobs_arg $ budget_arg $ scale_arg $ skew_arg
      $ listen_arg $ probe_budget_arg $ no_certify_arg $ trace_arg
      $ emit_replay_arg $ n_arg $ events_arg $ seed_arg $ recommend_every_arg)

let () = exit (Cmd.eval cmd)
