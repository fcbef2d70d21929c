(* The serve engine: a long-running advisor session behind a
   line-delimited JSON protocol.

   Requests (one object per line):
     {"op":"statement","sql":"SELECT ...","delta":2.0}
         observe a statement with a frequency delta (default 1.0 when
         the member is absent).  A delta may be negative: it takes
         mass off the key while it is in the window.  A "delta" that
         is not a number, is not finite or exceeds [max_abs_delta] in
         magnitude is rejected, since the solver cannot price it
     {"op":"recommend"}
         flush pending observations, warm-started re-solve, respond with
         the recommended indexes
     {"op":"whatif","sql":"SELECT ..."}
         INUM cost of a statement under the last recommendation vs. no
         indexes (keyed-store lookup: repeats cost zero probes)
     {"op":"stats"}
         [events] (observations so far), [window] (events in the
         window), [statements] (keys with positive mass), [recommends],
         [whatifs], [cache_hits]/[cache_misses]/[cache_hit_rate] (the
         keyed store's, and the serving-level rate), [inum_probes],
         [pending_probes], [probe_regret], [combos_truncated], and the
         recommend latency quantiles [p50_ms]/[p99_ms].  [inum_probes]
         is the optimizer calls spent on the session's own INUM builds:
         build-time probes plus the deferred probes recommend's refine
         rounds forced since (what-if reads build outside the session
         and are not counted)
     {"op":"quit"}
         acknowledge; the daemon closes the stream

   Frequencies live in a sliding window of the last [window] observation
   events (count-based, so the engine is deterministic — no wall clock).
   Statements are deduplicated by canonical key: the session holds one
   statement per key whose weight is the key's delta mass inside the
   window.  When a key's mass drops to zero it leaves the session; the
   engine forgets the key only once none of its events is left in the
   window, since evicting a negative delta gives its mass back.  Its
   INUM templates stay in the keyed store either way, so returning
   queries cost zero optimizer probes.

   Every response is deterministic in the event stream except the
   explicitly named latency fields ([*_ms]), which measure wall-clock
   work; CI strips those before comparing runs.  [latency_ms] is the
   request's own time; [p50_ms]/[p99_ms] are nearest-rank quantiles over
   a fixed-bucket log histogram of every recommend latency so far, and
   report the upper edge of the bucket that holds the quantile (a
   [latency_edge_ms i]). *)

open Sqlast

let tr_events = Runtime.Trace.counter "serve.events"
let tr_recommends = Runtime.Trace.counter "serve.recommends"
let tr_whatifs = Runtime.Trace.counter "serve.whatifs"
let tr_window_evictions = Runtime.Trace.counter "serve.window_evictions"
let tr_flushed_new = Runtime.Trace.counter "serve.flushed_new_statements"

type entry = {
  id : int;  (* statement id of the first-seen spelling *)
  stmt : Ast.statement;
  mutable weight : float;  (* delta mass inside the window *)
  mutable in_window : int;  (* this key's events inside the window *)
  mutable in_session : bool;
}

type t = {
  schema : Catalog.Schema.t;
  jobs : int;
  window_cap : int;
  certify : bool;
  session : Cophy.Interactive.session;
  by_key : (string, entry) Hashtbl.t;
  window : (string * float) Queue.t;
  (* keys touched since the last flush, in first-touch order (reversed) *)
  mutable dirty : string list;
  dirty_set : (string, unit) Hashtbl.t;
  mutable events : int;
  mutable recommends : int;
  mutable whatifs : int;
  latency_counts : int array;  (* recommend latencies per histogram bucket *)
}

let weight_eps = 1e-9

(* Largest accepted |delta| on a statement observation.  Window masses
   become BIP objective weights; a huge (or infinite) delta overflows
   the solver's arithmetic and makes every re-solve infeasible. *)
let max_abs_delta = 1e12

(* Longest accepted request line, in bytes (1 MiB).  A longer line is
   read to its end without being kept, so one client cannot make the
   daemon buffer an unbounded line. *)
let max_line_bytes = 1 lsl 20

(* The recommend-latency histogram: bucket [i] holds latencies up to
   [latency_edge_ms i], edges a quarter octave apart from 1 us to about
   225 s; the last bucket also takes anything slower. *)
let latency_buckets = 112
let latency_edge_ms i = 0.001 *. (2.0 ** (float_of_int i /. 4.0))

let create ?(window = 256) ?(jobs = 1) ?(budget_fraction = 0.25)
    ?(certify = true) ?probe_budget schema =
  if window < 1 then invalid_arg "Engine.create: window < 1";
  let budget = budget_fraction *. Catalog.Tpch.database_size schema in
  let session =
    Cophy.Interactive.create ~jobs ?probe_budget schema [] ~budget
  in
  {
    schema;
    jobs;
    window_cap = window;
    certify;
    session;
    by_key = Hashtbl.create 256;
    window = Queue.create ();
    dirty = [];
    dirty_set = Hashtbl.create 64;
    events = 0;
    recommends = 0;
    whatifs = 0;
    latency_counts = Array.make latency_buckets 0;
  }

let session t = t.session

let mark_dirty t key =
  if not (Hashtbl.mem t.dirty_set key) then begin
    Hashtbl.add t.dirty_set key ();
    t.dirty <- key :: t.dirty
  end

let statement_id = function
  | Ast.Select q -> q.Ast.query_id
  | Ast.Update u -> u.Ast.update_id

(* Record one observation: update the window and the per-key mass; all
   session work is deferred to the next [flush]. *)
let observe t stmt delta =
  Runtime.Trace.incr tr_events;
  t.events <- t.events + 1;
  let key = Canon.statement_key stmt in
  let entry =
    match Hashtbl.find_opt t.by_key key with
    | Some e -> e
    | None ->
        let e =
          {
            id = statement_id stmt;
            stmt;
            weight = 0.0;
            in_window = 0;
            in_session = false;
          }
        in
        Hashtbl.add t.by_key key e;
        e
  in
  entry.weight <- entry.weight +. delta;
  entry.in_window <- entry.in_window + 1;
  mark_dirty t key;
  Queue.push (key, delta) t.window;
  while Queue.length t.window > t.window_cap do
    let k, d = Queue.pop t.window in
    Runtime.Trace.incr tr_window_evictions;
    (match Hashtbl.find_opt t.by_key k with
    | Some e ->
        e.in_window <- e.in_window - 1;
        (* with no event left the mass is exactly zero, whatever
           rounding the additions and subtractions left behind *)
        e.weight <- (if e.in_window = 0 then 0.0 else e.weight -. d)
    | None -> ());
    mark_dirty t k
  done

(* Apply deferred observations to the session: new keys enter (candidate
   generation batched over the domain pool, INUM builds resolved through
   the keyed store), weight changes sync, and zero-mass keys leave.  A
   key is forgotten only when its last event left the window. *)
let flush t =
  match t.dirty with
  | [] -> ()
  | _ ->
      Runtime.Trace.span "serve.flush" @@ fun () ->
      let dirty = List.rev t.dirty in
      t.dirty <- [];
      Hashtbl.reset t.dirty_set;
      let entering =
        List.filter_map
          (fun key ->
            match Hashtbl.find_opt t.by_key key with
            | Some e when (not e.in_session) && e.weight > weight_eps ->
                Some e
            | _ -> None)
          dirty
      in
      (match entering with
      | [] -> ()
      | es ->
          Runtime.Trace.add tr_flushed_new (List.length es);
          (* candidate generation for a burst of new statements, fanned
             over the domain pool in one call *)
          let cands =
            Runtime.parallel_map ~jobs:t.jobs
              (fun e ->
                Cophy.Cgen.generate [ { Ast.stmt = e.stmt; weight = e.weight } ])
              (Array.of_list es)
            |> Array.to_list |> List.concat
          in
          Cophy.Interactive.add_candidates t.session cands;
          Cophy.Interactive.add_statements t.session
            (List.map (fun e -> { Ast.stmt = e.stmt; weight = e.weight }) es);
          List.iter (fun e -> e.in_session <- true) es);
      List.iter
        (fun key ->
          match Hashtbl.find_opt t.by_key key with
          | None -> ()
          | Some e ->
              if e.weight <= weight_eps then begin
                if e.in_session then begin
                  Cophy.Interactive.remove_statements t.session
                    ~drop:(fun st -> statement_id st = e.id);
                  e.in_session <- false
                end;
                if e.in_window = 0 then Hashtbl.remove t.by_key key
              end
              else if e.in_session then
                Cophy.Interactive.set_weight t.session e.id e.weight)
        dirty

let window_size t = Queue.length t.window

let session_statements t =
  Runtime.Tbl.fold_sorted
    (fun _ e n -> if e.weight > weight_eps then n + 1 else n)
    t.by_key 0

(* --- Quantiles --- *)

let record_latency t ms =
  let rec bucket i =
    if i = latency_buckets - 1 || ms <= latency_edge_ms i then i
    else bucket (i + 1)
  in
  let b = bucket 0 in
  t.latency_counts.(b) <- t.latency_counts.(b) + 1

(* Nearest-rank quantile over the histogram: the upper edge of the
   bucket holding the [ceil (q n)]-th smallest latency.  Each recommend
   records exactly one latency, so [n] is [t.recommends]. *)
let quantile_ms t q =
  let n = t.recommends in
  if n = 0 then 0.0
  else
    let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
    let rec find i seen =
      let seen = seen + t.latency_counts.(i) in
      if seen >= rank then latency_edge_ms i else find (i + 1) seen
    in
    find 0 0

(* --- Operations --- *)

(* Serving-level hit rate: the fraction of observation events answered
   without a fresh INUM build.  Repeats are deduplicated by canonical
   key before they reach the keyed store, so the store's own hit counter
   undercounts reuse; every fresh build is a store miss, which makes
   [events - misses] the number of zero-probe observations. *)
let cache_hit_rate t =
  if Int.equal t.events 0 then 0.0
  else
    let misses = Inum.Keyed.misses (Cophy.Interactive.store t.session) in
    float_of_int (max 0 (t.events - misses)) /. float_of_int t.events

let last_config t =
  match Cophy.Interactive.last_report t.session with
  | Some r -> r.Cophy.Solver.config
  | None -> Storage.Config.empty

let recommend t =
  Runtime.Trace.span "serve.recommend" @@ fun () ->
  flush t;
  let t0 = Runtime.Clock.now () in
  let options =
    { Cophy.Solver.default_options with Cophy.Solver.certify = t.certify }
  in
  let report = Cophy.Interactive.recommend ~options t.session in
  let ms = (Runtime.Clock.now () -. t0) *. 1000.0 in
  Runtime.Trace.incr tr_recommends;
  t.recommends <- t.recommends + 1;
  record_latency t ms;
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("op", Json.Str "recommend");
      ("objective", Json.Num report.Cophy.Solver.objective);
      ("bound", Json.Num report.Cophy.Solver.bound);
      ("gap", Json.Num report.Cophy.Solver.gap);
      ("probe_regret", Json.Num report.Cophy.Solver.probe_regret);
      ( "indexes",
        Json.List
          (List.map
             (fun ix -> Json.Str (Storage.Index.to_string ix))
             (Storage.Config.to_list report.Cophy.Solver.config)) );
      ("statements", Json.Num (float_of_int (session_statements t)));
      ("window", Json.Num (float_of_int (window_size t)));
      ("cache_hit_rate", Json.Num (cache_hit_rate t));
      ("latency_ms", Json.Num ms);
      ("p50_ms", Json.Num (quantile_ms t 0.5));
      ("p99_ms", Json.Num (quantile_ms t 0.99));
    ]

let whatif t stmt =
  Runtime.Trace.span "serve.whatif" @@ fun () ->
  flush t;
  Runtime.Trace.incr tr_whatifs;
  t.whatifs <- t.whatifs + 1;
  let store = Cophy.Interactive.store t.session in
  match stmt with
  | Ast.Update _ ->
      Json.Obj
        [
          ("ok", Json.Bool false);
          ("op", Json.Str "whatif");
          ("error", Json.Str "whatif supports SELECT statements only");
        ]
  | Ast.Select q ->
      let inum = Inum.Keyed.find_or_build store q in
      let base = Inum.cost inum Storage.Config.empty in
      let under = Inum.cost inum (last_config t) in
      Json.Obj
        [
          ("ok", Json.Bool true);
          ("op", Json.Str "whatif");
          ("cost_base", Json.Num base);
          ("cost_recommended", Json.Num under);
          ( "improvement",
            Json.Num (if base > 0.0 then (base -. under) /. base else 0.0) );
        ]

let stats_response t =
  flush t;
  let store = Cophy.Interactive.store t.session in
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("op", Json.Str "stats");
      ("events", Json.Num (float_of_int t.events));
      ("window", Json.Num (float_of_int (window_size t)));
      ("statements", Json.Num (float_of_int (session_statements t)));
      ("recommends", Json.Num (float_of_int t.recommends));
      ("whatifs", Json.Num (float_of_int t.whatifs));
      ("cache_hits", Json.Num (float_of_int (Inum.Keyed.hits store)));
      ("cache_misses", Json.Num (float_of_int (Inum.Keyed.misses store)));
      ("cache_hit_rate", Json.Num (cache_hit_rate t));
      ( "inum_probes",
        Json.Num
          (float_of_int
             (Inum.total_init_calls (Cophy.Interactive.cache t.session))) );
      (* lazy-probing state of the session's INUM caches: deferred
         probes still outstanding, the certified regret bound they
         imply, and combinations the per-query enumeration cap dropped
         (the cap is a modeling choice, never a silent one) *)
      ( "pending_probes",
        Json.Num
          (float_of_int
             (Inum.cache_pending (Cophy.Interactive.cache t.session))) );
      ( "probe_regret",
        Json.Num (Cophy.Interactive.probe_regret t.session) );
      ( "combos_truncated",
        Json.Num
          (float_of_int
             (Inum.cache_truncated (Cophy.Interactive.cache t.session))) );
      ("p50_ms", Json.Num (quantile_ms t 0.5));
      ("p99_ms", Json.Num (quantile_ms t 0.99));
    ]

(* --- Protocol dispatch --- *)

let err msg = Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str msg) ]

let handle t request =
  match Json.member "op" request with
  | None -> err "missing \"op\""
  | Some op -> (
      match Json.to_str op with
      | None -> err "\"op\" must be a string"
      | Some "statement" -> (
          match Option.bind (Json.member "sql" request) Json.to_str with
          | None -> err "statement: missing \"sql\""
          | Some sql -> (
              let delta =
                match Json.member "delta" request with
                | None -> Some 1.0
                | Some d -> Json.to_float d
              in
              match delta with
              | None -> err "statement: \"delta\" must be a number"
              | Some delta when not (Float.abs delta <= max_abs_delta) ->
                err
                  (Printf.sprintf
                     "statement: \"delta\" must be finite with magnitude \
                      at most %g"
                     max_abs_delta)
              | Some delta -> (
                match Parse.statement t.schema sql with
                | stmt ->
                    observe t stmt delta;
                    Json.Obj
                      [
                        ("ok", Json.Bool true);
                        ("op", Json.Str "statement");
                        ("key", Json.Str (Canon.statement_key stmt));
                      ]
                | exception Parse.Parse_error m -> err ("parse error: " ^ m))))
      | Some "recommend" -> recommend t
      | Some "whatif" -> (
          match Option.bind (Json.member "sql" request) Json.to_str with
          | None -> err "whatif: missing \"sql\""
          | Some sql -> (
              match Parse.statement t.schema sql with
              | stmt -> whatif t stmt
              | exception Parse.Parse_error m -> err ("parse error: " ^ m)))
      | Some "stats" -> stats_response t
      | Some "quit" ->
          Json.Obj [ ("ok", Json.Bool true); ("op", Json.Str "quit") ]
      | Some other -> err (Printf.sprintf "unknown op %S" other))

(* One request line, parsed once: the response line, and whether the
   request was a [quit]. *)
let answer_line t line =
  match Json.of_string line with
  | request ->
      let quit =
        match Json.member "op" request with
        | Some (Json.Str "quit") -> true
        | _ -> false
      in
      (Json.to_string (handle t request), quit)
  | exception Json.Parse_error m ->
      (Json.to_string (err ("bad request: " ^ m)), false)

let handle_line t line = fst (answer_line t line)

type input = Line of string | Too_long | Eof

(* The next line of [ic] without its newline.  A line running past
   [max_line_bytes] is consumed to its end and reported as [Too_long]. *)
let read_request ic =
  let buf = Buffer.create 256 in
  let rec go ~over =
    match input_char ic with
    | '\n' -> if over then Too_long else Line (Buffer.contents buf)
    | c ->
        let over = over || Buffer.length buf >= max_line_bytes in
        if not over then Buffer.add_char buf c;
        go ~over
    | exception End_of_file ->
        if over then Too_long
        else if Buffer.length buf = 0 then Eof
        else Line (Buffer.contents buf)
  in
  go ~over:false

let serve_channels t ic oc =
  let reply response =
    output_string oc response;
    output_char oc '\n';
    Stdlib.flush oc
  in
  let rec loop () =
    match read_request ic with
    | Eof -> ()
    | Too_long ->
        reply
          (Json.to_string
             (err
                (Printf.sprintf "request line exceeds %d bytes" max_line_bytes)));
        loop ()
    | Line line ->
        let line = String.trim line in
        if line = "" then loop ()
        else begin
          let response, quit = answer_line t line in
          reply response;
          (* a quit op ends the stream after its acknowledgment *)
          if not quit then loop ()
        end
  in
  loop ()
