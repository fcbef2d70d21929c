(* Tests for the serve layer: the hand-rolled JSON codec and the
   protocol engine (dedupe, sliding window, warm recommendations,
   trace-invariant determinism). *)

open Sqlast

let schema = Catalog.Tpch.schema ()

(* --- Json --- *)

let test_json_print () =
  let v =
    Serve.Json.Obj
      [
        ("s", Serve.Json.Str "a\"b\\c\nd");
        ("i", Serve.Json.Num 42.0);
        ("f", Serve.Json.Num 1.5);
        ("nan", Serve.Json.Num Float.nan);
        ("l", Serve.Json.List [ Serve.Json.Bool true; Serve.Json.Null ]);
      ]
  in
  Alcotest.(check string) "printing"
    {|{"s":"a\"b\\c\nd","i":42,"f":1.5,"nan":null,"l":[true,null]}|}
    (Serve.Json.to_string v)

let test_json_parse () =
  let v =
    Serve.Json.of_string
      {| { "op" : "statement", "delta": -2.5e1, "t":true, "u":"A\n",
           "xs": [1, 2, {"y": null}] } |}
  in
  Alcotest.(check bool) "op member" true
    (Serve.Json.member "op" v = Some (Serve.Json.Str "statement"));
  Alcotest.(check bool) "number" true
    (Option.bind (Serve.Json.member "delta" v) Serve.Json.to_float
    = Some (-25.0));
  Alcotest.(check bool) "unicode escape" true
    (Option.bind (Serve.Json.member "u" v) Serve.Json.to_str = Some "A\n");
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" bad)
        true
        (match Serve.Json.of_string bad with
        | _ -> false
        | exception Serve.Json.Parse_error _ -> true))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "{} trailing"; "\"unterminated" ]

(* Printed values reparse to themselves (for the value space the daemon
   emits: finite numbers that survive the %.12g print precision). *)
let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Serve.Json.Null;
        map (fun b -> Serve.Json.Bool b) bool;
        map (fun i -> Serve.Json.Num (float_of_int i)) (int_range (-1000) 1000);
        map (fun s -> Serve.Json.Str s) (string_size ~gen:printable (0 -- 12));
      ]
  in
  let value =
    oneof
      [
        scalar;
        map (fun xs -> Serve.Json.List xs) (list_size (0 -- 6) scalar);
        map
          (fun kvs -> Serve.Json.Obj kvs)
          (list_size (0 -- 6)
             (pair (string_size ~gen:printable (1 -- 8)) scalar));
      ]
  in
  value

let prop_json_roundtrip =
  QCheck.Test.make ~name:"printed JSON reparses to itself" ~count:200
    (QCheck.make json_gen)
    (fun v -> Serve.Json.of_string (Serve.Json.to_string v) = v)

(* --- Engine --- *)

let sql_of stmt = Print.statement_to_string stmt

let statements ~n ~seed =
  Workload.Gen.hom schema ~n ~seed
  |> List.map (fun { Ast.stmt; _ } -> stmt)

let engine ?window ?certify ?probe_budget () =
  Serve.Engine.create ?window ?certify ?probe_budget schema

let observe_all e stmts =
  List.iter (fun s -> Serve.Engine.observe e s 1.0) stmts

let test_engine_dedupe () =
  let e = engine () in
  let stmts = statements ~n:3 ~seed:5 in
  observe_all e stmts;
  observe_all e stmts;
  Serve.Engine.flush e;
  Alcotest.(check int) "one entry per canonical key" (List.length stmts)
    (Serve.Engine.session_statements e);
  Alcotest.(check int) "window counts every event" (2 * List.length stmts)
    (Serve.Engine.window_size e);
  (* repeat observations reached the session without new INUM builds *)
  let store = Cophy.Interactive.store (Serve.Engine.session e) in
  Alcotest.(check int) "distinct builds only" (List.length stmts)
    (Inum.Keyed.misses store)

let test_engine_window_eviction () =
  let e = engine ~window:4 () in
  let stmts = statements ~n:2 ~seed:6 in
  (* fill the window with the first statement, then push it out *)
  List.iter (fun _ -> Serve.Engine.observe e (List.hd stmts) 1.0) [ 1; 2; 3; 4 ];
  Serve.Engine.flush e;
  Alcotest.(check int) "one statement" 1 (Serve.Engine.session_statements e);
  List.iter
    (fun _ -> Serve.Engine.observe e (List.nth stmts 1) 1.0)
    [ 1; 2; 3; 4 ];
  Serve.Engine.flush e;
  Alcotest.(check int) "window capped" 4 (Serve.Engine.window_size e);
  Alcotest.(check int) "zero-mass key left the session" 1
    (Serve.Engine.session_statements e)

let member_exn k v =
  match Serve.Json.member k v with
  | Some x -> x
  | None -> Alcotest.failf "missing %S in %s" k (Serve.Json.to_string v)

let test_engine_recommend_whatif_stats () =
  let e = engine () in
  let stmts = statements ~n:3 ~seed:7 in
  observe_all e stmts;
  (* certify:true (the default) would have raised on a bad solution *)
  let r = Serve.Engine.recommend e in
  Alcotest.(check bool) "ok" true (member_exn "ok" r = Serve.Json.Bool true);
  (match member_exn "indexes" r with
  | Serve.Json.List ixs ->
      Alcotest.(check bool) "some indexes" true (List.length ixs > 0)
  | _ -> Alcotest.fail "indexes not a list");
  Alcotest.(check bool) "latency fields present" true
    (Serve.Json.member "p50_ms" r <> None
    && Serve.Json.member "p99_ms" r <> None);
  let wi = Serve.Engine.whatif e (List.hd stmts) in
  Alcotest.(check bool) "whatif ok" true
    (member_exn "ok" wi = Serve.Json.Bool true);
  let improvement =
    Option.get (Serve.Json.to_float (member_exn "improvement" wi))
  in
  Alcotest.(check bool) "recommended config no worse" true
    (improvement >= 0.0);
  let st = Serve.Engine.stats_response e in
  Alcotest.(check bool) "whatif was a cache hit" true
    (Option.get (Serve.Json.to_float (member_exn "cache_hits" st)) >= 1.0);
  Alcotest.(check bool) "probes counted" true
    (Option.get (Serve.Json.to_float (member_exn "inum_probes" st)) > 0.0)

let statement_line ?(delta = 1.0) stmt =
  Serve.Json.to_string
    (Serve.Json.Obj
       [
         ("op", Serve.Json.Str "statement");
         ("sql", Serve.Json.Str (sql_of stmt));
         ("delta", Serve.Json.Num delta);
       ])

(* [inum_probes] counts every optimizer probe spent on the session's
   INUM caches, including the deferred probes recommend's refine rounds
   force: on a stream without what-if reads (which build outside the
   session) it equals the [whatif.template_probes] trace counter, which
   ticks once per template-plan probe. *)
let test_engine_inum_probes_match_trace () =
  let e = engine ~probe_budget:2 () in
  let lines =
    List.map statement_line (statements ~n:6 ~seed:7)
    @ [ {|{"op":"recommend"}|}; {|{"op":"stats"}|} ]
  in
  Runtime.Trace.reset ();
  Runtime.Trace.enable ();
  let replies =
    Fun.protect ~finally:Runtime.Trace.disable (fun () ->
        List.map
          (fun l -> Serve.Json.of_string (Serve.Engine.handle_line e l))
          lines)
  in
  let counter name =
    Option.value ~default:0 (List.assoc_opt name (Runtime.Trace.counters ()))
  in
  let st = List.nth replies (List.length replies - 1) in
  let probes =
    Option.get (Serve.Json.to_float (member_exn "inum_probes" st))
    |> int_of_float
  in
  Alcotest.(check bool) "refine forced probes" true
    (counter "inum.probes_forced" > 0);
  Alcotest.(check int) "inum_probes = whatif.template_probes"
    (counter "whatif.template_probes") probes

(* The p50/p99 reply fields come from a fixed-bucket histogram: whatever
   the timings, both are bucket edges and p50 <= p99, in the recommend
   replies and in stats. *)
let test_engine_latency_histogram () =
  let e = engine () in
  observe_all e (statements ~n:3 ~seed:7);
  let is_edge x =
    List.exists
      (fun i -> Float.equal (Serve.Engine.latency_edge_ms i) x)
      (List.init Serve.Engine.latency_buckets Fun.id)
  in
  let check_quantiles label r =
    let get k = Option.get (Serve.Json.to_float (member_exn k r)) in
    let p50 = get "p50_ms" and p99 = get "p99_ms" in
    Alcotest.(check bool) (label ^ ": p50 is a bucket edge") true (is_edge p50);
    Alcotest.(check bool) (label ^ ": p99 is a bucket edge") true (is_edge p99);
    Alcotest.(check bool) (label ^ ": p50 <= p99") true (p50 <= p99)
  in
  for i = 1 to 5 do
    check_quantiles
      (Printf.sprintf "recommend %d" i)
      (Serve.Engine.recommend e)
  done;
  check_quantiles "stats" (Serve.Engine.stats_response e)

let test_handle_line_errors () =
  let e = engine () in
  let expect_error line =
    let resp = Serve.Json.of_string (Serve.Engine.handle_line e line) in
    Alcotest.(check bool)
      (Printf.sprintf "error for %s" line)
      true
      (member_exn "ok" resp = Serve.Json.Bool false
      && Serve.Json.member "error" resp <> None)
  in
  expect_error "not json";
  expect_error {|{"no_op":1}|};
  expect_error {|{"op":"frobnicate"}|};
  expect_error {|{"op":"statement"}|};
  expect_error {|{"op":"statement","sql":"SELECT garbage FROM nowhere"}|};
  expect_error {|{"op":"whatif","sql":"UPDATE orders SET o_comment = ?"}|};
  (* deltas the solver cannot price are rejected before they reach the
     window, so the session stays solvable *)
  let stmt = List.hd (statements ~n:1 ~seed:4) in
  ignore (Serve.Engine.handle_line e (statement_line stmt));
  let sql = Serve.Json.to_string (Serve.Json.Str (sql_of stmt)) in
  List.iter
    (fun delta ->
      expect_error
        (Printf.sprintf {|{"op":"statement","sql":%s,"delta":%s}|} sql delta))
    [ "1e999"; "-1e999"; "1e306"; "\"abc\""; "null"; "true"; "{}" ];
  let r =
    Serve.Json.of_string (Serve.Engine.handle_line e {|{"op":"recommend"}|})
  in
  Alcotest.(check bool) "recommend after rejected deltas" true
    (member_exn "ok" r = Serve.Json.Bool true)

(* A selectivity hint that is NaN or outside [0,1] gets an error reply,
   on [statement] and on [whatif], and leaves the session as it was:
   [stats] reads the same before and after, and the next request is
   answered. *)
let test_engine_bad_selectivity_hint () =
  let e = engine () in
  let stmt = List.hd (statements ~n:1 ~seed:4) in
  ignore (Serve.Engine.handle_line e (statement_line stmt));
  let stats () = Serve.Engine.handle_line e {|{"op":"stats"}|} in
  let before = stats () in
  List.iter
    (fun hint ->
      let sql =
        Printf.sprintf
          "SELECT lineitem.l_returnflag FROM lineitem WHERE \
           lineitem.l_shipdate <= ? /*sel=%s*/"
          hint
      in
      List.iter
        (fun op ->
          let line =
            Printf.sprintf {|{"op":"%s","sql":%s}|} op
              (Serve.Json.to_string (Serve.Json.Str sql))
          in
          let r = Serve.Json.of_string (Serve.Engine.handle_line e line) in
          Alcotest.(check bool)
            (Printf.sprintf "%s sel=%s: error reply" op hint)
            true
            (member_exn "ok" r = Serve.Json.Bool false))
        [ "statement"; "whatif" ])
    [ "1.5"; "nan"; "inf"; "-0.5" ];
  Alcotest.(check string) "stats unchanged" before (stats ());
  let r =
    Serve.Json.of_string (Serve.Engine.handle_line e {|{"op":"recommend"}|})
  in
  Alcotest.(check bool) "the next request is answered" true
    (member_exn "ok" r = Serve.Json.Bool true)

(* The canonical key the engine files a statement under: the key of its
   printed SQL, parsed again (printing rounds selectivities, so it can
   differ from the generated statement's own key). *)
let served_key stmt = Canon.statement_key (Parse.statement schema (sql_of stmt))

(* [k] statements with pairwise distinct served keys. *)
let distinct_statements k =
  let seen = Hashtbl.create 16 in
  statements ~n:40 ~seed:3
  |> List.filter (fun s ->
         let key = served_key s in
         (not (Hashtbl.mem seen key)) && (Hashtbl.add seen key (); true))
  |> List.filteri (fun i _ -> i < k)

let number_member k v =
  match Serve.Json.to_float (member_exn k v) with
  | Some x -> x
  | None -> Alcotest.failf "%S is not a number" k

(* A key whose mass dropped to zero while its events were still in the
   window comes back with the mass its evicted negative delta returns.
   At window 3 the stream A+1 A-1 A+1 B+1 C+1 (a recommend after each)
   leaves [A+1, B+1, C+1] in the window: three statements, A weighing
   1. *)
let test_engine_window_zero_mass_return () =
  let e = engine ~window:3 () in
  let a, b, c =
    match distinct_statements 3 with
    | [ a; b; c ] -> (a, b, c)
    | _ -> Alcotest.fail "three distinct statements"
  in
  let reply line = Serve.Json.of_string (Serve.Engine.handle_line e line) in
  List.iter
    (fun (stmt, delta) ->
      ignore (reply (statement_line ~delta stmt));
      ignore (reply {|{"op":"recommend"}|}))
    [ (a, 1.0); (a, -1.0); (a, 1.0); (b, 1.0); (c, 1.0) ];
  let st = reply {|{"op":"stats"}|} in
  Alcotest.(check (float 0.0)) "three statements" 3.0
    (number_member "statements" st);
  let weight_of s =
    List.find_map
      (fun (wt : Ast.weighted) ->
        if Canon.statement_key wt.Ast.stmt = served_key s then
          Some wt.Ast.weight
        else None)
      (Cophy.Interactive.workload (Serve.Engine.session e))
  in
  Alcotest.(check (option (float 0.0))) "A keeps its mass" (Some 1.0)
    (weight_of a)

(* Rounding leaves no ghost: once a key's last event left the window its
   mass is zero, however far the sum of its deltas strayed (1e12 + 0.3
   is not exact: subtracting both leaves about 5e-5). *)
let test_engine_window_no_ghost_mass () =
  let e = engine ~window:2 () in
  let a, b =
    match distinct_statements 2 with
    | [ a; b ] -> (a, b)
    | _ -> Alcotest.fail "two distinct statements"
  in
  List.iter
    (fun (stmt, delta) ->
      ignore (Serve.Engine.handle_line e (statement_line ~delta stmt)))
    [ (a, 1e12); (a, 0.3); (b, 1.0); (b, 1.0) ];
  let st =
    Serve.Json.of_string (Serve.Engine.handle_line e {|{"op":"stats"}|})
  in
  Alcotest.(check (float 0.0)) "only B is left" 1.0
    (number_member "statements" st);
  Alcotest.(check int) "one session statement" 1
    (List.length (Cophy.Interactive.workload (Serve.Engine.session e)))

(* Reference model of the sliding window: after every recommend or
   stats reply, the session holds exactly the keys whose deltas among
   the last [window] events sum above 1e-9, each weighing that sum, and
   the reply's [statements] counts them.  Deltas are exact in binary, so
   the sums are exact. *)
type window_op = Observe of int * float | Recommend | Stats

let window_op =
  let open QCheck.Gen in
  let delta = oneofl [ -2.0; -1.0; -0.5; 0.5; 1.0; 2.0 ] in
  frequency
    [
      (6, map2 (fun i d -> Observe (i, d)) (int_bound 2) delta);
      (2, return Recommend);
      (1, return Stats);
    ]

let print_window_op = function
  | Observe (i, d) -> Printf.sprintf "%c%+g" (Char.chr (65 + i)) d
  | Recommend -> "rec"
  | Stats -> "stats"

let window_case =
  QCheck.(
    pair (int_range 1 5)
      (list_of_size Gen.(1 -- 24) (make ~print:print_window_op window_op)))

let print_weights ws =
  String.concat "; "
    (List.map
       (fun (k, w) -> Printf.sprintf "%s=%g" (Digest.to_hex (Digest.string k)) w)
       ws)

let prop_window_reference_model =
  let stmts = Array.of_list (distinct_statements 3) in
  let keys = Array.map served_key stmts in
  QCheck.Test.make ~name:"serve window = per-key sum over the last events"
    ~count:200
    window_case
    (fun (window, ops) ->
      let e = engine ~window () in
      let events = ref [] in
      let expected () =
        let recent = List.filteri (fun i _ -> i < window) !events in
        List.filter_map
          (fun i ->
            let sum =
              List.fold_left
                (fun acc (j, d) -> if j = i then acc +. d else acc)
                0.0 recent
            in
            if sum > 1e-9 then Some (keys.(i), sum) else None)
          [ 0; 1; 2 ]
        |> List.sort compare
      in
      let actual () =
        Cophy.Interactive.workload (Serve.Engine.session e)
        |> List.map (fun (wt : Ast.weighted) ->
               (Canon.statement_key wt.Ast.stmt, wt.Ast.weight))
        |> List.sort compare
      in
      let check reply =
        let want = expected () and got = actual () in
        if got <> want then
          QCheck.Test.fail_reportf "session [%s], model [%s]"
            (print_weights got) (print_weights want);
        if number_member "statements" reply <> float_of_int (List.length want)
        then QCheck.Test.fail_reportf "statements field differs from the model"
      in
      List.iter
        (function
          | Observe (i, d) ->
              events := (i, d) :: !events;
              ignore
                (Serve.Engine.handle_line e (statement_line ~delta:d stmts.(i)))
          | Recommend -> check (Serve.Engine.recommend e)
          | Stats -> check (Serve.Engine.stats_response e))
        ops;
      check (Serve.Engine.stats_response e);
      true)

(* A query whose join graph leaves a table unreached (nation joins
   nothing) plans with a cross product: the what-if read answers finite
   costs and recommend answers instead of killing the daemon. *)
let test_disconnected_join_graph () =
  let e = engine () in
  let sql =
    {|"SELECT lineitem.l_quantity FROM lineitem, part, nation WHERE lineitem.l_partkey = part.p_partkey"|}
  in
  let reply line = Serve.Json.of_string (Serve.Engine.handle_line e line) in
  let ok r = member_exn "ok" r = Serve.Json.Bool true in
  let finite k r =
    match Serve.Json.to_float (member_exn k r) with
    | Some x -> Float.is_finite x
    | None -> false
  in
  Alcotest.(check bool) "statement ok" true
    (ok (reply (Printf.sprintf {|{"op":"statement","sql":%s}|} sql)));
  let wi = reply (Printf.sprintf {|{"op":"whatif","sql":%s}|} sql) in
  Alcotest.(check bool) "whatif ok with finite costs" true
    (ok wi && finite "cost_base" wi && finite "cost_recommended" wi);
  let r = reply {|{"op":"recommend"}|} in
  Alcotest.(check bool) "recommend ok with a finite objective" true
    (ok r && finite "objective" r)

(* The protocol is deterministic in the event stream: replies are byte
   identical across runs and trace on/off, once the named latency
   fields are stripped. *)
let strip_latency v =
  match v with
  | Serve.Json.Obj kvs ->
      Serve.Json.Obj
        (List.filter
           (fun (k, _) ->
             String.length k < 3 || String.sub k (String.length k - 3) 3 <> "_ms")
           kvs)
  | v -> v

let run_stream lines =
  let e = engine () in
  List.map
    (fun line ->
      Serve.Json.to_string
        (strip_latency (Serve.Json.of_string (Serve.Engine.handle_line e line))))
    lines

let test_engine_deterministic_under_trace () =
  let stmts = statements ~n:3 ~seed:8 in
  let lines =
    List.map (statement_line ~delta:2.0) stmts
    @ [ {|{"op":"recommend"}|}; {|{"op":"stats"}|} ]
  in
  let plain = run_stream lines in
  Runtime.Trace.reset ();
  Runtime.Trace.enable ();
  let traced =
    Fun.protect ~finally:Runtime.Trace.disable (fun () -> run_stream lines)
  in
  List.iter2
    (Alcotest.(check string) "trace does not change replies")
    plain traced;
  Alcotest.(check bool) "serve spans recorded" true
    (List.length (Runtime.Trace.spans ()) > 0)

(* The reply lines [serve_channels] writes for the request [lines] on a
   fresh engine. *)
let serve_lines lines =
  let input = Filename.temp_file "serve_in" ".jsonl" in
  let output = Filename.temp_file "serve_out" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove input; Sys.remove output)
  @@ fun () ->
  Out_channel.with_open_bin input (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  In_channel.with_open_bin input (fun ic ->
      Out_channel.with_open_bin output (fun oc ->
          Serve.Engine.serve_channels (engine ()) ic oc));
  In_channel.with_open_bin output In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")

(* An over-long request line is discarded unparsed: the client gets an
   error reply and the session carries on as if the line never came.
   The long line is a well-formed statement padded with JSON
   whitespace, so only the size cap can reject it. *)
let test_serve_channels_line_cap () =
  let stmts = statements ~n:3 ~seed:9 in
  let lines = List.map statement_line stmts in
  let long_line =
    let s = statement_line (List.hd stmts) in
    String.sub s 0 (String.length s - 1)
    ^ String.make Serve.Engine.max_line_bytes ' '
    ^ "}"
  in
  let tail = [ {|{"op":"recommend"}|}; {|{"op":"stats"}|} ] in
  let replies =
    serve_lines (lines @ (long_line :: tail))
    |> List.map (fun r ->
           Serve.Json.to_string (strip_latency (Serve.Json.of_string r)))
  in
  let n = List.length lines in
  Alcotest.(check int) "one reply per request" (n + 1 + List.length tail)
    (List.length replies);
  let error = Serve.Json.of_string (List.nth replies n) in
  Alcotest.(check bool) "over-long line answered with an error" true
    (member_exn "ok" error = Serve.Json.Bool false
    && Serve.Json.member "error" error <> None);
  Alcotest.(check (list string)) "session unchanged by the long line"
    (run_stream (lines @ tail))
    (List.filteri (fun i _ -> i <> n) replies)

(* A [quit] request is acknowledged and ends the stream: the lines after
   it get no reply.  An unterminated quit object is a malformed request,
   not a quit: it gets an error reply and the loop goes on. *)
let test_serve_channels_quit () =
  let replies =
    serve_lines
      [ {|{"op":"quit"|}; {|{"op":"stats"}|}; {|{"op":"quit"}|};
        {|{"op":"stats"}|} ]
    |> List.map Serve.Json.of_string
  in
  match replies with
  | [ bad; stats; quit ] ->
      Alcotest.(check bool) "unterminated quit answered with an error" true
        (member_exn "ok" bad = Serve.Json.Bool false
        && Serve.Json.member "error" bad <> None);
      Alcotest.(check bool) "stats answered" true
        (member_exn "ok" stats = Serve.Json.Bool true);
      Alcotest.(check string) "quit acknowledged"
        {|{"ok":true,"op":"quit"}|} (Serve.Json.to_string quit)
  | _ ->
      Alcotest.failf "expected 3 replies, got %d" (List.length replies)

(* The committed fixture through [serve_channels] at cophy_serve's
   defaults (window 256, budget 0.25, probe budget 16, certify on),
   plain and traced: the reply streams agree once the latency fields
   are stripped, every request succeeds, each recommendation is a
   non-empty index set with latency quantiles and a non-negative gap,
   the final stats count INUM probes, and the traced replay recorded
   serve spans. *)
let test_fixture_replay () =
  let replay () =
    let e =
      Serve.Engine.create ~window:256 ~budget_fraction:0.25 ~probe_budget:16
        ~certify:true schema
    in
    let output = Filename.temp_file "serve_out" ".jsonl" in
    Fun.protect ~finally:(fun () -> Sys.remove output) @@ fun () ->
    In_channel.with_open_bin "fixtures/serve_smoke.jsonl" (fun ic ->
        Out_channel.with_open_bin output (fun oc ->
            Serve.Engine.serve_channels e ic oc));
    In_channel.with_open_bin output In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
    |> List.map Serve.Json.of_string
  in
  let plain = replay () in
  Runtime.Trace.reset ();
  Runtime.Trace.enable ();
  let traced = Fun.protect ~finally:Runtime.Trace.disable replay in
  let stripped rs = List.map (fun r -> Serve.Json.to_string (strip_latency r)) rs in
  Alcotest.(check (list string)) "trace does not change replies"
    (stripped plain) (stripped traced);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        ("ok: " ^ Serve.Json.to_string r)
        true
        (member_exn "ok" r = Serve.Json.Bool true))
    plain;
  let op r = Serve.Json.to_str (member_exn "op" r) in
  let recs = List.filter (fun r -> op r = Some "recommend") plain in
  Alcotest.(check bool) "a recommendation was served" true (recs <> []);
  List.iter
    (fun r ->
      (match member_exn "indexes" r with
      | Serve.Json.List (_ :: _) -> ()
      | _ -> Alcotest.fail "empty recommendation");
      ignore (member_exn "p50_ms" r, member_exn "p99_ms" r);
      Alcotest.(check bool) "gap >= 0" true
        (Option.get (Serve.Json.to_float (member_exn "gap" r)) >= 0.0))
    recs;
  let stats = List.filter (fun r -> op r = Some "stats") plain in
  Alcotest.(check bool) "final stats count INUM probes" true
    (match List.rev stats with
    | last :: _ ->
        Option.get (Serve.Json.to_float (member_exn "inum_probes" last)) > 0.0
    | [] -> false);
  Alcotest.(check bool) "serve.* spans recorded" true
    (List.exists
       (fun (sp : Runtime.Trace.span) ->
         String.starts_with ~prefix:"serve." sp.Runtime.Trace.sname)
       (Runtime.Trace.spans ()))

(* Two spellings of one statement (one canonical key): two range
   predicates on [o_orderdate] in swapped order.  An index seeks on the
   first matching range predicate, so pricing the statement as written
   would make the session's costs depend on which spelling came first;
   the BIP prices the canonical form, so fresh engines fed the spellings
   in either order give bit-identical recommend replies. *)
let test_engine_spelling_order () =
  let date = Ast.col_ref "orders" "o_orderdate" in
  let spelling predicates =
    Ast.Select
      {
        Ast.query_id = 1;
        tables = [ "orders" ];
        select = [ Ast.Col (Ast.col_ref "orders" "o_totalprice") ];
        predicates;
        joins = [];
        group_by = [];
        order_by = [];
      }
  in
  let before = Ast.predicate ~selectivity:0.001 date Ast.Lt in
  let after = Ast.predicate ~selectivity:0.02 date Ast.Gt in
  let a = spelling [ before; after ] and b = spelling [ after; before ] in
  Alcotest.(check string) "one canonical key" (Canon.statement_key a)
    (Canon.statement_key b);
  Alcotest.(check bool) "two spellings" true (sql_of a <> sql_of b);
  let others = List.map statement_line (statements ~n:3 ~seed:7) in
  let recommend first second =
    match
      run_stream
        (others @ [ statement_line first; statement_line second;
                    {|{"op":"recommend"}|} ])
      |> List.rev
    with
    | r :: _ -> r
    | [] -> Alcotest.fail "no reply"
  in
  let ab = recommend a b in
  Alcotest.(check bool) "recommend ok" true
    (member_exn "ok" (Serve.Json.of_string ab) = Serve.Json.Bool true);
  Alcotest.(check string) "arrival order does not change the reply" ab
    (recommend b a)

(* A drifting stream over 100 templates through observe/recommend at
   window 256, long enough (300 events) for the window to evict: a
   repeat of a canonical key never costs an optimizer probe, so the
   keyed store's misses equal the distinct keys observed. *)
let test_drift_replay_no_repeat_probes () =
  let e = Serve.Engine.create ~window:256 schema in
  let distinct = Hashtbl.create 64 in
  List.iter
    (function
      | Workload.Replay.Statement (s, d) ->
          Hashtbl.replace distinct (Canon.statement_key s) ();
          Serve.Engine.observe e s d
      | Workload.Replay.Recommend -> ignore (Serve.Engine.recommend e))
    (Workload.Replay.drift ~recommend_every:50 schema ~n:100 ~events:300
       ~seed:7);
  let store = Cophy.Interactive.store (Serve.Engine.session e) in
  Alcotest.(check int) "misses = distinct canonical keys (repeat_probes = 0)"
    (Hashtbl.length distinct) (Inum.Keyed.misses store)

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "print" `Quick test_json_print;
          Alcotest.test_case "parse" `Quick test_json_parse;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
        ] );
      ( "engine",
        [
          Alcotest.test_case "dedupe" `Quick test_engine_dedupe;
          Alcotest.test_case "window eviction" `Quick
            test_engine_window_eviction;
          Alcotest.test_case "window: a key back from zero mass" `Quick
            test_engine_window_zero_mass_return;
          Alcotest.test_case "window: rounding leaves no ghost mass" `Quick
            test_engine_window_no_ghost_mass;
          QCheck_alcotest.to_alcotest prop_window_reference_model;
          Alcotest.test_case "recommend/whatif/stats" `Quick
            test_engine_recommend_whatif_stats;
          Alcotest.test_case "inum_probes = trace init_calls" `Quick
            test_engine_inum_probes_match_trace;
          Alcotest.test_case "latency histogram" `Quick
            test_engine_latency_histogram;
          Alcotest.test_case "protocol errors" `Quick test_handle_line_errors;
          Alcotest.test_case "selectivity hint outside [0,1]" `Quick
            test_engine_bad_selectivity_hint;
          Alcotest.test_case "disconnected join graph" `Quick
            test_disconnected_join_graph;
          Alcotest.test_case "deterministic under trace" `Quick
            test_engine_deterministic_under_trace;
          Alcotest.test_case "line cap" `Quick test_serve_channels_line_cap;
          Alcotest.test_case "quit ends the stream" `Quick
            test_serve_channels_quit;
          Alcotest.test_case "fixture replay, plain = traced" `Quick
            test_fixture_replay;
          Alcotest.test_case "drift replay: no repeat probes" `Quick
            test_drift_replay_no_repeat_probes;
          Alcotest.test_case "two spellings, either arrival order" `Quick
            test_engine_spelling_order;
        ] );
    ]
