(* The parallel runtime: parallel_map's determinism contract (order
   preservation, sequential-path equivalence, exception propagation),
   the trace counters and spans, and the monotonic clock. *)

exception Boom of int

let test_map_matches_sequential () =
  let arr = Array.init 1000 (fun i -> i) in
  let f x = (x * x) + 1 in
  let seq = Array.map f arr in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        seq
        (Runtime.parallel_map ~jobs f arr))
    [ 1; 2; 4; 8 ]

let test_map_order_preserved () =
  (* Uneven per-element cost exercises the chunked cursor: late chunks
     may finish before early ones, but slots are written by index. *)
  let arr = Array.init 200 (fun i -> i) in
  let f i =
    if i mod 7 = 0 then begin
      let acc = ref 0 in
      for k = 0 to 20_000 do
        acc := !acc + k
      done;
      ignore !acc
    end;
    i * 2
  in
  Alcotest.(check (array int))
    "order" (Array.map f arr)
    (Runtime.parallel_map ~jobs:4 f arr)

let test_map_empty_and_singleton () =
  Alcotest.(check (array int))
    "empty" [||]
    (Runtime.parallel_map ~jobs:4 (fun x -> x) [||]);
  Alcotest.(check (array int))
    "singleton" [| 43 |]
    (Runtime.parallel_map ~jobs:4 (fun x -> x + 1) [| 42 |])

let test_map_propagates_exception () =
  List.iter
    (fun jobs ->
      match
        Runtime.parallel_map ~jobs
          (fun i -> if i = 500 then raise (Boom i) else i)
          (Array.init 1000 (fun i -> i))
      with
      | _ -> Alcotest.failf "jobs=%d: expected Boom" jobs
      | exception Boom 500 -> ())
    [ 1; 4 ]

let test_map_usable_after_exception () =
  (* The pool must survive a failed section. *)
  (try
     ignore
       (Runtime.parallel_map ~jobs:4
          (fun i -> if i mod 3 = 0 then raise Exit else i)
          (Array.init 100 (fun i -> i)))
   with Exit -> ());
  Alcotest.(check (array int))
    "reusable"
    (Array.init 100 (fun i -> i + 1))
    (Runtime.parallel_map ~jobs:4 (fun i -> i + 1) (Array.init 100 (fun i -> i)))

let test_map_nested () =
  (* Nested parallel_map from worker context degrades to sequential but
     must still be correct. *)
  let out =
    Runtime.parallel_map ~jobs:4
      (fun i ->
        Array.fold_left ( + ) 0
          (Runtime.parallel_map ~jobs:4 (fun j -> i + j) (Array.init 10 Fun.id)))
      (Array.init 20 (fun i -> i))
  in
  Alcotest.(check (array int))
    "nested" (Array.init 20 (fun i -> (10 * i) + 45)) out

let test_trace_disabled_noop () =
  Runtime.Trace.disable ();
  Runtime.Trace.reset ();
  let c = Runtime.Trace.counter "test.noop" in
  Runtime.Trace.incr c;
  Runtime.Trace.add c 5;
  let v = Runtime.Trace.span "test.noop_span" (fun () -> 41 + 1) in
  Alcotest.(check int) "span passes the value through" 42 v;
  Alcotest.(check int)
    "counter untouched" 0
    (List.assoc "test.noop" (Runtime.Trace.counters ()));
  Alcotest.(check int) "no spans recorded" 0
    (List.length (Runtime.Trace.spans ()))

let test_trace_counter_parallel () =
  Runtime.Trace.reset ();
  Runtime.Trace.enable ();
  Fun.protect ~finally:Runtime.Trace.disable @@ fun () ->
  let c = Runtime.Trace.counter "test.par" in
  ignore
    (Runtime.parallel_map ~jobs:4
       (fun () ->
         Runtime.Trace.incr c;
         Runtime.Trace.add c 2)
       (Array.make 10_000 ()));
  Alcotest.(check int)
    "no lost updates" 30_000
    (List.assoc "test.par" (Runtime.Trace.counters ()));
  (* idempotent registration returns the same cell *)
  Runtime.Trace.incr (Runtime.Trace.counter "test.par");
  Alcotest.(check int)
    "same cell by name" 30_001
    (List.assoc "test.par" (Runtime.Trace.counters ()))

let test_trace_ring_overflow () =
  Runtime.Trace.reset ();
  Runtime.Trace.enable ();
  Fun.protect ~finally:Runtime.Trace.disable @@ fun () ->
  let cap = Runtime.Trace.ring_capacity in
  let extra = 100 in
  for i = 0 to cap + extra - 1 do
    Runtime.Trace.span (string_of_int i) (fun () -> ())
  done;
  let spans = Runtime.Trace.spans () in
  Alcotest.(check int) "retains exactly ring_capacity" cap (List.length spans);
  Alcotest.(check int) "dropped_spans counts the overflow" extra
    (Runtime.Trace.dropped_spans ());
  List.iter
    (fun (s : Runtime.Trace.span) ->
      Alcotest.(check bool)
        "only the newest spans survive" true
        (int_of_string s.Runtime.Trace.sname >= extra))
    spans

let test_trace_exporters () =
  Runtime.Trace.reset ();
  Runtime.Trace.enable ();
  Fun.protect ~finally:Runtime.Trace.disable @@ fun () ->
  (* names that exercise the JSON escaper *)
  Runtime.Trace.incr (Runtime.Trace.counter "test.export \"quoted\"");
  ignore
    (Runtime.Trace.span "outer" (fun () ->
         Runtime.Trace.span "inner \\ \"esc\"\n" (fun () -> 7)));
  let json = Runtime.Json.of_string (Runtime.Trace.to_chrome_json ()) in
  let member k v =
    match Runtime.Json.member k v with
    | Some x -> x
    | None -> Alcotest.failf "missing %S in %s" k (Runtime.Json.to_string v)
  in
  let num k v =
    match Runtime.Json.to_float (member k v) with
    | Some f -> f
    | None -> Alcotest.failf "%S is not a number" k
  in
  let events =
    match member "traceEvents" json with
    | Runtime.Json.List evs -> evs
    | _ -> Alcotest.fail "traceEvents is not a list"
  in
  Alcotest.(check int) "one event per span" 2 (List.length events);
  List.iter
    (fun e ->
      Alcotest.(check (option string))
        "complete event" (Some "X")
        (Runtime.Json.to_str (member "ph" e));
      Alcotest.(check bool) "ts >= 0" true (num "ts" e >= 0.0);
      Alcotest.(check bool) "dur >= 0" true (num "dur" e >= 0.0))
    events;
  Alcotest.(check bool)
    "escaped span name round-trips" true
    (List.exists
       (fun e -> Runtime.Json.to_str (member "name" e) = Some "inner \\ \"esc\"\n")
       events);
  let metrics = member "metrics" json in
  Alcotest.(check (float 0.0))
    "escaped counter name round-trips" 1.0
    (num "test.export \"quoted\"" (member "counters" metrics));
  Alcotest.(check (float 0.0))
    "span totals by name" 1.0
    (num "count" (member "outer" (member "spans" metrics)));
  let rec mono last = function
    | [] -> true
    | (s : Runtime.Trace.span) :: tl ->
        s.Runtime.Trace.ts >= last
        && s.Runtime.Trace.ts >= 0.0
        && s.Runtime.Trace.dur >= 0.0
        && mono s.Runtime.Trace.ts tl
  in
  Alcotest.(check bool)
    "timestamps monotone, durations non-negative" true
    (mono 0.0 (Runtime.Trace.spans ()))

(* An unwritable trace path fails before any work and leaves tracing
   off; the binaries turn the error into "cannot write FILE" + exit 2. *)
let test_trace_record_to_file_unwritable () =
  Runtime.Trace.disable ();
  (* a path below a regular file can never be opened *)
  let not_a_dir = Filename.temp_file "trace" ".tmp" in
  let file = Filename.concat not_a_dir "t.json" in
  Fun.protect ~finally:(fun () -> Sys.remove not_a_dir) @@ fun () ->
  (match Runtime.Trace.record_to_file file with
  | Ok () -> Alcotest.fail "record_to_file accepted an unwritable path"
  | Error msg ->
      Alcotest.(check bool) "message names the file" true
        (String.starts_with ~prefix:file msg));
  Alcotest.(check bool) "tracing left disabled" false (Runtime.Trace.enabled ())

let test_clock_monotonic () =
  let a = Runtime.Clock.now () in
  let b = Runtime.Clock.now () in
  Alcotest.(check bool) "non-decreasing" true (b >= a);
  Alcotest.(check bool) "non-negative" true (a >= 0.0)

let () =
  Alcotest.run "runtime"
    [
      ( "parallel_map",
        [
          Alcotest.test_case "matches sequential map" `Quick
            test_map_matches_sequential;
          Alcotest.test_case "order preserved under uneven load" `Quick
            test_map_order_preserved;
          Alcotest.test_case "empty and singleton" `Quick
            test_map_empty_and_singleton;
          Alcotest.test_case "propagates exceptions" `Quick
            test_map_propagates_exception;
          Alcotest.test_case "pool survives exceptions" `Quick
            test_map_usable_after_exception;
          Alcotest.test_case "nested calls fall back" `Quick test_map_nested;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled path is a no-op" `Quick
            test_trace_disabled_noop;
          Alcotest.test_case "counters exact under parallel_map" `Quick
            test_trace_counter_parallel;
          Alcotest.test_case "ring overflow keeps newest spans" `Quick
            test_trace_ring_overflow;
          Alcotest.test_case "exporters emit valid JSON" `Quick
            test_trace_exporters;
          Alcotest.test_case "unwritable trace file fails up front" `Quick
            test_trace_record_to_file_unwritable;
        ] );
      ( "clock",
        [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ] );
    ]
