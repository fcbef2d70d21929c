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

(* Minimal JSON syntax checker (the repo has no JSON dependency): accepts
   exactly one well-formed value spanning the whole string. *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let fail = ref false in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c = if peek () = Some c then advance () else fail := true in
  let literal w =
    if !pos + String.length w <= n && String.sub s !pos (String.length w) = w
    then pos := !pos + String.length w
    else fail := true
  in
  let number () =
    let start = !pos in
    let isnum = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> isnum c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some _ -> ()
    | None -> fail := true
  in
  let string_lit () =
    expect '"';
    let fin = ref false in
    while (not !fin) && not !fail do
      match peek () with
      | None -> fail := true
      | Some '"' ->
          advance ();
          fin := true
      | Some '\\' -> (
          advance ();
          match peek () with Some _ -> advance () | None -> fail := true)
      | Some _ -> advance ()
    done
  in
  let rec value () =
    if not !fail then begin
      skip_ws ();
      match peek () with
      | Some '{' -> obj ()
      | Some '[' -> arr ()
      | Some '"' -> string_lit ()
      | Some ('-' | '0' .. '9') -> number ()
      | Some 't' -> literal "true"
      | Some 'f' -> literal "false"
      | Some 'n' -> literal "null"
      | _ -> fail := true
    end
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else
      let cont = ref true in
      while !cont && not !fail do
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance ()
        | Some '}' ->
            advance ();
            cont := false
        | _ -> fail := true
      done
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else
      let cont = ref true in
      while !cont && not !fail do
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance ()
        | Some ']' ->
            advance ();
            cont := false
        | _ -> fail := true
      done
  in
  value ();
  skip_ws ();
  (not !fail) && !pos = n

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
  Alcotest.(check bool)
    "chrome export is well-formed JSON" true
    (json_valid (Runtime.Trace.to_chrome_json ()));
  Alcotest.(check bool)
    "metrics export is well-formed JSON" true
    (json_valid (Runtime.Trace.to_metrics_json ()));
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
        ] );
      ( "clock",
        [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ] );
    ]
