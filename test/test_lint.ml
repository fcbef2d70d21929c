(* cophy-lint layer-1 fixtures: for each source rule L1-L5, a snippet that
   must trigger and a near-miss that must not, plus the [@lint.allow]
   suppression and bad-attribute behaviour. *)

let lint src = Lint_core.lint_string ~file:"fixture.ml" src
let rules src = List.map (fun v -> v.Lint_core.v_rule) (lint src)
let triggers r src = List.mem r (rules src)

let check_triggers rule name src =
  Alcotest.(check bool) (name ^ " triggers") true (triggers rule src)

let check_clean name src =
  Alcotest.(check (list string))
    (name ^ " is clean") []
    (List.map Lint_core.rule_name (List.map (fun v -> v.Lint_core.v_rule) (lint src)))

(* --- L1 float_eq --- *)

let test_float_eq () =
  check_triggers Lint_core.Float_eq "literal comparand" "let bad x = x = 1.0";
  check_triggers Lint_core.Float_eq "float arithmetic comparand"
    "let bad a b = a +. 1.0 <> b";
  check_triggers Lint_core.Float_eq "polymorphic compare"
    "let bad a = compare (abs_float a) 0.5";
  check_triggers Lint_core.Float_eq "infinity sentinel"
    "let bad lb = lb = neg_infinity";
  check_triggers Lint_core.Float_eq "Float-module result"
    "let bad a b = Float.min a b = 0.0";
  (* alias / record-field float types, resolved by the type pre-pass *)
  check_triggers Lint_core.Float_eq "float field vs float field"
    "type stats = { elapsed : float }\nlet bad s t = s.elapsed = t.elapsed";
  check_triggers Lint_core.Float_eq "float field vs int literal zero"
    "type stats = { elapsed : float }\nlet bad s = s.elapsed = 0.";
  check_triggers Lint_core.Float_eq "alias-typed constraint"
    "type span = float\nlet bad a b = (a : span) = b";
  check_triggers Lint_core.Float_eq "field of transitive alias type"
    "type span = float\n\
     type width = span\n\
     type s = { dur : width }\n\
     let bad x y = x.dur = y.dur";
  (* tuple-immediate floats (the Pareto.sweep comparator gap): a tuple
     whose component is floatish makes the whole comparison floatish *)
  check_triggers Lint_core.Float_eq "tuple with float literal component"
    "let bad a b = (a, 1.0) = (b, 2.0)";
  check_triggers Lint_core.Float_eq "compare on float-field tuples"
    "type p = { m : float; c : float }\n\
     let bad p q = compare (p.m, p.c) (q.m, q.c)";
  check_triggers Lint_core.Float_eq "nested tuple float"
    "let bad a x y = ((a, 2.5), x) = ((a, 2.5), y)";
  (* floats reached only through structural equality's walk into
     records, variants and containers (the inum slot_reqs bug: a record
     field holding an array of float-carrying variants compared with
     polymorphic [=]) *)
  check_triggers Lint_core.Float_eq "field holding array of float variants"
    "type req = Any | Nlj of float\n\
     type tpl = { reqs : req array }\n\
     let bad a b = a.reqs = b.reqs";
  check_triggers Lint_core.Float_eq "variant-payload record in a list"
    "type pt = { x : int; w : float }\n\
     type shape = Dot of pt | Poly of pt list\n\
     type fig = { outline : shape }\n\
     let bad f g = f.outline = g.outline";
  check_triggers Lint_core.Float_eq "constraint on a float-carrying alias"
    "type row = int * float\n\
     type rows = row list\n\
     let bad a b = (a : rows) = b";
  (* near-misses: non-float operands, tolerance idiom, Fx helpers *)
  check_clean "field holding array of int variants"
    "type req = Any | Nlj of int\n\
     type tpl = { reqs : req array }\n\
     let ok a b = a.reqs = b.reqs";
  check_clean "int-carrying alias constraint"
    "type row = int * string\n\
     type rows = row list\n\
     let ok a b = (a : rows) = b";
  check_clean "int-only tuple comparison"
    "let ok (a : int) b = (a, 0) = (b, 1)";
  check_clean "int field comparison"
    "type c = { n : int }\nlet ok x y = x.n = y.n";
  check_clean "int alias constraint"
    "type count = int\nlet ok a b = (a : count) = b";
  check_clean "int comparison" "let ok (a : int) b = a = b";
  check_clean "tolerance idiom" "let ok a = abs_float (a -. 1.0) <= 1e-9";
  check_clean "Float.equal" "let ok a = Float.equal a 0.0";
  check_clean "Float predicate is not floatish"
    "let ok a b = Float.is_nan a = b";
  check_clean "suppressed"
    "let[@lint.allow float_eq \"sentinel cmp\"] ok x = x = infinity"

(* --- L2 hashtbl_order --- *)

let test_hashtbl_order () =
  check_triggers Lint_core.Hashtbl_order "fold accumulation"
    "let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t []";
  check_triggers Lint_core.Hashtbl_order "iter side effects"
    "let dump t = Hashtbl.iter (fun _ v -> print_int v) t";
  check_clean "point lookups"
    "let ok t k v = Hashtbl.replace t k v; Hashtbl.find_opt t k";
  check_clean "length" "let ok t = Hashtbl.length t";
  check_clean "binding-level suppression"
    "let[@lint.allow hashtbl_order \"sorted later\"] keys t =\n\
    \  Hashtbl.fold (fun k _ acc -> k :: acc) t []";
  check_clean "expression-level suppression"
    "let ok t =\n\
    \  (Hashtbl.iter [@lint.allow hashtbl_order \"no-op body\"]) (fun _ _ -> ()) t"

(* --- L3 global_state --- *)

let test_global_state () =
  check_triggers Lint_core.Global_state "toplevel ref" "let counter = ref 0";
  check_triggers Lint_core.Global_state "toplevel hashtable"
    "let cache = Hashtbl.create 16";
  check_triggers Lint_core.Global_state "toplevel array"
    "let scratch = Array.make 8 0.0";
  check_triggers Lint_core.Global_state "array literal"
    "let lut = [| 1; 2; 3 |]";
  check_triggers Lint_core.Global_state "inside a submodule"
    "module M = struct let r = ref 0 end";
  check_clean "Atomic is sanctioned" "let counter = Atomic.make 0";
  check_clean "Mutex is sanctioned" "let lock = Mutex.create ()";
  check_clean "function-local state is fine"
    "let f () = let acc = ref 0 in incr acc; !acc";
  check_clean "empty array literal is immutable-ish" "let none = [||]";
  check_clean "suppressed"
    "let[@lint.allow global_state \"never written\"] lut = [| 1; 2 |]"

(* --- L4 catch_all --- *)

let test_catch_all () =
  check_triggers Lint_core.Catch_all "wildcard handler"
    "let f g = try g () with _ -> 0";
  check_triggers Lint_core.Catch_all "named catch-all"
    "let f g = try g () with e -> ignore e; 0";
  check_triggers Lint_core.Catch_all "match exception case"
    "let f g = match g () with x -> x | exception _ -> 0";
  check_clean "specific exception"
    "let ok g = try g () with Not_found -> 0";
  check_clean "backtrace-preserving re-raise"
    "let ok g =\n\
    \  try g ()\n\
    \  with e ->\n\
    \    let bt = Printexc.get_raw_backtrace () in\n\
    \    Printexc.raise_with_backtrace e bt";
  check_clean "suppressed"
    "let[@lint.allow catch_all \"any failure means 0\"] ok g =\n\
    \  try g () with _ -> 0"

(* --- L5 nondet_source --- *)

let test_nondet_source () =
  check_triggers Lint_core.Nondet_source "wall clock"
    "let t () = Unix.gettimeofday ()";
  check_triggers Lint_core.Nondet_source "Sys.time" "let t () = Sys.time ()";
  check_triggers Lint_core.Nondet_source "self_init"
    "let r () = Random.self_init ()";
  check_clean "seeded state"
    "let ok seed = Random.State.make [| seed |]";
  check_clean "suppressed"
    "let[@lint.allow nondet_source \"the clock\"] t () = Unix.gettimeofday ()"

(* --- attribute hygiene --- *)

let test_bad_attr () =
  check_triggers Lint_core.Bad_attr "unknown rule name"
    "let[@lint.allow nonsense \"why\"] f x = x";
  (* bad_attr itself is never suppressible *)
  check_triggers Lint_core.Bad_attr "bad_attr not suppressible"
    "let[@lint.allow bad_attr \"why\"] f x = x";
  (* the reason string is mandatory, and a reasonless allow suppresses
     nothing *)
  check_triggers Lint_core.Bad_attr "missing reason"
    "let[@lint.allow float_eq] f x = x = 1.0";
  check_triggers Lint_core.Float_eq "missing reason does not suppress"
    "let[@lint.allow float_eq] f x = x = 1.0";
  (* several rules take several attributes, each applied *)
  check_clean "multi-rule payload"
    "let[@lint.allow float_eq \"sentinel\"] [@lint.allow hashtbl_order \"discarded\"] f t x =\n\
    \  Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> ignore;\n\
    \  x = 1.0"

(* Cross-file type environment: a float alias declared in one file must
   classify comparisons in another, mirroring lint_main's two-pass run. *)
let test_crossfile_tyenv () =
  let env = Lint_core.empty_tyenv () in
  let decls =
    Lint_core.parse_string ~file:"types.ml"
      "type span = float\ntype stats = { elapsed : span }"
  in
  while Lint_core.scan_type_decls env decls do () done;
  let vs =
    Lint_core.lint_string ~tyenv:env ~file:"use.ml"
      "let bad s t = s.elapsed = t.elapsed"
  in
  Alcotest.(check (list string))
    "field typed in a sibling file triggers" [ "float_eq" ]
    (List.map (fun v -> Lint_core.rule_name v.Lint_core.v_rule) vs);
  (* without the shared env the same snippet is (wrongly but by design
     of single-file mode) clean — guards that the env is what fires *)
  check_clean "same snippet without the env"
    "let ok s t = s.elapsed = t.elapsed"

(* Scoping: an allow on one binding must not leak to its siblings. *)
let test_allow_scoping () =
  let src =
    "let[@lint.allow float_eq \"sentinel\"] ok x = x = 1.0\n\
     let bad y = y = 2.0"
  in
  let vs = lint src in
  Alcotest.(check int) "sibling still reported" 1 (List.length vs);
  Alcotest.(check int) "on the right line" 2 (List.hd vs).Lint_core.v_line

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "L1 float_eq" `Quick test_float_eq;
          Alcotest.test_case "L2 hashtbl_order" `Quick test_hashtbl_order;
          Alcotest.test_case "L3 global_state" `Quick test_global_state;
          Alcotest.test_case "L4 catch_all" `Quick test_catch_all;
          Alcotest.test_case "L5 nondet_source" `Quick test_nondet_source;
        ] );
      ( "attributes",
        [
          Alcotest.test_case "bad payloads" `Quick test_bad_attr;
          Alcotest.test_case "cross-file tyenv" `Quick test_crossfile_tyenv;
          Alcotest.test_case "scoping" `Quick test_allow_scoping;
        ] );
    ]
