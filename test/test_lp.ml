(* Tests for the LP/BIP solver: textbook instances, randomized optimality
   certificates for the simplex, and brute-force agreement for branch and
   bound. *)

let solve_lp p = Lp.Simplex.solve p

let status_str = function
  | Lp.Simplex.Optimal -> "optimal"
  | Lp.Simplex.Infeasible -> "infeasible"
  | Lp.Simplex.Unbounded -> "unbounded"
  | Lp.Simplex.Iter_limit -> "iter_limit"

let check_status msg expected r =
  Alcotest.(check string) msg (status_str expected) (status_str r.Lp.Simplex.status)

let check_float ?(eps = 1e-6) msg expected actual =
  if abs_float (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected actual

(* [f ()] under tracing from zeroed counters: its result and a reader
   for the trace counters it ticked. *)
let traced f =
  Runtime.Trace.reset ();
  Runtime.Trace.enable ();
  let r = Fun.protect ~finally:Runtime.Trace.disable f in
  let counters = Runtime.Trace.counters () in
  (r, fun name -> Option.value ~default:0 (List.assoc_opt name counters))

(* --- Problem builder --- *)

let test_problem_builder () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var ~obj:1.0 ~name:"x" p in
  let y = Lp.Problem.add_var ~kind:Lp.Problem.Binary ~obj:2.0 p in
  Alcotest.(check int) "ids" 1 y;
  ignore (Lp.Problem.add_row p [ (x, 1.0); (y, 2.0); (x, 1.0) ] Lp.Problem.Le 4.0);
  (* duplicate coefficients merge *)
  let row = Lp.Problem.row p 0 in
  Alcotest.(check int) "merged coeffs" 2 (Array.length row.Lp.Problem.coeffs);
  let vx, cx = row.Lp.Problem.coeffs.(0) in
  Alcotest.(check int) "var" x vx;
  check_float "merged coefficient" 2.0 cx;
  Alcotest.(check int) "integer vars" 1 (List.length (Lp.Problem.integer_vars p));
  Alcotest.check_raises "bad var"
    (Invalid_argument "Problem.add_row: bad variable") (fun () ->
      ignore (Lp.Problem.add_row p [ (99, 1.0) ] Lp.Problem.Le 0.0))

let test_problem_feasibility_eval () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var ~ub:5.0 ~obj:3.0 p in
  ignore (Lp.Problem.add_row p [ (x, 2.0) ] Lp.Problem.Ge 4.0);
  Alcotest.(check bool) "feasible" true (Lp.Problem.feasible p [| 3.0 |]);
  Alcotest.(check bool) "violates row" false (Lp.Problem.feasible p [| 1.0 |]);
  Alcotest.(check bool) "violates bound" false (Lp.Problem.feasible p [| 6.0 |]);
  check_float "objective" 9.0 (Lp.Problem.objective_value p [| 3.0 |])

(* --- Simplex on knowns --- *)

let test_simplex_dantzig () =
  (* max 3x+5y st x<=4, 2y<=12, 3x+2y<=18 -> (2,6), 36 *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var ~obj:(-3.0) p in
  let y = Lp.Problem.add_var ~obj:(-5.0) p in
  ignore (Lp.Problem.add_row p [ (x, 1.0) ] Lp.Problem.Le 4.0);
  ignore (Lp.Problem.add_row p [ (y, 2.0) ] Lp.Problem.Le 12.0);
  ignore (Lp.Problem.add_row p [ (x, 3.0); (y, 2.0) ] Lp.Problem.Le 18.0);
  let r = solve_lp p in
  check_status "status" Lp.Simplex.Optimal r;
  check_float "obj" (-36.0) r.Lp.Simplex.obj;
  check_float "x" 2.0 r.Lp.Simplex.x.(0);
  check_float "y" 6.0 r.Lp.Simplex.x.(1)

let test_simplex_equality_and_bounds () =
  (* min 2a + b st a+b = 10, a>=3, b<=4 -> a=6 b=4 obj=16 *)
  let p = Lp.Problem.create () in
  let a = Lp.Problem.add_var ~obj:2.0 ~lb:3.0 p in
  let _b = Lp.Problem.add_var ~obj:1.0 ~ub:4.0 p in
  ignore (Lp.Problem.add_row p [ (a, 1.0); (_b, 1.0) ] Lp.Problem.Eq 10.0);
  let r = solve_lp p in
  check_status "status" Lp.Simplex.Optimal r;
  check_float "obj" 16.0 r.Lp.Simplex.obj

let test_simplex_infeasible () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p in
  ignore (Lp.Problem.add_row p [ (x, 1.0) ] Lp.Problem.Le 1.0);
  ignore (Lp.Problem.add_row p [ (x, 1.0) ] Lp.Problem.Ge 2.0);
  check_status "status" Lp.Simplex.Infeasible (solve_lp p)

let test_simplex_unbounded () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var ~obj:(-1.0) p in
  ignore (Lp.Problem.add_row p [ (x, 1.0) ] Lp.Problem.Ge 0.0);
  check_status "status" Lp.Simplex.Unbounded (solve_lp p)

let test_simplex_degenerate () =
  (* a degenerate LP that can cycle without anti-cycling care *)
  let p = Lp.Problem.create () in
  let x1 = Lp.Problem.add_var ~obj:(-0.75) p in
  let x2 = Lp.Problem.add_var ~obj:150.0 p in
  let x3 = Lp.Problem.add_var ~obj:(-0.02) p in
  let x4 = Lp.Problem.add_var ~obj:6.0 p in
  ignore
    (Lp.Problem.add_row p
       [ (x1, 0.25); (x2, -60.0); (x3, -0.04); (x4, 9.0) ]
       Lp.Problem.Le 0.0);
  ignore
    (Lp.Problem.add_row p
       [ (x1, 0.5); (x2, -90.0); (x3, -0.02); (x4, 3.0) ]
       Lp.Problem.Le 0.0);
  ignore (Lp.Problem.add_row p [ (x3, 1.0) ] Lp.Problem.Le 1.0);
  let r = solve_lp p in
  check_status "beale cycles resolved" Lp.Simplex.Optimal r;
  check_float ~eps:1e-4 "beale optimum" (-0.05) r.Lp.Simplex.obj

let test_simplex_free_variable () =
  (* min x with x free and x >= -7 via row *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var ~lb:neg_infinity ~obj:1.0 p in
  ignore (Lp.Problem.add_row p [ (x, 1.0) ] Lp.Problem.Ge (-7.0));
  let r = solve_lp p in
  check_status "status" Lp.Simplex.Optimal r;
  check_float "obj" (-7.0) r.Lp.Simplex.obj

(* --- Randomized optimality certificates --- *)

(* Generate a random feasible bounded LP: random A, x0 in box, b chosen so
   x0 is feasible; objective random.  Rows are <= rows, or with [~mixed]
   a random mix of <=, >= and = rows.  Check the simplex result is
   feasible and no worse than a large random sample of feasible points. *)
let random_lp_gen =
  QCheck.Gen.(
    let* n = int_range 2 6 in
    let* m = int_range 1 5 in
    let* seed = int_range 0 1_000_000 in
    return (n, m, seed))

let build_random_lp ?(mixed = false) (n, m, seed) =
  let rng = Random.State.make [| seed |] in
  let p = Lp.Problem.create () in
  let vars =
    Array.init n (fun _ ->
        Lp.Problem.add_var
          ~obj:(Random.State.float rng 4.0 -. 2.0)
          ~ub:(1.0 +. Random.State.float rng 9.0)
          p)
  in
  let x0 =
    Array.map (fun v -> Random.State.float rng (Lp.Problem.var p v).Lp.Problem.ub)
      vars
  in
  for _ = 1 to m do
    let coeffs =
      Array.to_list
        (Array.map (fun v -> (v, Random.State.float rng 4.0 -. 2.0)) vars)
      |> List.filteri (fun i _ -> i < n)
    in
    let lhs =
      List.fold_left (fun acc (v, c) -> acc +. (c *. x0.(v))) 0.0 coeffs
    in
    (* make x0 feasible, with slack on the inequality rows *)
    let slack = Random.State.float rng 2.0 in
    let sense, rhs =
      match if mixed then Random.State.int rng 3 else 0 with
      | 0 -> (Lp.Problem.Le, lhs +. slack)
      | 1 -> (Lp.Problem.Ge, lhs -. slack)
      | _ -> (Lp.Problem.Eq, lhs)
    in
    ignore (Lp.Problem.add_row p coeffs sense rhs)
  done;
  (p, vars, rng)

let prop_simplex_beats_samples =
  QCheck.Test.make ~name:"simplex no worse than sampled feasible points"
    ~count:60 (QCheck.make random_lp_gen) (fun spec ->
      let p, vars, rng = build_random_lp spec in
      let r = solve_lp p in
      match r.Lp.Simplex.status with
      | Lp.Simplex.Optimal ->
          Lp.Problem.feasible ~tol:1e-5 p r.Lp.Simplex.x
          &&
          (* sample feasible points by shrinking random box points *)
          let ok = ref true in
          for _ = 1 to 200 do
            let x =
              Array.map
                (fun v -> Random.State.float rng (Lp.Problem.var p v).Lp.Problem.ub)
                vars
            in
            if Lp.Problem.feasible p x then begin
              let o = Lp.Problem.objective_value p x in
              if o < r.Lp.Simplex.obj -. 1e-5 then ok := false
            end
          done;
          !ok
      | _ -> QCheck.assume_fail ())

(* --- Branch and bound --- *)

let test_bb_knapsack () =
  let p = Lp.Problem.create () in
  let a = Lp.Problem.add_var ~kind:Lp.Problem.Binary ~obj:(-10.0) p in
  let b = Lp.Problem.add_var ~kind:Lp.Problem.Binary ~obj:(-13.0) p in
  let c = Lp.Problem.add_var ~kind:Lp.Problem.Binary ~obj:(-7.0) p in
  ignore
    (Lp.Problem.add_row p [ (a, 3.0); (b, 4.0); (c, 2.0) ] Lp.Problem.Le 6.0);
  let r = Lp.Branch_bound.solve p in
  check_float "knapsack optimum" (-20.0) r.Lp.Branch_bound.obj;
  Alcotest.(check bool) "bound <= obj" true
    (r.Lp.Branch_bound.bound <= r.Lp.Branch_bound.obj +. 1e-6)

let test_bb_infeasible_integrality () =
  (* 2x = 1 has an LP solution but no integer one *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var ~kind:Lp.Problem.Integer ~ub:10.0 ~obj:1.0 p in
  ignore (Lp.Problem.add_row p [ (x, 2.0) ] Lp.Problem.Eq 1.0);
  let r = Lp.Branch_bound.solve p in
  Alcotest.(check bool) "no solution" true (r.Lp.Branch_bound.x = None)

(* A 12-item knapsack whose search a 25% gap tolerance stops early. *)
let gap_instance () =
  let p = Lp.Problem.create () in
  let vars =
    Array.init 12 (fun i ->
        Lp.Problem.add_var ~kind:Lp.Problem.Binary
          ~obj:(-.float_of_int (10 + (i mod 5)))
          p)
  in
  ignore
    (Lp.Problem.add_row p
       (Array.to_list (Array.mapi (fun i v -> (v, float_of_int (3 + (i mod 4)))) vars))
       Lp.Problem.Le 20.0);
  p

let test_bb_gap_termination () =
  let p = gap_instance () in
  let options =
    { Lp.Branch_bound.default_options with Lp.Branch_bound.gap_tolerance = 0.25 }
  in
  let r = Lp.Branch_bound.solve ~options p in
  match r.Lp.Branch_bound.x with
  | Some _ ->
      let gap =
        (r.Lp.Branch_bound.obj -. r.Lp.Branch_bound.bound)
        /. abs_float r.Lp.Branch_bound.obj
      in
      Alcotest.(check bool) "gap within tolerance" true (gap <= 0.25 +. 1e-6)
  | None -> Alcotest.fail "expected a solution"

(* Brute force agreement on random small BIPs. *)
let random_bip_gen =
  QCheck.Gen.(
    let* n = int_range 2 8 in
    let* m = int_range 1 4 in
    let* seed = int_range 0 1_000_000 in
    return (n, m, seed))

let build_random_bip (n, m, seed) =
  let rng = Random.State.make [| seed; 77 |] in
  let p = Lp.Problem.create () in
  let vars =
    Array.init n (fun _ ->
        Lp.Problem.add_var ~kind:Lp.Problem.Binary
          ~obj:(Random.State.float rng 10.0 -. 5.0)
          p)
  in
  for _ = 1 to m do
    let coeffs =
      Array.to_list (Array.map (fun v -> (v, Random.State.float rng 6.0 -. 1.0)) vars)
    in
    (* rhs >= 0 keeps the zero vector feasible *)
    ignore
      (Lp.Problem.add_row p coeffs Lp.Problem.Le (Random.State.float rng 8.0))
  done;
  (p, vars)

let brute_force p n =
  let best = ref infinity in
  for mask = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun i -> if mask land (1 lsl i) <> 0 then 1.0 else 0.0) in
    if Lp.Problem.feasible p x then begin
      let o = Lp.Problem.objective_value p x in
      if o < !best then best := o
    end
  done;
  !best

(* Branch and bound on one random BIP agrees with brute force, and its
   proven bound never exceeds its incumbent. *)
let bb_matches_brute_force spec =
  let n, _, _ = spec in
  let p, _ = build_random_bip spec in
  let expected = brute_force p n in
  let r = Lp.Branch_bound.solve p in
  match r.Lp.Branch_bound.x with
  | Some _ ->
      abs_float (r.Lp.Branch_bound.obj -. expected) < 1e-5
      && r.Lp.Branch_bound.bound <= r.Lp.Branch_bound.obj +. 1e-9
  | None -> expected = infinity

let prop_bb_matches_brute_force =
  QCheck.Test.make ~name:"branch&bound equals brute force" ~count:60
    (QCheck.make random_bip_gen) bb_matches_brute_force

(* An instance the property once failed on: the first merge of a round
   raised the bound to a pruned node's LP bound, above the incumbent
   (-0.79 against -1.51), and the gap test stopped on a negative gap. *)
let test_bb_bound_regression () =
  Alcotest.(check bool) "bound <= obj = brute force" true
    (bb_matches_brute_force (4, 3, 44))

(* --- MIP engine invariants: the parallel search --- *)

(* Knapsack-shaped BIPs (Le rows with positive coefficients and a rhs
   between 30% and 80% of the row total) leave room for fractional
   roots, so nodes actually branch. *)
let random_knapsack_bip_gen =
  QCheck.Gen.(int_range 0 1_000_000 >|= fun seed -> seed)

let build_random_knapsack_bip seed =
  let rng = Random.State.make [| seed; 3001 |] in
  let n = 4 + Random.State.int rng 10 in
  let m = 2 + Random.State.int rng 6 in
  let p = Lp.Problem.create () in
  let vars =
    Array.init n (fun _ ->
        Lp.Problem.add_var ~kind:Lp.Problem.Binary
          ~obj:(Random.State.float rng 20.0 -. 10.0)
          p)
  in
  for _ = 1 to m do
    let coeffs =
      Array.to_list vars
      |> List.filter_map (fun v ->
             if Random.State.float rng 1.0 < 0.7 then
               Some (v, Random.State.float rng 5.0 +. 0.1)
             else None)
    in
    if List.length coeffs >= 2 then begin
      let tot = List.fold_left (fun a (_, c) -> a +. c) 0.0 coeffs in
      ignore
        (Lp.Problem.add_row p coeffs Lp.Problem.Le
           (tot *. (0.3 +. Random.State.float rng 0.5)))
    end
  done;
  p

(* The engine's determinism invariant on one random instance: the
   parallel driver explores the same tree at jobs 1 and 4, so the
   certified objective (bit for bit), the status and the node count all
   agree. *)
let bb_jobs_agree seed =
  let p = build_random_knapsack_bip seed in
  let solve jobs =
    let options =
      {
        Lp.Branch_bound.default_options with
        Lp.Branch_bound.gap_tolerance = 1e-9;
        certify_incumbents = true;
        jobs;
      }
    in
    Lp.Branch_bound.solve ~options p
  in
  let a = solve 1 in
  let b = solve 4 in
  Int64.equal
    (Int64.bits_of_float a.Lp.Branch_bound.obj)
    (Int64.bits_of_float b.Lp.Branch_bound.obj)
  && a.Lp.Branch_bound.status = b.Lp.Branch_bound.status
  && a.Lp.Branch_bound.nodes = b.Lp.Branch_bound.nodes

let prop_bb_jobs_agree =
  QCheck.Test.make
    ~name:"jobs 1/4 agree on random BIPs"
    ~count:60
    (QCheck.make random_knapsack_bip_gen)
    bb_jobs_agree

(* Instance seeds the property once drew and failed on: 1087 and 98158
   labelled a gap-stopped search [Feasible] but an exhausted pool
   [Optimal] at the same objective; 448740 let jobs 4 see the cover-cut
   rows an earlier jobs-1 solve had added to the shared problem, back
   when the engine installed root cuts. *)
let test_bb_agree_regression seed () =
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: jobs 1/4 agree" seed)
    true
    (bb_jobs_agree seed)

(* The MIP engine on one fixed knapsack BIP: it branches, proves the
   optimum, and the bulk-synchronous search explores the same tree at
   jobs 1 and 4. *)
let test_bb_jobs_identity () =
  let p = build_random_knapsack_bip 68 in
  let solve jobs =
    let options =
      {
        Lp.Branch_bound.default_options with
        Lp.Branch_bound.certify_incumbents = true;
        jobs;
      }
    in
    Lp.Branch_bound.solve ~options p
  in
  let r1 = solve 1 in
  let r4 = solve 4 in
  Alcotest.(check bool) "optimal" true (r1.Lp.Branch_bound.status = Lp.Branch_bound.Optimal);
  Alcotest.(check bool) "nodes explored" true (r1.Lp.Branch_bound.nodes > 0);
  Alcotest.(check int) "jobs 1/4 nodes" r1.Lp.Branch_bound.nodes
    r4.Lp.Branch_bound.nodes;
  Alcotest.(check bool) "jobs 1/4 objective bit-identical" true
    (Int64.equal
       (Int64.bits_of_float r1.Lp.Branch_bound.obj)
       (Int64.bits_of_float r4.Lp.Branch_bound.obj))

(* The search trajectory pinned at jobs 1 and 4: status, objective and
   bound as hex floats, and the node count, on the four random knapsack
   BIPs above, the knapsack fixture, and a gap-stopped instance.  The
   jobs 1/4 tests only compare the two job counts with each other; this
   pin fails when a change to the engine moves both together. *)
let bb_pin_status = function
  | Lp.Branch_bound.Optimal -> "optimal"
  | Lp.Branch_bound.Infeasible -> "infeasible"
  | Lp.Branch_bound.Unbounded -> "unbounded"
  | Lp.Branch_bound.Limit -> "limit"

let bb_pin ?(gap_tolerance = Lp.Branch_bound.default_options.gap_tolerance)
    p jobs =
  let options =
    { Lp.Branch_bound.default_options with Lp.Branch_bound.gap_tolerance; jobs }
  in
  let r = Lp.Branch_bound.solve ~options p in
  Printf.sprintf "%s obj=%h bound=%h nodes=%d"
    (bb_pin_status r.Lp.Branch_bound.status)
    r.Lp.Branch_bound.obj r.Lp.Branch_bound.bound r.Lp.Branch_bound.nodes

let test_bb_trajectory_pin () =
  let seed n = build_random_knapsack_bip n in
  List.iter
    (fun (name, gap_tolerance, p, expected) ->
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "%s at jobs %d" name jobs)
            expected
            (bb_pin ?gap_tolerance p jobs))
        [ 1; 4 ])
    [
      ( "seed 68", None, seed 68,
        "optimal obj=-0x1.2e28102b9d977p+5 bound=-0x1.2e28102b9d977p+5 nodes=32" );
      ( "seed 1087", None, seed 1087,
        "optimal obj=-0x1.528aa050bec26p+4 bound=-0x1.528aa050bec26p+4 nodes=38" );
      ( "seed 98158", None, seed 98158,
        "optimal obj=-0x1.07d358579e05ap+2 bound=-0x1.07d358579e05ap+2 nodes=12" );
      ( "seed 448740", None, seed 448740,
        "optimal obj=-0x1.7b84f3951e194p+4 bound=-0x1.7b84f3951e194p+4 nodes=28" );
      ( "knapsack.lp", None,
        fst (Lp.Lp_format.of_file "fixtures/knapsack.lp"),
        "optimal obj=-0x1.ep+3 bound=-0x1.ep+3 nodes=8" );
      ( "gap 0.25", Some 0.25, gap_instance (),
        "optimal obj=-0x1p+6 bound=-0x1.12aaaaaaaaaabp+6 nodes=14" );
    ]

(* --- LP file format --- *)

let is_maximize = function
  | Lp.Lp_format.Maximize -> true
  | Lp.Lp_format.Minimize -> false

let test_lp_format_roundtrip () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var ~obj:2.0 ~ub:4.0 ~name:"x" p in
  let y = Lp.Problem.add_var ~kind:Lp.Problem.Binary ~obj:(-3.0) ~name:"y" p in
  let z = Lp.Problem.add_var ~lb:neg_infinity ~obj:1.0 ~name:"z" p in
  ignore (Lp.Problem.add_row ~name:"c1" p [ (x, 1.0); (y, 2.0) ] Lp.Problem.Le 5.0);
  ignore (Lp.Problem.add_row ~name:"c2" p [ (z, 1.0); (x, -1.0) ] Lp.Problem.Ge (-2.0));
  let text = Lp.Lp_format.to_string p in
  let p', _ = Lp.Lp_format.of_string text in
  Alcotest.(check int) "vars" 3 (Lp.Problem.nvars p');
  Alcotest.(check int) "rows" 2 (Lp.Problem.nrows p');
  (* both versions optimize to the same value *)
  let r = Lp.Branch_bound.solve p in
  let r' = Lp.Branch_bound.solve p' in
  check_float ~eps:1e-6 "same optimum" r.Lp.Branch_bound.obj r'.Lp.Branch_bound.obj

let test_lp_format_parse_handwritten () =
  let text =
    {|\ a comment
Minimize
 obj: 3 a - 2 b
Subject To
 r1: a + b <= 10
 r2: a - b >= -4
Bounds
 a <= 8
 b <= 7
End|}
  in
  let p, direction = Lp.Lp_format.of_string text in
  Alcotest.(check bool) "minimizes" true (not (is_maximize direction));
  Alcotest.(check int) "vars" 2 (Lp.Problem.nvars p);
  let r = Lp.Simplex.solve p in
  check_status "solves" Lp.Simplex.Optimal r;
  (* min 3a - 2b: a = 0, b = 4 from r2?  r2: a - b >= -4 -> b <= a + 4 = 4 *)
  check_float ~eps:1e-6 "optimum" (-8.0) r.Lp.Simplex.obj

(* The two Maximize fixtures lp_solve runs in CI parse to their
   minimization form with the sense they declare, and each optimum read
   in that sense is the model's maximum: 36 at x = 2, y = 6 for
   Dantzig's LP, 15 taking b and d for the knapsack. *)
let test_lp_format_maximize_fixtures () =
  let dantzig, direction = Lp.Lp_format.of_file "fixtures/dantzig.lp" in
  Alcotest.(check bool) "dantzig maximizes" true (is_maximize direction);
  let r = Lp.Simplex.solve dantzig in
  check_status "dantzig solves" Lp.Simplex.Optimal r;
  check_float "dantzig minimization form" (-36.0) r.Lp.Simplex.obj;
  check_float "dantzig maximum" 36.0
    (Lp.Lp_format.directed direction r.Lp.Simplex.obj);
  let knapsack, direction = Lp.Lp_format.of_file "fixtures/knapsack.lp" in
  Alcotest.(check bool) "knapsack maximizes" true (is_maximize direction);
  let r = Lp.Branch_bound.solve knapsack in
  Alcotest.(check bool) "knapsack optimal" true
    (r.Lp.Branch_bound.status = Lp.Branch_bound.Optimal);
  check_float "knapsack maximum" 15.0
    (Lp.Lp_format.directed direction r.Lp.Branch_bound.obj)

let test_lp_format_errors () =
  (match Lp.Lp_format.of_string "Garbage" with
  | exception Lp.Lp_format.Format_error _ -> ()
  | _ -> Alcotest.fail "expected format error");
  match Lp.Lp_format.of_string "Minimize obj: x Subject" with
  | exception Lp.Lp_format.Format_error _ -> ()
  | _ -> Alcotest.fail "expected format error"

(* Random-problem round trip: of_string (to_string p) must preserve
   every variable (kind, bounds, objective) and row (sense, rhs,
   coefficients).  The parser may renumber variables when Binary/General
   sections are present, so everything is compared by name.  The writer
   prints shortest-round-trip representations, so arbitrary finite
   floats — not just quarter-integers — must survive the file format
   bit-for-bit (Fx.exactly, not an epsilon). *)

let quantized rng = float_of_int (Random.State.int rng 33 - 16) /. 4.0

let full_float rng =
  match Random.State.int rng 4 with
  | 0 -> quantized rng
  | 1 -> Random.State.float rng 2.0 -. 1.0
  | 2 -> (Random.State.float rng 2.0 -. 1.0) *. 1e9
  | _ -> (Random.State.float rng 2.0 -. 1.0) *. 1e-9

let nonzero_full rng =
  let v = full_float rng in
  if v = 0.0 then 1.25 else v

let build_random_lp_file_problem seed =
  let rng = Random.State.make [| seed; 991 |] in
  let p = Lp.Problem.create () in
  let n = 1 + Random.State.int rng 7 in
  let vars =
    Array.init n (fun i ->
        let name = Printf.sprintf "v%d" i in
        (* the writer drops zero-coefficient objective terms, which
           would make the variable invisible to the parser *)
        let obj = nonzero_full rng in
        match Random.State.int rng 4 with
        | 0 -> Lp.Problem.add_var ~kind:Lp.Problem.Binary ~obj ~name p
        | 1 -> Lp.Problem.add_var ~kind:Lp.Problem.Integer ~obj ~name p
        | _ -> (
            (* continuous, restricted to the bound shapes the writer
               emits losslessly *)
            match Random.State.int rng 4 with
            | 0 -> Lp.Problem.add_var ~obj ~name p
            | 1 ->
                Lp.Problem.add_var ~lb:neg_infinity ~ub:infinity ~obj ~name p
            | 2 -> Lp.Problem.add_var ~lb:(full_float rng) ~obj ~name p
            | _ ->
                let lb = full_float rng in
                let ub = lb +. abs_float (full_float rng) in
                Lp.Problem.add_var ~lb ~ub ~obj ~name p))
  in
  let m = Random.State.int rng 5 in
  for r = 0 to m - 1 do
    let members =
      Array.to_list vars |> List.filter (fun _ -> Random.State.bool rng)
    in
    let members = if members = [] then [ vars.(0) ] else members in
    let coeffs = List.map (fun v -> (v, nonzero_full rng)) members in
    let sense =
      match Random.State.int rng 3 with
      | 0 -> Lp.Problem.Le
      | 1 -> Lp.Problem.Ge
      | _ -> Lp.Problem.Eq
    in
    ignore
      (Lp.Problem.add_row ~name:(Printf.sprintf "c%d" r) p coeffs sense
         (full_float rng))
  done;
  p

let lp_vars_by_name p =
  List.init (Lp.Problem.nvars p) (fun i ->
      let v = Lp.Problem.var p i in
      ( v.Lp.Problem.vname,
        (v.Lp.Problem.kind, v.Lp.Problem.lb, v.Lp.Problem.ub, v.Lp.Problem.obj)
      ))
  |> List.sort compare

let lp_rows_by_name p =
  Array.to_list (Lp.Problem.rows p)
  |> List.map (fun (r : Lp.Problem.row) ->
         ( r.Lp.Problem.rname,
           ( r.Lp.Problem.sense,
             r.Lp.Problem.rhs,
             Array.to_list r.Lp.Problem.coeffs
             |> List.map (fun (vi, c) -> ((Lp.Problem.var p vi).Lp.Problem.vname, c))
             |> List.sort compare ) ))
  |> List.sort compare

(* Exact (bitwise, NaN-honest) structural comparison of the by-name
   listings: infinities must round trip as infinities and every finite
   value to the identical bit pattern. *)
let var_entry_exact (n1, (k1, lb1, ub1, o1)) (n2, (k2, lb2, ub2, o2)) =
  String.equal n1 n2 && k1 = k2
  && Runtime.Fx.exactly lb1 lb2
  && Runtime.Fx.exactly ub1 ub2
  && Runtime.Fx.exactly o1 o2

let row_entry_exact (n1, (s1, rhs1, cs1)) (n2, (s2, rhs2, cs2)) =
  String.equal n1 n2 && s1 = s2
  && Runtime.Fx.exactly rhs1 rhs2
  && List.length cs1 = List.length cs2
  && List.for_all2
       (fun (v1, c1) (v2, c2) -> String.equal v1 v2 && Runtime.Fx.exactly c1 c2)
       cs1 cs2

let prop_lp_format_roundtrip_random =
  QCheck.Test.make ~name:"roundtrip on random problems" ~count:200
    (QCheck.make QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let p = build_random_lp_file_problem seed in
      let p', _ = Lp.Lp_format.of_string (Lp.Lp_format.to_string p) in
      let vs = lp_vars_by_name p and vs' = lp_vars_by_name p' in
      let rs = lp_rows_by_name p and rs' = lp_rows_by_name p' in
      List.length vs = List.length vs'
      && List.length rs = List.length rs'
      && List.for_all2 var_entry_exact vs vs'
      && List.for_all2 row_entry_exact rs rs')

(* --- Sparse LU factorization --- *)

(* Random nonsingular sparse column set: strong diagonal plus a few
   off-diagonal entries.  [cols] uses the Lu.factor convention (column ->
   sorted (row, coeff) entries); the basis is a permutation so column
   order and row order differ. *)
let build_random_lu m seed =
  let rng = Random.State.make [| seed; 4242 |] in
  let cols =
    Array.init m (fun j ->
        let entries = Hashtbl.create 4 in
        Hashtbl.replace entries j (2.0 +. Random.State.float rng 8.0);
        for _ = 1 to 1 + Random.State.int rng 3 do
          let i = Random.State.int rng m in
          if i <> j then
            Hashtbl.replace entries i (Random.State.float rng 2.0 -. 1.0)
        done;
        Hashtbl.fold (fun i v acc -> (i, v) :: acc) entries []
        |> List.sort compare |> Array.of_list)
  in
  let basis = Array.init m (fun i -> i) in
  (* deterministic shuffle *)
  for i = m - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = basis.(i) in
    basis.(i) <- basis.(j);
    basis.(j) <- t
  done;
  (cols, basis)

let col_entries cols j = cols.(j)

let test_lu_solve () =
  for seed = 0 to 9 do
    let m = 5 + (seed * 3) in
    let cols, basis = build_random_lu m seed in
    let lu = Lp.Lu.factor ~m ~cols ~basis in
    Alcotest.(check bool) "nnz positive" true (Lp.Lu.nnz lu > 0);
    let rng = Random.State.make [| seed; 5151 |] in
    let b = Array.init m (fun _ -> Random.State.float rng 10.0 -. 5.0) in
    (* solve: B u = b with B's column at position k being cols.(basis.(k)) *)
    let u = Array.copy b in
    Lp.Lu.solve lu u;
    let recon = Array.make m 0.0 in
    Array.iteri
      (fun k cj ->
        Array.iter
          (fun (i, v) -> recon.(i) <- recon.(i) +. (v *. u.(k)))
          (col_entries cols cj))
      basis;
    Array.iteri
      (fun i bi ->
        check_float ~eps:1e-7 (Printf.sprintf "seed %d solve row %d" seed i) bi
          recon.(i))
      b
  done

let test_lu_solve_transpose () =
  for seed = 0 to 9 do
    let m = 5 + (seed * 3) in
    let cols, basis = build_random_lu m seed in
    let lu = Lp.Lu.factor ~m ~cols ~basis in
    let rng = Random.State.make [| seed; 6161 |] in
    let c = Array.init m (fun _ -> Random.State.float rng 10.0 -. 5.0) in
    (* solve_transpose: B' y = c, i.e. column basis.(k) . y = c.(k) *)
    let y = Array.copy c in
    Lp.Lu.solve_transpose lu y;
    Array.iteri
      (fun k cj ->
        let dot =
          Array.fold_left
            (fun acc (i, v) -> acc +. (v *. y.(i)))
            0.0 (col_entries cols cj)
        in
        check_float ~eps:1e-7
          (Printf.sprintf "seed %d btran position %d" seed k)
          c.(k) dot)
      basis
  done

let test_lu_singular () =
  (* two identical columns in the basis *)
  let cols = [| [| (0, 1.0); (1, 1.0) |]; [| (0, 1.0); (1, 1.0) |] |] in
  match Lp.Lu.factor ~m:2 ~cols ~basis:[| 0; 1 |] with
  | exception Lp.Lu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular"

(* --- Degenerate instances, the iteration limit, and the optimality
   certificate as the kernel's reference --- *)

(* The kernel's optimum with its own duals passes the full LP optimality
   conditions of [Analyze.certify ~duals]. *)
let certified_optimum p (r : Lp.Simplex.result) =
  r.Lp.Simplex.status = Lp.Simplex.Optimal
  &&
  let cert =
    Lp.Analyze.certify ~duals:r.Lp.Simplex.duals
      ~obj:(r.Lp.Simplex.obj +. Lp.Problem.obj_offset p)
      p r.Lp.Simplex.x
  in
  cert.Lp.Analyze.cert_ok

let test_sparse_degenerate_beale () =
  (* Bland's-rule stalling regression: Beale's cycling instance must
     terminate at the optimum, and the degenerate vertex it ends on must
     carry duals that prove it optimal. *)
  let p = Lp.Problem.create () in
  let x1 = Lp.Problem.add_var ~obj:(-0.75) p in
  let x2 = Lp.Problem.add_var ~obj:150.0 p in
  let x3 = Lp.Problem.add_var ~obj:(-0.02) p in
  let x4 = Lp.Problem.add_var ~obj:6.0 p in
  ignore
    (Lp.Problem.add_row p
       [ (x1, 0.25); (x2, -60.0); (x3, -0.04); (x4, 9.0) ]
       Lp.Problem.Le 0.0);
  ignore
    (Lp.Problem.add_row p
       [ (x1, 0.5); (x2, -90.0); (x3, -0.02); (x4, 3.0) ]
       Lp.Problem.Le 0.0);
  ignore (Lp.Problem.add_row p [ (x3, 1.0) ] Lp.Problem.Le 1.0);
  let r = solve_lp p in
  check_status "beale optimal" Lp.Simplex.Optimal r;
  check_float ~eps:1e-4 "beale optimum" (-0.05) r.Lp.Simplex.obj;
  Alcotest.(check bool) "beale duals certify" true (certified_optimum p r)

let test_sparse_degenerate_assignment () =
  (* n x n assignment LP: every basic solution is massively degenerate,
     exercising the stall counter and eta refactorization path. *)
  let n = 7 in
  let rng = Random.State.make [| 321 |] in
  let p = Lp.Problem.create () in
  let v = Array.init n (fun _ -> Array.make n 0) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      v.(i).(j) <-
        Lp.Problem.add_var ~ub:1.0 ~obj:(Random.State.float rng 10.0) p
    done
  done;
  for i = 0 to n - 1 do
    ignore
      (Lp.Problem.add_row p
         (List.init n (fun j -> (v.(i).(j), 1.0)))
         Lp.Problem.Eq 1.0)
  done;
  for j = 0 to n - 1 do
    ignore
      (Lp.Problem.add_row p
         (List.init n (fun i -> (v.(i).(j), 1.0)))
         Lp.Problem.Eq 1.0)
  done;
  let r, count = traced (fun () -> solve_lp p) in
  check_status "assignment optimal" Lp.Simplex.Optimal r;
  Alcotest.(check bool) "assignment duals certify" true (certified_optimum p r);
  Alcotest.(check bool) "pivots counted" true (count "simplex.pivots" > 0)

(* Random LPs with <=, >= and = rows, each feasible (x0 satisfies every
   row) and bounded (a finite box): the simplex must reach [Optimal], and
   its optimum with its own duals must pass the LP optimality
   conditions. *)
let prop_simplex_certified_random_lp =
  QCheck.Test.make
    ~name:"simplex optimum passes certify ~duals on random LPs" ~count:80
    (QCheck.make random_lp_gen) (fun spec ->
      let p, _, _ = build_random_lp ~mixed:true spec in
      certified_optimum p (solve_lp p))

let test_simplex_iter_limit () =
  (* An iteration-limited solve returns the kernel's last iterate in the
     original variables, with the objective recomputed from it — not a
     fabricated all-zeros point with obj = 0, which branch and bound
     would mistake for an integral incumbent. *)
  let p = Lp.Problem.create () in
  let x0 = Lp.Problem.add_var ~ub:5.0 ~obj:(-1.0) p in
  let x1 = Lp.Problem.add_var ~ub:10.0 ~obj:(-1.0) p in
  let x2 = Lp.Problem.add_var ~ub:10.0 ~obj:(-1.0) p in
  let x3 = Lp.Problem.add_var ~ub:10.0 ~obj:(-1.0) p in
  ignore (Lp.Problem.add_row p [ (x0, 2.0) ] Lp.Problem.Eq 2.0);
  ignore (Lp.Problem.add_row p [ (x1, 1.0); (x2, 1.0) ] Lp.Problem.Le 8.0);
  ignore (Lp.Problem.add_row p [ (x2, 1.0); (x3, 1.0) ] Lp.Problem.Le 8.0);
  ignore (Lp.Problem.add_row p [ (x1, 1.0); (x3, 1.0) ] Lp.Problem.Le 8.0);
  let r = Lp.Simplex.solve ~max_iters:1 p in
  check_status "hits the iteration limit" Lp.Simplex.Iter_limit r;
  Alcotest.(check int) "one value per variable" 4 (Array.length r.Lp.Simplex.x);
  let cx = ref 0.0 in
  Array.iteri
    (fun v xv -> cx := !cx +. ((Lp.Problem.var p v).Lp.Problem.obj *. xv))
    r.Lp.Simplex.x;
  check_float ~eps:1e-9 "obj = c'x of the iterate" !cx r.Lp.Simplex.obj

(* --- decision-variable restricted branching --- *)

let test_bb_decision_vars () =
  (* selection structure: pick template y1/y2 per "query", z gates them *)
  let p = Lp.Problem.create () in
  let z1 = Lp.Problem.add_var ~kind:Lp.Problem.Binary ~obj:1.0 p in
  let z2 = Lp.Problem.add_var ~kind:Lp.Problem.Binary ~obj:1.5 p in
  let y1 = Lp.Problem.add_var ~kind:Lp.Problem.Binary ~obj:10.0 p in
  let y2 = Lp.Problem.add_var ~kind:Lp.Problem.Binary ~obj:4.0 p in
  let y0 = Lp.Problem.add_var ~kind:Lp.Problem.Binary ~obj:20.0 p in
  ignore
    (Lp.Problem.add_row p [ (y0, 1.0); (y1, 1.0); (y2, 1.0) ] Lp.Problem.Eq 1.0);
  ignore (Lp.Problem.add_row p [ (y1, 1.0); (z1, -1.0) ] Lp.Problem.Le 0.0);
  ignore (Lp.Problem.add_row p [ (y2, 1.0); (z2, -1.0) ] Lp.Problem.Le 0.0);
  (* capacity: at most one z *)
  ignore (Lp.Problem.add_row p [ (z1, 1.0); (z2, 1.0) ] Lp.Problem.Le 1.0);
  let options =
    { Lp.Branch_bound.default_options with
      Lp.Branch_bound.decision_vars = Some [ z1; z2 ] }
  in
  let r = Lp.Branch_bound.solve ~options p in
  (* best: z2, y2 -> 1.5 + 4 = 5.5 *)
  check_float ~eps:1e-6 "restricted optimum" 5.5 r.Lp.Branch_bound.obj


(* --- Analyze: model checks and solution certification --- *)

let has_code c issues =
  List.exists (fun (i : Lp.Analyze.issue) -> i.Lp.Analyze.code = c) issues

let test_analyze_malformed_models () =
  (* bound conflict *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p in
  Lp.Problem.set_bounds p x ~lb:2.0 ~ub:1.0;
  let issues = Lp.Analyze.check p in
  Alcotest.(check bool) "bound-conflict flagged" true
    (has_code "bound-conflict" issues);
  Alcotest.(check bool) "bound conflict is an error" true
    (Lp.Analyze.has_errors issues);
  (* empty rows: infeasible vs redundant *)
  let p = Lp.Problem.create () in
  ignore (Lp.Problem.add_var p);
  ignore (Lp.Problem.add_row ~name:"bad" p [] Lp.Problem.Ge 1.0);
  ignore (Lp.Problem.add_row ~name:"redundant" p [] Lp.Problem.Le 1.0);
  let issues = Lp.Analyze.check p in
  Alcotest.(check bool) "empty infeasible row flagged" true
    (has_code "empty-row-infeasible" issues);
  Alcotest.(check bool) "empty satisfiable row is info" true
    (has_code "empty-row" issues);
  Alcotest.(check int) "only the infeasible one is an error" 1
    (List.length (Lp.Analyze.errors issues));
  (* duplicate equality rows with conflicting rhs *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p in
  let y = Lp.Problem.add_var p in
  ignore (Lp.Problem.add_row p [ (x, 1.0); (y, 2.0) ] Lp.Problem.Eq 1.0);
  ignore (Lp.Problem.add_row p [ (x, 1.0); (y, 2.0) ] Lp.Problem.Eq 2.0);
  ignore (Lp.Problem.add_row p [ (x, 1.0); (y, 2.0) ] Lp.Problem.Eq 1.0);
  let issues = Lp.Analyze.check p in
  Alcotest.(check bool) "conflicting duplicate Eq is an error" true
    (has_code "duplicate-eq-conflict" issues);
  Alcotest.(check bool) "exact duplicate is reported as redundant" true
    (has_code "duplicate-row" issues);
  (* dangling variable whose objective pushes to an infinite bound *)
  let p = Lp.Problem.create () in
  ignore (Lp.Problem.add_var ~obj:(-1.0) p);
  Alcotest.(check bool) "dangling-unbounded flagged" true
    (has_code "dangling-unbounded" (Lp.Analyze.check p));
  (* pathological coefficient dynamic range *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var ~ub:1.0 p in
  let y = Lp.Problem.add_var ~ub:1.0 p in
  ignore (Lp.Problem.add_row p [ (x, 1e-8); (y, 1e8) ] Lp.Problem.Le 1.0);
  let issues = Lp.Analyze.check p in
  Alcotest.(check bool) "row-scaling flagged" true
    (has_code "row-scaling" issues);
  Alcotest.(check bool) "model-wide scaling flagged" true
    (has_code "scaling" issues);
  Alcotest.(check bool) "scaling diagnostics are not errors" false
    (Lp.Analyze.has_errors issues)

let test_analyze_clean_model () =
  (* the dantzig instance: well-formed, well-scaled *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var ~obj:(-3.0) p in
  let y = Lp.Problem.add_var ~obj:(-5.0) p in
  ignore (Lp.Problem.add_row p [ (x, 1.0) ] Lp.Problem.Le 4.0);
  ignore (Lp.Problem.add_row p [ (y, 2.0) ] Lp.Problem.Le 12.0);
  ignore (Lp.Problem.add_row p [ (x, 3.0); (y, 2.0) ] Lp.Problem.Le 18.0);
  Alcotest.(check (list string)) "no issues at all" []
    (List.map
       (fun (i : Lp.Analyze.issue) -> i.Lp.Analyze.code)
       (Lp.Analyze.check p))

let test_certify_accepts_and_rejects () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var ~obj:(-3.0) p in
  let y = Lp.Problem.add_var ~obj:(-5.0) p in
  ignore (Lp.Problem.add_row p [ (x, 1.0) ] Lp.Problem.Le 4.0);
  ignore (Lp.Problem.add_row p [ (y, 2.0) ] Lp.Problem.Le 12.0);
  ignore (Lp.Problem.add_row p [ (x, 3.0); (y, 2.0) ] Lp.Problem.Le 18.0);
  let r = solve_lp p in
  check_status "optimal" Lp.Simplex.Optimal r;
  let cert =
    Lp.Analyze.certify ~duals:r.Lp.Simplex.duals ~obj:r.Lp.Simplex.obj p
      r.Lp.Simplex.x
  in
  Alcotest.(check bool) "optimum certifies" true cert.Lp.Analyze.cert_ok;
  check_float "no row violation" 0.0 cert.Lp.Analyze.max_row_violation;
  Alcotest.(check bool) "dual residual small" true
    (cert.Lp.Analyze.max_dual_residual <= 1e-6);
  (* corrupt the point: row 3 becomes violated *)
  let bad = Array.copy r.Lp.Simplex.x in
  bad.(0) <- bad.(0) +. 1.0;
  let cert = Lp.Analyze.certify p bad in
  Alcotest.(check bool) "corrupted point rejected" false
    cert.Lp.Analyze.cert_ok;
  Alcotest.(check bool) "violation reported" true
    (cert.Lp.Analyze.max_row_violation > 1e-3);
  (* wrong reported objective *)
  let cert = Lp.Analyze.certify ~obj:(r.Lp.Simplex.obj +. 1.0) p r.Lp.Simplex.x in
  Alcotest.(check bool) "objective mismatch rejected" false
    cert.Lp.Analyze.cert_ok;
  (* fractional integer variable *)
  let p = Lp.Problem.create () in
  let b = Lp.Problem.add_var ~kind:Lp.Problem.Binary p in
  ignore (Lp.Problem.add_row p [ (b, 1.0) ] Lp.Problem.Le 1.0);
  let cert = Lp.Analyze.certify p [| 0.5 |] in
  Alcotest.(check bool) "fractional binary rejected" false
    cert.Lp.Analyze.cert_ok;
  (* ... unless integrality is waived (LP relaxation certificates) *)
  let cert = Lp.Analyze.certify ~int_vars:[] p [| 0.5 |] in
  Alcotest.(check bool) "relaxation certificate accepts" true
    cert.Lp.Analyze.cert_ok;
  (* length mismatch short-circuits *)
  let cert = Lp.Analyze.certify p [| 0.0; 0.0 |] in
  Alcotest.(check bool) "length mismatch rejected" false
    cert.Lp.Analyze.cert_ok

let test_certify_dual_gate () =
  (* the dantzig optimum (2, 6): x sits strictly inside its bounds and
     the first row has slack, so every optimality condition has teeth *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var ~obj:(-3.0) p in
  let y = Lp.Problem.add_var ~obj:(-5.0) p in
  ignore (Lp.Problem.add_row p [ (x, 1.0) ] Lp.Problem.Le 4.0);
  ignore (Lp.Problem.add_row p [ (y, 2.0) ] Lp.Problem.Le 12.0);
  ignore (Lp.Problem.add_row p [ (x, 3.0); (y, 2.0) ] Lp.Problem.Le 18.0);
  let r = solve_lp p in
  check_status "optimal" Lp.Simplex.Optimal r;
  let cert =
    Lp.Analyze.certify ~duals:r.Lp.Simplex.duals ~obj:r.Lp.Simplex.obj p
      r.Lp.Simplex.x
  in
  Alcotest.(check bool) "honest duals pass" true cert.Lp.Analyze.cert_ok;
  let bad = Array.map (fun d -> d +. 0.5) r.Lp.Simplex.duals in
  let cert =
    Lp.Analyze.certify ~duals:bad ~obj:r.Lp.Simplex.obj p r.Lp.Simplex.x
  in
  Alcotest.(check bool) "corrupted duals fail" false cert.Lp.Analyze.cert_ok;
  Alcotest.(check bool) "residual reported" true
    (cert.Lp.Analyze.max_dual_residual > 1e-3);
  Alcotest.(check bool) "failure names the dual residual" true
    (List.exists
       (String.starts_with ~prefix:"dual residual")
       cert.Lp.Analyze.cert_issues);
  (* Each condition alone.  A variable fixed by its bounds is at both of
     them, so it puts no condition on its reduced cost, and a model
     without rows puts none on the duals: each case below breaks exactly
     one condition. *)
  let dual_ok ~lb ~ub ~obj rows xv y =
    let p = Lp.Problem.create () in
    let v = Lp.Problem.add_var ~lb ~ub ~obj p in
    List.iter
      (fun (sense, rhs) -> ignore (Lp.Problem.add_row p [ (v, 1.0) ] sense rhs))
      rows;
    (Lp.Analyze.certify ~duals:y p [| xv |]).Lp.Analyze.cert_ok
  in
  let fixed = dual_ok ~lb:3.0 ~ub:3.0 ~obj:0.0 in
  let free_box = dual_ok ~lb:0.0 ~ub:10.0 in
  List.iter
    (fun (name, expected, ok) -> Alcotest.(check bool) name expected ok)
    [
      ("tight <= row, y <= 0", true, fixed [ (Lp.Problem.Le, 3.0) ] 3.0 [| -1.0 |]);
      ("tight <= row, y > 0", false, fixed [ (Lp.Problem.Le, 3.0) ] 3.0 [| 1.0 |]);
      ("tight >= row, y >= 0", true, fixed [ (Lp.Problem.Ge, 3.0) ] 3.0 [| 1.0 |]);
      ("tight >= row, y < 0", false, fixed [ (Lp.Problem.Ge, 3.0) ] 3.0 [| -1.0 |]);
      ("= row, any sign", true, fixed [ (Lp.Problem.Eq, 3.0) ] 3.0 [| 7.0 |]);
      ("<= row with slack, y <> 0", false, fixed [ (Lp.Problem.Le, 4.0) ] 3.0 [| -1.0 |]);
      (">= row with slack, y <> 0", false, fixed [ (Lp.Problem.Ge, 2.0) ] 3.0 [| 1.0 |]);
      ("at lower bound, d >= 0", true, free_box ~obj:1.0 [] 0.0 [||]);
      ("at lower bound, d < 0", false, free_box ~obj:(-1.0) [] 0.0 [||]);
      ("at upper bound, d <= 0", true, free_box ~obj:(-1.0) [] 10.0 [||]);
      ("at upper bound, d > 0", false, free_box ~obj:1.0 [] 10.0 [||]);
      ("between bounds, d = 0", true, free_box ~obj:0.0 [] 5.0 [||]);
      ("between bounds, d <> 0", false, free_box ~obj:1.0 [] 5.0 [||]);
    ]

let test_bb_certify_incumbents () =
  (* knapsack-style BIP solved with incumbent certification on: same
     answer as the plain solve, and no Certification_failed raised *)
  let build () =
    let p = Lp.Problem.create () in
    let vars =
      Array.init 6 (fun i ->
          Lp.Problem.add_var ~kind:Lp.Problem.Binary
            ~obj:(-.float_of_int (1 + (i * 2 mod 5)))
            p)
    in
    ignore
      (Lp.Problem.add_row p
         (Array.to_list (Array.mapi (fun i v -> (v, float_of_int (1 + i))) vars))
         Lp.Problem.Le 7.0);
    p
  in
  let plain = Lp.Branch_bound.solve (build ()) in
  let options =
    { Lp.Branch_bound.default_options with
      Lp.Branch_bound.certify_incumbents = true }
  in
  let certified = Lp.Branch_bound.solve ~options (build ()) in
  check_float "same objective with certification"
    plain.Lp.Branch_bound.obj certified.Lp.Branch_bound.obj

let prop_analyze_accepts_solvable =
  QCheck.Test.make
    ~name:"check+certify accept every random LP the simplex solves" ~count:80
    (QCheck.make random_lp_gen) (fun spec ->
      let p, _, _ = build_random_lp spec in
      (* generator produces well-formed models: no static errors *)
      (not (Lp.Analyze.has_errors (Lp.Analyze.check p)))
      &&
      let r = solve_lp p in
      match r.Lp.Simplex.status with
      | Lp.Simplex.Optimal ->
          let cert =
            Lp.Analyze.certify ~duals:r.Lp.Simplex.duals
              ~obj:(r.Lp.Simplex.obj +. Lp.Problem.obj_offset p)
              p r.Lp.Simplex.x
          in
          cert.Lp.Analyze.cert_ok
      | _ -> true)

let prop_bb_certified_matches_brute_force =
  QCheck.Test.make
    ~name:"certified branch&bound equals brute force" ~count:40
    (QCheck.make random_bip_gen) (fun spec ->
      let n, _, _ = spec in
      let p, _ = build_random_bip spec in
      let expected = brute_force p n in
      let options =
        { Lp.Branch_bound.default_options with
          Lp.Branch_bound.certify_incumbents = true }
      in
      let r = Lp.Branch_bound.solve ~options p in
      match r.Lp.Branch_bound.x with
      | Some x ->
          let cert = Lp.Analyze.certify ~obj:r.Lp.Branch_bound.obj p x in
          cert.Lp.Analyze.cert_ok
          && abs_float (r.Lp.Branch_bound.obj -. expected) < 1e-5
      | None -> expected = infinity)

let () =
  Alcotest.run "lp"
    [
      ( "problem",
        [
          Alcotest.test_case "builder" `Quick test_problem_builder;
          Alcotest.test_case "feasibility eval" `Quick test_problem_feasibility_eval;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "dantzig" `Quick test_simplex_dantzig;
          Alcotest.test_case "equality+bounds" `Quick test_simplex_equality_and_bounds;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "degenerate (beale)" `Quick test_simplex_degenerate;
          Alcotest.test_case "free variable" `Quick test_simplex_free_variable;
          QCheck_alcotest.to_alcotest prop_simplex_beats_samples;
        ] );
      ( "lu",
        [
          Alcotest.test_case "ftran solve" `Quick test_lu_solve;
          Alcotest.test_case "btran solve" `Quick test_lu_solve_transpose;
          Alcotest.test_case "singular detection" `Quick test_lu_singular;
        ] );
      ( "sparse_kernel",
        [
          Alcotest.test_case "degenerate (beale)" `Quick
            test_sparse_degenerate_beale;
          Alcotest.test_case "degenerate (assignment)" `Quick
            test_sparse_degenerate_assignment;
          Alcotest.test_case "iteration limit keeps the iterate" `Quick
            test_simplex_iter_limit;
          QCheck_alcotest.to_alcotest prop_simplex_certified_random_lp;
        ] );
      ( "branch_bound",
        [
          Alcotest.test_case "knapsack" `Quick test_bb_knapsack;
          Alcotest.test_case "integer infeasible" `Quick test_bb_infeasible_integrality;
          Alcotest.test_case "gap termination" `Quick test_bb_gap_termination;
          Alcotest.test_case "decision vars" `Quick test_bb_decision_vars;
          Alcotest.test_case "jobs 1/4 identity" `Quick test_bb_jobs_identity;
          QCheck_alcotest.to_alcotest prop_bb_matches_brute_force;
          Alcotest.test_case "bound <= obj: spec (4, 3, 44)" `Quick
            test_bb_bound_regression;
          QCheck_alcotest.to_alcotest prop_bb_jobs_agree;
          Alcotest.test_case "jobs 1/4 agree: seed 1087" `Quick
            (test_bb_agree_regression 1087);
          Alcotest.test_case "jobs 1/4 agree: seed 98158" `Quick
            (test_bb_agree_regression 98158);
          Alcotest.test_case "jobs 1/4 agree: seed 448740" `Quick
            (test_bb_agree_regression 448740);
          Alcotest.test_case "trajectory pin at jobs 1 and 4" `Quick
            test_bb_trajectory_pin;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "malformed models" `Quick
            test_analyze_malformed_models;
          Alcotest.test_case "clean model" `Quick test_analyze_clean_model;
          Alcotest.test_case "certify accepts/rejects" `Quick
            test_certify_accepts_and_rejects;
          Alcotest.test_case "certify dual gate" `Quick
            test_certify_dual_gate;
          Alcotest.test_case "bb certify_incumbents" `Quick
            test_bb_certify_incumbents;
          QCheck_alcotest.to_alcotest prop_analyze_accepts_solvable;
          QCheck_alcotest.to_alcotest prop_bb_certified_matches_brute_force;
        ] );
      ( "lp_format",
        [
          Alcotest.test_case "roundtrip" `Quick test_lp_format_roundtrip;
          Alcotest.test_case "handwritten" `Quick test_lp_format_parse_handwritten;
          Alcotest.test_case "maximize fixtures" `Quick
            test_lp_format_maximize_fixtures;
          Alcotest.test_case "errors" `Quick test_lp_format_errors;
          QCheck_alcotest.to_alcotest prop_lp_format_roundtrip_random;
        ] );
    ]
