(* Lifted cover cuts for knapsack rows.

   CoPhy's materialized BIP has exactly one family of structured rows:
   the storage-budget knapsacks sum(size_a * z_a) <= B over binary z.
   For a cover C (a set of items whose sizes overshoot the budget) every
   feasible selection leaves at least one item of C out:

       sum_{j in C} x_j <= |C| - 1.

   The cut is lifted to its extension E(C) = C + {j : a_j >= max_{i in C}
   a_i}: any |C|-subset of E(C) weighs at least as much as C, so the
   right-hand side survives the larger support — a strictly stronger
   valid inequality at no extra separation cost.

   Separation is the classic greedy: items sorted by fractional LP value
   (descending, sizes as tie-break) are accumulated until they overshoot
   the budget; the resulting cover is emitted when the LP point violates
   the lifted inequality.  Generated cuts live in a pool with
   activity-based aging: a cut re-violated (or tight) under the current
   LP point is "active" and its age resets; cuts that stay slack for
   [max_age] consecutive separation rounds are evicted.  Validity is
   certified against the final incumbent — every added cut must hold at
   the returned integer point ({!certify}), on top of {!Analyze.certify}
   checking the cut rows like any other row once they are added to the
   problem. *)

module Fx = Runtime.Fx

type knapsack = {
  row_id : int;  (* index of the source row in the problem *)
  items : (int * float) array;  (* (var, size), all sizes > 0 *)
  cap : float;
}

type cut = {
  cvars : int array;  (* sorted support: sum x_j <= crhs *)
  crhs : float;
  source_row : int;
  mutable age : int;  (* separation rounds since last active *)
  mutable installed : bool;
}

type pool = {
  knapsacks : knapsack array;
  mutable cuts : cut list;  (* newest first; both pending and added *)
  mutable added : int;  (* cuts installed as rows; numbers their names *)
}

let max_age = 3

(* A separation round returns the cuts an LP point violates by more than
   [min_violation], at most [max_cuts] of them; {!certify} tolerates
   [cert_tol]. *)
let min_violation = 1e-4
let max_cuts = 16
let cert_tol = 1e-6

(* Safety margin for the cover condition: only emit a cover whose weight
   clearly overshoots the capacity, so float noise in big byte-valued
   storage rows can never manufacture an invalid cut. *)
let cover_margin cap = 1e-9 +. (1e-12 *. abs_float cap)

let tr_separated = Runtime.Trace.counter "cuts.separated"
let tr_evicted = Runtime.Trace.counter "cuts.evicted"

(* A row qualifies as a knapsack when it reads sum(a_j x_j) <= b with
   every coefficient positive and every variable binary. *)
let detect (p : Problem.t) =
  let binary = Array.make (Problem.nvars p) false in
  List.iter
    (fun v ->
      let vr = Problem.var p v in
      if vr.Problem.lb >= -1e-9 && vr.Problem.ub <= 1.0 +. 1e-9 then
        binary.(v) <- true)
    (Problem.integer_vars p);
  let knapsacks = ref [] in
  Array.iteri
    (fun i (r : Problem.row) ->
      if
        r.Problem.sense = Problem.Le
        && r.Problem.rhs > 0.0
        && Array.length r.Problem.coeffs >= 2
        && Array.for_all
             (fun (v, c) -> c > 0.0 && binary.(v))
             r.Problem.coeffs
      then
        knapsacks :=
          { row_id = i; items = r.Problem.coeffs; cap = r.Problem.rhs }
          :: !knapsacks)
    (Problem.rows p);
  {
    knapsacks = Array.of_list (List.rev !knapsacks);
    cuts = [];
    added = 0;
  }

let cut_key c = (c.source_row, Array.to_list c.cvars)

let lhs_value (c : cut) (x : float array) =
  Array.fold_left (fun acc v -> acc +. x.(v)) 0.0 c.cvars

(* Greedy cover of one knapsack against the LP point [x]; returns the
   lifted cut when violated by more than [min_violation]. *)
let separate_knapsack (k : knapsack) (x : float array) =
  (* items by LP value descending; deterministic tie-break on var id *)
  let order = Array.copy k.items in
  Array.sort
    (fun (v1, _) (v2, _) ->
      match Float.compare x.(v2) x.(v1) with
      | 0 -> Int.compare v1 v2
      | c -> c)
    order;
  let margin = cover_margin k.cap in
  let weight = ref 0.0 in
  let cover = ref [] in
  let ncover = ref 0 in
  (try
     Array.iter
       (fun (v, a) ->
         if x.(v) > 1e-9 then begin
           weight := !weight +. a;
           cover := v :: !cover;
           incr ncover;
           if !weight > k.cap +. margin then raise Exit
         end)
       order
   with Exit -> ());
  if !weight <= k.cap +. margin || !ncover < 2 then None
  else begin
    (* lift: extend by every item at least as heavy as the cover's
       heaviest member *)
    let amax =
      List.fold_left
        (fun acc v ->
          let a =
            (* item weight lookup: items are few, linear scan is fine *)
            let w = ref 0.0 in
            Array.iter (fun (v', a') -> if v' = v then w := a') k.items;
            !w
          in
          max acc a)
        0.0 !cover
    in
    let in_cover = Hashtbl.create 16 in
    List.iter (fun v -> Hashtbl.replace in_cover v ()) !cover;
    let support = ref !cover in
    Array.iter
      (fun (v, a) ->
        if (not (Hashtbl.mem in_cover v)) && a >= amax then
          support := v :: !support)
      k.items;
    let cvars = Array.of_list !support in
    Array.sort Int.compare cvars;
    let crhs = float_of_int (!ncover - 1) in
    let c = { cvars; crhs; source_row = k.row_id; age = 0; installed = false } in
    if lhs_value c x > crhs +. min_violation then Some c else None
  end

(* One separation round: generate covers from every knapsack under [x],
   dedup against the pool, age existing entries, and return the violated
   cuts (new or revived from the pool) worth adding, most violated
   first. *)
let separate pool (x : float array) =
  let seen = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace seen (cut_key c) ()) pool.cuts;
  let fresh = ref [] in
  Array.iter
    (fun k ->
      match separate_knapsack k x with
      | Some c when not (Hashtbl.mem seen (cut_key c)) ->
          Hashtbl.replace seen (cut_key c) ();
          Runtime.Trace.incr tr_separated;
          pool.cuts <- c :: pool.cuts;
          fresh := c :: !fresh
      | _ -> ())
    pool.knapsacks;
  (* activity-based aging over the whole pool *)
  let keep =
    List.filter
      (fun c ->
        let active = lhs_value c x >= c.crhs -. 1e-6 in
        if active then c.age <- 0 else c.age <- c.age + 1;
        let stale = (not c.installed) && c.age > max_age in
        if stale then Runtime.Trace.incr tr_evicted;
        not stale)
      pool.cuts
  in
  pool.cuts <- keep;
  let violated =
    List.filter
      (fun c -> (not c.installed) && lhs_value c x > c.crhs +. min_violation)
      keep
  in
  let ranked =
    List.sort
      (fun c1 c2 ->
        match
          Float.compare
            (lhs_value c2 x -. c2.crhs)
            (lhs_value c1 x -. c1.crhs)
        with
        | 0 -> Stdlib.compare (cut_key c1) (cut_key c2)
        | c -> c)
      violated
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | c :: rest -> c :: take (n - 1) rest
  in
  take max_cuts ranked

(* Install a cut as a problem row.  The row participates in every later
   LP solve and in {!Analyze.certify} like any other row. *)
let add_to_problem pool (p : Problem.t) (c : cut) =
  if not c.installed then begin
    let coeffs = Array.to_list (Array.map (fun v -> (v, 1.0)) c.cvars) in
    ignore
      (Problem.add_row
         ~name:(Printf.sprintf "cover_r%d_%d" c.source_row pool.added)
         p coeffs Problem.Le c.crhs);
    c.installed <- true;
    pool.added <- pool.added + 1
  end

(* Certification: every added cut must hold at the final incumbent.
   Returns the number of violated cuts (0 = all certified). *)
let certify pool (x : float array) =
  List.fold_left
    (fun bad c ->
      if c.installed && lhs_value c x > c.crhs +. cert_tol then bad + 1
      else bad)
    0 pool.cuts
