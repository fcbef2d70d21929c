(* Bounded-variable primal simplex (revised form) over a sparse LU basis.

   The problem is canonicalized as

       minimize c'x    s.t.  A x + s = b,   l <= (x, s) <= u

   with one slack per row (equality rows get a slack fixed at zero), plus
   phase-1 artificials.  Nonbasic variables rest at one of their bounds;
   the ratio test handles bound-to-bound "flips" without basis changes.

   The basis is a sparse LU with Markowitz pivoting ({!Lu}), maintained
   across pivots by product-form eta vectors and refactorized when the
   eta file grows past a fill bound or a pivot looks numerically
   untrustworthy.  Per-pivot cost tracks the factor nonzeros, which is
   what lets the kernel keep up with the large decomposition
   subproblems and materialized CoPhy BIPs. *)

module Fx = Runtime.Fx

type status = Optimal | Infeasible | Unbounded | Iter_limit

type result = {
  status : status;
  x : float array;          (* structural variable values *)
  obj : float;              (* c'x (without the problem's offset) *)
  duals : float array;      (* one per row *)
  iterations : int;
}

(* Trace probes: single [Atomic.get] each when tracing is off. *)
let tr_iterations = Runtime.Trace.counter "simplex.iterations"
let tr_pivots = Runtime.Trace.counter "simplex.pivots"
let tr_refactorizations = Runtime.Trace.counter "simplex.refactorizations"
let tr_etas = Runtime.Trace.counter "simplex.etas_pushed"
let tr_solves = Runtime.Trace.counter "simplex.solves"

let tol = 1e-7
let pivot_tol = 1e-9

(* --- basis representation --- *)

type eta = { er : int; epiv : float; entries : (int * float) array }

type sparse_basis = {
  mutable lu : Lu.t;
  mutable etas : eta array;       (* applied oldest-first in ftran *)
  mutable neta : int;
  mutable eta_nnz : int;
}

(* Refactorization triggers for the sparse basis. *)
let max_etas = 64
let eta_fill_factor = 2

type state = {
  m : int;                      (* rows *)
  total : int;                  (* structural + slack + artificial *)
  nstruct : int;
  cols : (int * float) array array;   (* sparse column entries (row, coeff) *)
  lb : float array;
  ub : float array;
  cost : float array;           (* phase-dependent *)
  value : float array;
  basis : int array;            (* var in basis position i *)
  in_basis : int array;         (* var -> basis position, -1 if nonbasic *)
  sb : sparse_basis;
  mutable iters : int;
}

(* y = c_B' B^-1 (row-indexed duals) *)
let compute_duals s y =
  let sb = s.sb in
  for i = 0 to s.m - 1 do
    y.(i) <- s.cost.(s.basis.(i))
  done;
  (* B^-T = B0^-T E_1^-T ... E_k^-T: newest eta first, then the LU. *)
  for t = sb.neta - 1 downto 0 do
    let e = sb.etas.(t) in
    let acc = ref y.(e.er) in
    Array.iter (fun (i, w) -> acc := !acc -. (w *. y.(i))) e.entries;
    y.(e.er) <- !acc /. e.epiv
  done;
  Lu.solve_transpose sb.lu y

let reduced_cost s y j =
  let d = ref s.cost.(j) in
  Array.iter (fun (i, a) -> d := !d -. (y.(i) *. a)) s.cols.(j);
  !d

(* Product-form sweep: w (already B0^-1-applied) through the eta file. *)
let eta_sweep sb w =
  for t = 0 to sb.neta - 1 do
    let e = sb.etas.(t) in
    let wr = w.(e.er) /. e.epiv in
    if Fx.nonzero wr then
      Array.iter (fun (i, wi) -> w.(i) <- w.(i) -. (wi *. wr)) e.entries;
    w.(e.er) <- wr
  done

(* w = B^-1 A_j (basis-position-indexed) *)
let ftran s j w =
  Array.fill w 0 s.m 0.0;
  Array.iter (fun (i, a) -> w.(i) <- w.(i) +. a) s.cols.(j);
  Lu.solve s.sb.lu w;
  eta_sweep s.sb w

(* Raised (and contained inside this module) when a refactorization finds
   the current basis numerically singular. *)
exception Singular_basis

let refactor s =
  let sb = s.sb in
  match Lu.factor ~m:s.m ~cols:s.cols ~basis:s.basis with
  | lu ->
      sb.lu <- lu;
      sb.neta <- 0;
      sb.eta_nnz <- 0;
      Runtime.Trace.incr tr_refactorizations
  | exception Lu.Singular _ -> raise Singular_basis

let push_eta sb e =
  if sb.neta >= Array.length sb.etas then begin
    let bigger = Array.make (max 16 (2 * sb.neta)) e in
    Array.blit sb.etas 0 bigger 0 sb.neta;
    sb.etas <- bigger
  end;
  sb.etas.(sb.neta) <- e;
  sb.neta <- sb.neta + 1;
  sb.eta_nnz <- sb.eta_nnz + Array.length e.entries + 1

(* Install the basis change at position [r] ([s.basis] already updated),
   where [w] = B_old^-1 A_enter. *)
let update_basis s r w =
  Runtime.Trace.incr tr_pivots;
  let sb = s.sb in
  let maxw = ref 0.0 in
  let count = ref 0 in
  for i = 0 to s.m - 1 do
    let a = abs_float w.(i) in
    if a > !maxw then maxw := a;
    if i <> r && a > 1e-13 then incr count
  done;
  if
    abs_float w.(r) < 1e-7 *. !maxw
    || sb.neta >= max_etas
    || sb.eta_nnz > (eta_fill_factor * Lu.nnz sb.lu) + (4 * s.m)
  then refactor s
  else begin
    let entries = Array.make !count (0, 0.0) in
    let k = ref 0 in
    for i = 0 to s.m - 1 do
      if i <> r && abs_float w.(i) > 1e-13 then begin
        entries.(!k) <- (i, w.(i));
        incr k
      end
    done;
    push_eta sb { er = r; epiv = w.(r); entries };
    Runtime.Trace.incr tr_etas
  end

(* Entering-variable direction: +1 when it will increase from its current
   value, -1 when it will decrease. *)
let entering_direction s j d =
  let v = s.value.(j) in
  let at_lb = v <= s.lb.(j) +. tol in
  let at_ub = v >= s.ub.(j) -. tol in
  if at_lb && d < -.tol then Some 1
  else if at_ub && d > tol then Some (-1)
  else if (not at_lb) && (not at_ub) && abs_float d > tol then
    Some (if d < 0.0 then 1 else -1)
  else None

exception Found of int * int  (* var, direction *)

let price s y ~bland =
  try
    if bland then
      for j = 0 to s.total - 1 do
        if s.in_basis.(j) < 0 && s.lb.(j) < s.ub.(j) then begin
          let d = reduced_cost s y j in
          match entering_direction s j d with
          | Some dir -> raise (Found (j, dir))
          | None -> ()
        end
      done
    else begin
      let best = ref (-1) and best_dir = ref 0 and best_score = ref tol in
      for j = 0 to s.total - 1 do
        if s.in_basis.(j) < 0 && s.lb.(j) < s.ub.(j) then begin
          let d = reduced_cost s y j in
          match entering_direction s j d with
          | Some dir ->
              if abs_float d > !best_score then begin
                best := j;
                best_dir := dir;
                best_score := abs_float d
              end
          | None -> ()
        end
      done;
      if !best >= 0 then raise (Found (!best, !best_dir))
    end;
    None
  with Found (j, dir) -> Some (j, dir)

(* One phase of the primal simplex; returns final status. *)
let run_phase s ~max_iters =
  let y = Array.make s.m 0.0 in
  let w = Array.make s.m 0.0 in
  let stall = ref 0 in
  let last_obj = ref infinity in
  let rec loop () =
    if s.iters >= max_iters then Iter_limit
    else begin
      s.iters <- s.iters + 1;
      Runtime.Trace.incr tr_iterations;
      compute_duals s y;
      let bland = !stall > 200 in
      match price s y ~bland with
      | None -> Optimal
      | Some (enter, dir) ->
          ftran s enter w;
          let fdir = float_of_int dir in
          (* Ratio test: smallest step that hits a bound. *)
          let t_limit = ref infinity and leave = ref (-1) in
          (* entering variable's own opposite bound *)
          let own_span = s.ub.(enter) -. s.lb.(enter) in
          if own_span < !t_limit then begin
            t_limit := own_span;
            leave := -2 (* bound flip *)
          end;
          for i = 0 to s.m - 1 do
            let rate = -.fdir *. w.(i) in
            if rate > pivot_tol then begin
              let room = s.ub.(s.basis.(i)) -. s.value.(s.basis.(i)) in
              let t = max 0.0 (room /. rate) in
              if t < !t_limit -. 1e-12
                 || (t < !t_limit +. 1e-12 && !leave >= 0
                     && s.basis.(i) < s.basis.(!leave))
              then begin
                t_limit := t;
                leave := i
              end
            end
            else if rate < -.pivot_tol then begin
              let room = s.value.(s.basis.(i)) -. s.lb.(s.basis.(i)) in
              let t = max 0.0 (room /. -.rate) in
              if t < !t_limit -. 1e-12
                 || (t < !t_limit +. 1e-12 && !leave >= 0
                     && s.basis.(i) < s.basis.(!leave))
              then begin
                t_limit := t;
                leave := i
              end
            end
          done;
          if Fx.is_inf !t_limit then Unbounded
          else begin
            let t = !t_limit in
            (* apply the step *)
            s.value.(enter) <- s.value.(enter) +. (fdir *. t);
            if t > 0.0 then
              for i = 0 to s.m - 1 do
                let b = s.basis.(i) in
                s.value.(b) <- s.value.(b) -. (fdir *. t *. w.(i))
              done;
            (* stall detection for Bland's rule *)
            let obj =
              let acc = ref 0.0 in
              for j = 0 to s.total - 1 do
                if Fx.nonzero s.cost.(j) then acc := !acc +. (s.cost.(j) *. s.value.(j))
              done;
              !acc
            in
            if obj < !last_obj -. 1e-10 then begin
              last_obj := obj;
              stall := 0
            end
            else incr stall;
            (match !leave with
            | -2 -> () (* bound flip: no basis change *)
            | r -> (
                let leaving = s.basis.(r) in
                (* snap the leaving variable onto the bound it hit *)
                let rate = -.fdir *. w.(r) in
                s.value.(leaving) <-
                  (if rate > 0.0 then s.ub.(leaving) else s.lb.(leaving));
                s.in_basis.(leaving) <- -1;
                s.basis.(r) <- enter;
                s.in_basis.(enter) <- r;
                try update_basis s r w
                with Singular_basis ->
                  (* The pivot made the basis numerically singular (e.g. a
                     column emptied by drop-tolerance deletions).  Undo the
                     swap — the primal values stay consistent, the entering
                     variable just rests between its bounds — and rebuild
                     the previous basis, which was factorizable.  If even
                     that fails, the outer handler returns Iter_limit. *)
                  s.basis.(r) <- leaving;
                  s.in_basis.(leaving) <- r;
                  s.in_basis.(enter) <- -1;
                  refactor s));
            loop ()
          end
    end
  in
  (* Never let a singular-basis failure escape the public [solve] API:
     if recovery in the pivot loop also fails, report Iter_limit — the
     iterate is a valid (if unconverged) primal point, and callers
     already treat Iter_limit as "not proven". *)
  try loop () with Singular_basis -> Iter_limit

(* --- State construction --- *)

let default_iters m n = 2000 + (60 * (m + n))

(* Build the canonical state for [p]: sparse columns for structurals,
   slacks and phase-1 artificials, bound arrays (with per-var overrides,
   which branch-and-bound nodes pass so the shared problem is never
   mutated), nonbasic values at bounds, and the all-artificial starting
   basis.  [bounds] entries are (var, lb, ub) with var < nvars. *)
let make_state ~bounds (p : Problem.t) =
  let m = Problem.nrows p in
  let n = Problem.nvars p in
  let rows = Problem.rows p in
  let total = n + m + m in
  (* columns *)
  let cols = Array.make total [||] in
  let tmp = Array.make m [] in
  Array.iteri
    (fun i (r : Problem.row) ->
      Array.iter (fun (v, c) -> tmp.(i) <- (v, c) :: tmp.(i)) r.Problem.coeffs)
    rows;
  let per_var = Array.make n [] in
  Array.iteri
    (fun i entries ->
      List.iter (fun (v, c) -> per_var.(v) <- (i, c) :: per_var.(v)) entries)
    tmp;
  for v = 0 to n - 1 do
    cols.(v) <- Array.of_list per_var.(v)
  done;
  for i = 0 to m - 1 do
    cols.(n + i) <- [| (i, 1.0) |]  (* slack *)
  done;
  (* bounds *)
  let lb = Array.make total 0.0 and ub = Array.make total 0.0 in
  for v = 0 to n - 1 do
    lb.(v) <- (Problem.var p v).Problem.lb;
    ub.(v) <- (Problem.var p v).Problem.ub
  done;
  List.iter
    (fun (v, l, u) ->
      lb.(v) <- l;
      ub.(v) <- u)
    bounds;
  Array.iteri
    (fun i (r : Problem.row) ->
      match r.Problem.sense with
      | Problem.Le ->
          lb.(n + i) <- 0.0;
          ub.(n + i) <- infinity
      | Problem.Ge ->
          lb.(n + i) <- neg_infinity;
          ub.(n + i) <- 0.0
      | Problem.Eq ->
          lb.(n + i) <- 0.0;
          ub.(n + i) <- 0.0)
    rows;
  (* initial nonbasic values *)
  let value = Array.make total 0.0 in
  for j = 0 to n + m - 1 do
    value.(j) <-
      (if lb.(j) > neg_infinity then lb.(j)
       else if ub.(j) < infinity then ub.(j)
       else 0.0)
  done;
  (* residuals and artificials *)
  let resid = Array.make m 0.0 in
  Array.iteri (fun i (r : Problem.row) -> resid.(i) <- r.Problem.rhs) rows;
  for j = 0 to n + m - 1 do
    if Fx.nonzero value.(j) then
      Array.iter (fun (i, c) -> resid.(i) <- resid.(i) -. (c *. value.(j))) cols.(j)
  done;
  let bas = Array.make m 0 in
  let in_basis = Array.make total (-1) in
  for i = 0 to m - 1 do
    let a = n + m + i in
    let sigma = if resid.(i) >= 0.0 then 1.0 else -1.0 in
    cols.(a) <- [| (i, sigma) |];
    lb.(a) <- 0.0;
    ub.(a) <- infinity;
    value.(a) <- abs_float resid.(i);
    bas.(i) <- a;
    in_basis.(a) <- i
  done;
  let lu =
    (* The all-artificial starting basis is a signed diagonal, so
       factorization cannot fail; the handler keeps [Lu.Singular]
       syntactically contained in this module either way. *)
    try Lu.factor ~m ~cols ~basis:bas with Lu.Singular _ -> assert false
  in
  let sb = { lu; etas = [||]; neta = 0; eta_nnz = 0 } in
  let cost = Array.make total 0.0 in
  let s = { m; total; nstruct = n; cols; lb; ub; cost; value; basis = bas;
            in_basis; sb; iters = 0 } in
  let need_phase1 = Array.exists (fun r -> abs_float r > tol) resid in
  (s, need_phase1)

let extract s (p : Problem.t) status =
  let n = s.nstruct in
  let x = Array.sub s.value 0 n in
  let obj = ref 0.0 in
  for v = 0 to n - 1 do
    obj := !obj +. ((Problem.var p v).Problem.obj *. x.(v))
  done;
  let y = Array.make s.m 0.0 in
  for v = 0 to n - 1 do
    s.cost.(v) <- (Problem.var p v).Problem.obj
  done;
  compute_duals s y;
  { status; x; obj = !obj; duals = y; iterations = s.iters }

(* Two-phase primal run over a freshly built state. *)
let solve_state s ~need_phase1 ~max_iters (p : Problem.t) =
  let m = s.m and n = s.nstruct in
  (* Phase 1: minimize the artificial sum. *)
  let phase1_status =
    if not need_phase1 then Optimal
    else begin
      for i = 0 to m - 1 do
        s.cost.(n + m + i) <- 1.0
      done;
      let st = run_phase s ~max_iters in
      for i = 0 to m - 1 do
        s.cost.(n + m + i) <- 0.0
      done;
      st
    end
  in
  let infeasible =
    let art_sum = ref 0.0 in
    for i = 0 to m - 1 do
      art_sum := !art_sum +. s.value.(n + m + i)
    done;
    !art_sum > 1e-6
  in
  match phase1_status with
  | Iter_limit -> extract s p Iter_limit
  | Unbounded | Optimal | Infeasible ->
      if infeasible then extract s p Infeasible
      else begin
        (* Pin artificials to zero for phase 2. *)
        for i = 0 to m - 1 do
          s.ub.(n + m + i) <- 0.0
        done;
        for v = 0 to n - 1 do
          s.cost.(v) <- (Problem.var p v).Problem.obj
        done;
        let st = run_phase s ~max_iters in
        extract s p st
      end

(* --- Public entry points --- *)

let[@bound.source heuristic
     "the result may carry status Iter_limit or Unbounded, whose obj/x are \
      the last iterate, not a proven optimum; only Optimal results are \
      certified"] solve ?(max_iters = 0) ?(bounds = []) (p : Problem.t) =
  Runtime.Trace.incr tr_solves;
  let m = Problem.nrows p and n = Problem.nvars p in
  let max_iters = if max_iters > 0 then max_iters else default_iters m n in
  let s, need_phase1 = make_state ~bounds p in
  solve_state s ~need_phase1 ~max_iters p
