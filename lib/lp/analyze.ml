(* Model-level static analysis and post-solve certification.

   Layer 2 of cophy-lint (DESIGN.md §9): [check] flags malformed or
   numerically hazardous [Problem.t] models before a solve; [certify]
   validates a solver's incumbent against rows/bounds/integrality within
   tolerance and reports primal/dual residuals.  Both are deterministic
   (row order, then variable order) and allocation-light so they can run
   inside branch-and-bound incumbent acceptance in debug mode. *)

module Fx = Runtime.Fx

type severity = Error | Warning | Info

type issue = {
  severity : severity;
  code : string;
  where : string;
  message : string;
}

let has_errors issues = List.exists (fun i -> i.severity = Error) issues
let errors issues = List.filter (fun i -> i.severity = Error) issues

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let pp_issue ppf i =
  Fmt.pf ppf "%s[%s]%s%s: %s" (severity_name i.severity) i.code
    (if String.equal i.where "" then "" else " ")
    i.where i.message

(* Order-independent signature of a row's left-hand side + sense, for
   duplicate detection.  Coefficients print with full precision so only
   exactly-identical rows collide. *)
let row_signature (r : Problem.row) =
  let buf = Buffer.create 64 in
  Buffer.add_string buf
    (match r.Problem.sense with
    | Problem.Le -> "L;"
    | Problem.Ge -> "G;"
    | Problem.Eq -> "E;");
  Array.iter
    (fun (v, c) -> Buffer.add_string buf (Printf.sprintf "%d:%.17g;" v c))
    r.Problem.coeffs;
  Buffer.contents buf

(* The tolerance of [check]'s two rhs tests: an empty equality row's rhs
   against 0 (absolute), and two equal-lhs equality rows' rhs against
   each other (relative, the [Fx.approx_rel] form). *)
let rhs_tol = 1e-12

let check (p : Problem.t) =
  let issues = ref [] in
  let add severity code where message =
    issues := { severity; code; where; message } :: !issues
  in
  let nvars = Problem.nvars p in
  let rows = Problem.rows p in
  let used = Array.make (max 1 nvars) false in
  let cmin = ref infinity and cmax = ref 0.0 in
  let seen : (string, int * float) Hashtbl.t =
    Hashtbl.create (Array.length rows)
  in
  (* --- rows, in id order --- *)
  Array.iteri
    (fun i (r : Problem.row) ->
      let rname = r.Problem.rname in
      if Float.is_nan r.Problem.rhs then
        add Error "nan-rhs" rname "right-hand side is NaN";
      let row_min = ref infinity and row_max = ref 0.0 in
      Array.iter
        (fun (v, c) ->
          used.(v) <- true;
          if Float.is_nan c then
            add Error "nan-coeff" rname
              (Printf.sprintf "coefficient of %s is NaN"
                 (Problem.var p v).Problem.vname)
          else if Fx.is_inf (abs_float c) then
            add Error "inf-coeff" rname
              (Printf.sprintf "coefficient of %s is infinite"
                 (Problem.var p v).Problem.vname)
          else begin
            let a = abs_float c in
            if a < !row_min then row_min := a;
            if a > !row_max then row_max := a;
            if a < !cmin then cmin := a;
            if a > !cmax then cmax := a
          end)
        r.Problem.coeffs;
      if Array.length r.Problem.coeffs = 0 then begin
        (* All-zero / empty left-hand side: either trivially redundant or
           trivially infeasible, depending on the rhs. *)
        let zero_ok =
          match r.Problem.sense with
          | Problem.Le -> r.Problem.rhs >= -1e-12
          | Problem.Ge -> r.Problem.rhs <= 1e-12
          | Problem.Eq -> abs_float r.Problem.rhs <= rhs_tol
        in
        if zero_ok then
          add Info "empty-row" rname
            "row has no nonzero coefficients (redundant)"
        else
          add Error "empty-row-infeasible" rname
            (Printf.sprintf
               "row has no nonzero coefficients but requires %s %g"
               (match r.Problem.sense with
               | Problem.Le -> "0 <="
               | Problem.Ge -> "0 >="
               | Problem.Eq -> "0 =")
               r.Problem.rhs)
      end
      else begin
        if !row_max /. !row_min > 1e10 then
          add Warning "row-scaling" rname
            (Printf.sprintf
               "coefficient magnitudes span %.2g .. %.2g (ratio %.1e); \
                consider rescaling"
               !row_min !row_max
               (!row_max /. !row_min));
        let sig_ = row_signature r in
        match Hashtbl.find_opt seen sig_ with
        | None -> Hashtbl.replace seen sig_ (i, r.Problem.rhs)
        | Some (j, rhs0) ->
            let other = rows.(j).Problem.rname in
            if
              r.Problem.sense = Problem.Eq
              && not
                   (abs_float (rhs0 -. r.Problem.rhs)
                   <= rhs_tol
                      *. (1.0 +. abs_float rhs0 +. abs_float r.Problem.rhs))
            then
              add Error "duplicate-eq-conflict" rname
                (Printf.sprintf
                   "identical equality left-hand side as %s but rhs %g <> %g \
                    (infeasible)"
                   other r.Problem.rhs rhs0)
            else
              add Info "duplicate-row" rname
                (Printf.sprintf "duplicates %s (redundant)" other)
      end)
    rows;
  (* --- variables, in id order --- *)
  for v = 0 to nvars - 1 do
    let var = Problem.var p v in
    let vname = var.Problem.vname in
    if Float.is_nan var.Problem.lb || Float.is_nan var.Problem.ub then
      add Error "nan-bound" vname "variable bound is NaN";
    if Float.is_nan var.Problem.obj then
      add Error "nan-obj" vname "objective coefficient is NaN";
    if var.Problem.lb > var.Problem.ub then
      add Error "bound-conflict" vname
        (Printf.sprintf "lb %g > ub %g" var.Problem.lb var.Problem.ub);
    (match var.Problem.kind with
    | Problem.Binary | Problem.Integer ->
        let frac b = Fx.is_finite b && Fx.nonzero (b -. Float.round b) in
        if frac var.Problem.lb || frac var.Problem.ub then
          add Info "fractional-int-bound" vname
            (Printf.sprintf
               "integer variable with fractional bounds [%g, %g]"
               var.Problem.lb var.Problem.ub)
    | Problem.Continuous -> ());
    if nvars > 0 && not used.(v) then
      if Fx.is_zero var.Problem.obj then
        add Info "unused-var" vname
          "appears in no row and has zero objective (model bloat)"
      else if
        (var.Problem.obj < 0.0 && Fx.is_inf var.Problem.ub)
        || (var.Problem.obj > 0.0 && Fx.is_neg_inf var.Problem.lb)
      then
        add Warning "dangling-unbounded" vname
          "appears in no row and its objective pushes it to an infinite \
           bound: the LP is unbounded"
      else
        add Info "dangling-var" vname
          "appears in no row; it will simply sit at its cheaper bound"
  done;
  (* --- model-wide scaling diagnostic --- *)
  if !cmax > 0.0 && Fx.is_finite !cmin then begin
    let ratio = !cmax /. !cmin in
    if ratio > 1e10 then
      add Warning "scaling" ""
        (Printf.sprintf
           "constraint coefficients span %.2g .. %.2g (dynamic range \
            %.1e): expect loss of precision in the LU kernel"
           !cmin !cmax ratio)
    else if ratio > 1e6 then
      add Info "scaling" ""
        (Printf.sprintf
           "constraint coefficients span %.2g .. %.2g (dynamic range %.1e)"
           !cmin !cmax ratio)
  end;
  List.rev !issues

(* ------------------------------------------------------------------ *)
(* Post-solve certification                                            *)
(* ------------------------------------------------------------------ *)

type certificate = {
  cert_ok : bool;
  max_row_violation : float;
  max_bound_violation : float;
  max_integrality_violation : float;
  objective_gap : float;
  max_dual_residual : float;
  cert_issues : string list;
}

exception Certification_failed of string

(* The tolerance every certificate test runs at. *)
let tol = 1e-6

let certify ?duals ?obj ?int_vars (p : Problem.t) x =
  let nvars = Problem.nvars p in
  let rows = Problem.rows p in
  let issues = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  if Array.length x <> nvars then begin
    fail "assignment has %d entries for %d variables" (Array.length x) nvars;
    {
      cert_ok = false;
      max_row_violation = infinity;
      max_bound_violation = infinity;
      max_integrality_violation = infinity;
      objective_gap = infinity;
      max_dual_residual = 0.0;
      cert_issues = List.rev !issues;
    }
  end
  else begin
    (* primal row residuals, scaled by 1 + |rhs| *)
    let row_lhs =
      Array.map
        (fun (r : Problem.row) ->
          Array.fold_left
            (fun acc (v, c) -> acc +. (c *. x.(v)))
            0.0 r.Problem.coeffs)
        rows
    in
    let max_row = ref 0.0 and worst_row = ref "" in
    Array.iteri
      (fun i (r : Problem.row) ->
        let lhs = row_lhs.(i) in
        let viol =
          match r.Problem.sense with
          | Problem.Le -> lhs -. r.Problem.rhs
          | Problem.Ge -> r.Problem.rhs -. lhs
          | Problem.Eq -> abs_float (lhs -. r.Problem.rhs)
        in
        let scaled = viol /. (1.0 +. abs_float r.Problem.rhs) in
        if Float.is_nan lhs then begin
          fail "row %s evaluates to NaN" r.Problem.rname;
          max_row := infinity
        end
        else if scaled > !max_row then begin
          max_row := scaled;
          worst_row := r.Problem.rname
        end)
      rows;
    if !max_row > tol then
      fail "row %s violated by %.3g (scaled)" !worst_row !max_row;
    (* bound violations *)
    let max_bound = ref 0.0 and worst_var = ref "" in
    for v = 0 to nvars - 1 do
      let var = Problem.var p v in
      let viol =
        max (var.Problem.lb -. x.(v)) (x.(v) -. var.Problem.ub)
      in
      let scale =
        1.0
        +. max
             (if Fx.is_finite var.Problem.lb then abs_float var.Problem.lb
              else 0.0)
             (if Fx.is_finite var.Problem.ub then abs_float var.Problem.ub
              else 0.0)
      in
      let scaled = viol /. scale in
      if Float.is_nan x.(v) then begin
        fail "variable %s is NaN" var.Problem.vname;
        max_bound := infinity
      end
      else if scaled > !max_bound then begin
        max_bound := scaled;
        worst_var := var.Problem.vname
      end
    done;
    if !max_bound > tol then
      fail "variable %s outside its bounds by %.3g (scaled)" !worst_var
        !max_bound;
    (* integrality *)
    let int_vars =
      match int_vars with Some vs -> vs | None -> Problem.integer_vars p
    in
    let max_int = ref 0.0 and worst_int = ref "" in
    List.iter
      (fun v ->
        let f = abs_float (x.(v) -. Float.round x.(v)) in
        if f > !max_int then begin
          max_int := f;
          worst_int := (Problem.var p v).Problem.vname
        end)
      int_vars;
    if !max_int > tol then
      fail "integer variable %s is fractional by %.3g" !worst_int !max_int;
    (* objective agreement *)
    let obj_gap =
      match obj with
      | None -> 0.0
      | Some reported ->
          let recomputed = Problem.objective_value p x in
          abs_float (recomputed -. reported)
          /. (1.0 +. abs_float reported)
    in
    if obj_gap > tol then
      fail "reported objective differs from c'x + offset by %.3g (relative)"
        obj_gap;
    (* LP optimality conditions on the row duals, in the simplex's sign
       convention for a minimization (reduced cost d = c - A'y): a <= row
       has y <= 0 and a >= row y >= 0; a row with slack has y = 0; a
       variable at its lower bound has d >= 0, at its upper bound d <= 0
       and strictly between them d = 0.  Every residual is scaled by
       [1 + |c|] of its column (a row's slack has cost 0). *)
    let max_dual = ref 0.0 and worst_dual = ref "" in
    let residual name scaled =
      if scaled > !max_dual then begin
        max_dual := scaled;
        worst_dual := name
      end
    in
    (match duals with
    | Some y when Array.length y = Array.length rows ->
        let ay = Array.make (max 1 nvars) 0.0 in
        Array.iteri
          (fun i (r : Problem.row) ->
            if Fx.nonzero y.(i) then
              Array.iter
                (fun (v, c) -> ay.(v) <- ay.(v) +. (y.(i) *. c))
                r.Problem.coeffs;
            let slack =
              (r.Problem.rhs -. row_lhs.(i)) /. (1.0 +. abs_float r.Problem.rhs)
            in
            residual r.Problem.rname
              (match r.Problem.sense with
              | Problem.Le ->
                  if slack > tol then abs_float y.(i) else max 0.0 y.(i)
              | Problem.Ge ->
                  if slack < -.tol then abs_float y.(i) else max 0.0 (-.y.(i))
              | Problem.Eq -> 0.0))
          rows;
        for v = 0 to nvars - 1 do
          let var = Problem.var p v in
          let d = var.Problem.obj -. ay.(v) in
          let at_lb = x.(v) <= var.Problem.lb +. tol in
          let at_ub = x.(v) >= var.Problem.ub -. tol in
          let viol =
            match (at_lb, at_ub) with
            | true, true -> 0.0
            | true, false -> max 0.0 (-.d)
            | false, true -> max 0.0 d
            | false, false -> abs_float d
          in
          residual var.Problem.vname
            (viol /. (1.0 +. abs_float var.Problem.obj))
        done
    | Some y ->
        fail "dual vector has %d entries for %d rows" (Array.length y)
          (Array.length rows)
    | None -> ());
    if !max_dual > tol then
      fail "dual residual %.3g at %s breaks the optimality conditions"
        !max_dual !worst_dual;
    {
      cert_ok = !issues = [];
      max_row_violation = !max_row;
      max_bound_violation = !max_bound;
      max_integrality_violation = !max_int;
      objective_gap = obj_gap;
      max_dual_residual = !max_dual;
      cert_issues = List.rev !issues;
    }
  end

let certificate_summary c =
  Printf.sprintf
    "%s (row %.2e, bound %.2e, int %.2e, obj %.2e, dual %.2e)"
    (if c.cert_ok then "certified" else "REJECTED")
    c.max_row_violation c.max_bound_violation c.max_integrality_violation
    c.objective_gap c.max_dual_residual

