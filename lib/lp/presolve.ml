(* BIP/LP presolve (see the .mli for the rule list).

   The pass works on shadow bound arrays — the input problem is never
   mutated, so a caller can presolve a problem it still shares.  A round sweeps all live rows computing activity
   bounds; singleton rows degenerate to a bound update and then drop as
   redundant, so they need no special case. *)

module Fx = Runtime.Fx

(* Trace probes: single [Atomic.get] each when tracing is off. *)
let tr_rows_removed = Runtime.Trace.counter "presolve.rows_removed"
let tr_vars_removed = Runtime.Trace.counter "presolve.vars_removed"
let tr_bounds_tightened = Runtime.Trace.counter "presolve.bounds_tightened"
let tr_infeasible = Runtime.Trace.counter "presolve.infeasible"

type mapping = {
  reduced : Problem.t;
  entries : entry array;
  row_keep : int array;
  row_scale : float array;
  orig : Problem.t;
}

and entry = Kept of int | Fixed of float

type outcome = Feasible of mapping | Proved_infeasible of string

let max_rounds = 10
let fix_tol = 1e-9

exception Infeas of string

(* Scale a row when its largest coefficient is this far from 1. *)
let scale_hi = 1e4
let scale_lo = 1e-4

let run (p : Problem.t) =
  let n = Problem.nvars p in
  let m = Problem.nrows p in
  let rows = Problem.rows p in
  let lb = Array.init n (fun v -> (Problem.var p v).Problem.lb) in
  let ub = Array.init n (fun v -> (Problem.var p v).Problem.ub) in
  let is_int v =
    match (Problem.var p v).Problem.kind with
    | Problem.Binary | Problem.Integer -> true
    | Problem.Continuous -> false
  in
  let live = Array.make m true in
  let tightened = ref 0 in
  let drop ri =
    live.(ri) <- false;
    Runtime.Trace.incr tr_rows_removed
  in
  let set_ub v b =
    let b = if is_int v then floor (b +. 1e-6) else b in
    if b < ub.(v) -. 1e-7 then begin
      ub.(v) <- b;
      incr tightened
    end
  in
  let set_lb v b =
    let b = if is_int v then ceil (b -. 1e-6) else b in
    if b > lb.(v) +. 1e-7 then begin
      lb.(v) <- b;
      incr tightened
    end
  in
  let check_bounds v =
    if lb.(v) > ub.(v) +. 1e-6 then
      raise
        (Infeas
           (Printf.sprintf "variable %s: bounds cross (%g > %g)"
              (Problem.var p v).Problem.vname lb.(v) ub.(v)))
  in
  let fixed v = ub.(v) -. lb.(v) <= fix_tol in
  let fixed_value v =
    if is_int v then Float.round lb.(v) else 0.5 *. (lb.(v) +. ub.(v))
  in
  (* One tightening pass over a live row.  Returns unit; may drop the
     row, tighten bounds, or raise [Infeas]. *)
  let process_row ri (r : Problem.row) =
    (* split fixed variables into the right-hand side *)
    let rhs = ref r.Problem.rhs in
    let live_coeffs =
      Array.to_list r.Problem.coeffs
      |> List.filter (fun (v, c) ->
             if fixed v then begin
               rhs := !rhs -. (c *. fixed_value v);
               false
             end
             else true)
    in
    let rhs = !rhs in
    let ftol = 1e-6 *. (1.0 +. abs_float rhs) in
    let rtol = 1e-9 *. (1.0 +. abs_float rhs) in
    match live_coeffs with
    | [] ->
        (* empty row: consistent -> drop, else infeasible *)
        let ok =
          match r.Problem.sense with
          | Problem.Le -> 0.0 <= rhs +. ftol
          | Problem.Ge -> 0.0 >= rhs -. ftol
          | Problem.Eq -> abs_float rhs <= ftol
        in
        if ok then drop ri
        else raise (Infeas (Printf.sprintf "row %s: empty and violated" r.Problem.rname))
    | coeffs ->
        (* Activity bounds, +/- infinity tracked by counting.  The
           per-variable contributions are snapshotted here so that bound
           updates made while sweeping this row cannot skew the
           residual-activity computation below. *)
        let coeffs =
          List.map
            (fun (v, c) ->
              let lo, hi =
                if c > 0.0 then (lb.(v), ub.(v)) else (ub.(v), lb.(v))
              in
              (v, c, c *. lo, c *. hi))
            coeffs
        in
        let minact = ref 0.0 and ninf_min = ref 0 in
        let maxact = ref 0.0 and ninf_max = ref 0 in
        List.iter
          (fun (_, _, cmin, cmax) ->
            (if Fx.is_inf (abs_float cmin) then incr ninf_min
             else minact := !minact +. cmin);
            if Fx.is_inf (abs_float cmax) then incr ninf_max
            else maxact := !maxact +. cmax)
          coeffs;
        let minact_total = if !ninf_min > 0 then neg_infinity else !minact in
        let maxact_total = if !ninf_max > 0 then infinity else !maxact in
        (* infeasibility / redundancy on each enforced direction *)
        let le_dir = r.Problem.sense <> Problem.Ge in
        let ge_dir = r.Problem.sense <> Problem.Le in
        if le_dir && minact_total > rhs +. ftol then
          raise
            (Infeas
               (Printf.sprintf "row %s: minimum activity %g exceeds rhs %g"
                  r.Problem.rname minact_total rhs));
        if ge_dir && maxact_total < rhs -. ftol then
          raise
            (Infeas
               (Printf.sprintf "row %s: maximum activity %g below rhs %g"
                  r.Problem.rname maxact_total rhs));
        let le_redundant = (not le_dir) || maxact_total <= rhs +. rtol in
        let ge_redundant = (not ge_dir) || minact_total >= rhs -. rtol in
        if le_redundant && ge_redundant then drop ri
        else begin
          (* implied bounds.  For a <= row: a_j x_j <= rhs - (minact
             without j), so x_j gains an upper (a_j > 0) or lower
             (a_j < 0) bound; symmetric for >= rows via maxact. *)
          if le_dir then
            List.iter
              (fun (v, c, cmin, _) ->
                let rest =
                  if !ninf_min = 0 then !minact -. cmin
                  else if !ninf_min = 1 && Fx.is_inf (abs_float cmin) then !minact
                  else nan
                in
                if not (Float.is_nan rest) then begin
                  let bound = (rhs -. rest) /. c in
                  if c > 0.0 then set_ub v bound else set_lb v bound;
                  check_bounds v
                end)
              coeffs;
          if ge_dir then
            List.iter
              (fun (v, c, _, cmax) ->
                let rest =
                  if !ninf_max = 0 then !maxact -. cmax
                  else if !ninf_max = 1 && Fx.is_inf (abs_float cmax) then !maxact
                  else nan
                in
                if not (Float.is_nan rest) then begin
                  let bound = (rhs -. rest) /. c in
                  if c > 0.0 then set_lb v bound else set_ub v bound;
                  check_bounds v
                end)
              coeffs
        end
  in
  match
    (* --- fixpoint rounds --- *)
    (try
       (* initial integral rounding + bound sanity *)
       for v = 0 to n - 1 do
         if is_int v then begin
           let nlb = ceil (lb.(v) -. 1e-6) and nub = floor (ub.(v) +. 1e-6) in
           if nlb > lb.(v) then lb.(v) <- nlb;
           if nub < ub.(v) then ub.(v) <- nub
         end;
         check_bounds v
       done;
       let rounds = ref 0 in
       let continue_ = ref true in
       while !continue_ && !rounds < max_rounds do
         incr rounds;
         tightened := 0;
         Array.iteri (fun ri r -> if live.(ri) then process_row ri r) rows;
         Runtime.Trace.add tr_bounds_tightened !tightened;
         continue_ := !tightened > 0
       done;
       (* --- duplicate rows: normalize by the largest coefficient, with
          the sign of the first live one --- *)
       let tbl = Hashtbl.create 64 in
       Array.iteri
         (fun ri (r : Problem.row) ->
           if live.(ri) then begin
             let rhs = ref r.Problem.rhs in
             let coeffs =
               Array.to_list r.Problem.coeffs
               |> List.filter (fun (v, c) ->
                      if fixed v then begin
                        rhs := !rhs -. (c *. fixed_value v);
                        false
                      end
                      else true)
             in
             match coeffs with
             | [] -> ()
             | (_, c0) :: _ ->
                 let s =
                   List.fold_left (fun acc (_, c) -> max acc (abs_float c)) 0.0 coeffs
                 in
                 let s = if c0 < 0.0 then -.s else s in
                 let sense =
                   if s > 0.0 then r.Problem.sense
                   else
                     match r.Problem.sense with
                     | Problem.Le -> Problem.Ge
                     | Problem.Ge -> Problem.Le
                     | Problem.Eq -> Problem.Eq
                 in
                 let key = (sense, List.map (fun (v, c) -> (v, c /. s)) coeffs) in
                 let nrhs = !rhs /. s in
                 (match Hashtbl.find_opt tbl key with
                 | None -> Hashtbl.replace tbl key (ri, nrhs)
                 | Some (prev_ri, prev_rhs) -> (
                     match sense with
                     | Problem.Le ->
                         if nrhs < prev_rhs then begin
                           drop prev_ri;
                           Hashtbl.replace tbl key (ri, nrhs)
                         end
                         else drop ri
                     | Problem.Ge ->
                         if nrhs > prev_rhs then begin
                           drop prev_ri;
                           Hashtbl.replace tbl key (ri, nrhs)
                         end
                         else drop ri
                     | Problem.Eq ->
                         if abs_float (nrhs -. prev_rhs) > 1e-6 *. (1.0 +. abs_float nrhs)
                         then
                           raise
                             (Infeas
                                (Printf.sprintf
                                   "rows %s and %s: equal coefficients, conflicting rhs"
                                   (rows.(prev_ri)).Problem.rname r.Problem.rname))
                         else drop ri))
           end)
         rows;
       None
     with Infeas reason -> Some reason)
  with
  | Some reason ->
      Runtime.Trace.incr tr_infeasible;
      Proved_infeasible reason
  | None ->
      (* --- build the reduced problem --- *)
      let reduced = Problem.create () in
      let entries = Array.make (max n 1) (Fixed 0.0) in
      let offset = ref (Problem.obj_offset p) in
      for v = 0 to n - 1 do
        if fixed v then begin
          let value = fixed_value v in
          entries.(v) <- Fixed value;
          offset := !offset +. ((Problem.var p v).Problem.obj *. value);
          Runtime.Trace.incr tr_vars_removed
        end
        else begin
          let vr = Problem.var p v in
          (* bounds may cross by up to the feasibility tolerance *)
          let lo = min lb.(v) ub.(v) in
          let id =
            Problem.add_var ~kind:vr.Problem.kind ~lb:lo ~ub:ub.(v)
              ~obj:vr.Problem.obj ~name:vr.Problem.vname reduced
          in
          entries.(v) <- Kept id
        end
      done;
      Problem.add_obj_offset reduced (!offset -. Problem.obj_offset reduced);
      let row_keep = ref [] and row_scale = ref [] in
      Array.iteri
        (fun ri (r : Problem.row) ->
          if live.(ri) then begin
            let rhs = ref r.Problem.rhs in
            let coeffs =
              Array.to_list r.Problem.coeffs
              |> List.filter_map (fun (v, c) ->
                     match entries.(v) with
                     | Fixed value ->
                         rhs := !rhs -. (c *. value);
                         None
                     | Kept id -> Some (id, c))
            in
            if coeffs <> [] then begin
              let mag =
                List.fold_left (fun acc (_, c) -> max acc (abs_float c)) 0.0 coeffs
              in
              let s = if mag > scale_hi || mag < scale_lo then mag else 1.0 in
              ignore
                (Problem.add_row ~name:r.Problem.rname reduced
                   (List.map (fun (v, c) -> (v, c /. s)) coeffs)
                   r.Problem.sense (!rhs /. s));
              row_keep := ri :: !row_keep;
              row_scale := s :: !row_scale
            end
            else
              (* became empty through fixing after the last round;
                 feasibility was checked while tightening *)
              Runtime.Trace.incr tr_rows_removed
          end)
        rows;
      Feasible
        {
          reduced;
          entries;
          row_keep = Array.of_list (List.rev !row_keep);
          row_scale = Array.of_list (List.rev !row_scale);
          orig = p;
        }

let restore_x map xr =
  Array.init (Problem.nvars map.orig) (fun v ->
      match map.entries.(v) with Fixed value -> value | Kept k -> xr.(k))

let restore_duals map yr =
  let y = Array.make (Problem.nrows map.orig) 0.0 in
  Array.iteri
    (fun i ri -> y.(ri) <- yr.(i) /. map.row_scale.(i))
    map.row_keep;
  y

let solve ?max_iters (p : Problem.t) =
  match run p with
  | Proved_infeasible _ ->
      {
        Simplex.status = Simplex.Infeasible;
        x = Array.make (Problem.nvars p) 0.;
        obj = 0.;
        duals = Array.make (Problem.nrows p) 0.;
        iterations = 0;
      }
  | Feasible map ->
      let r = Simplex.solve ?max_iters ~basis:Simplex.Sparse map.reduced in
      (* Lift the kernel's iterate back to the original space for every
         status: restore is status-agnostic, and a non-Optimal result
         (notably Iter_limit) must carry the real partial solution and
         its real objective, not a fabricated zero vector — callers
         like {!Branch_bound} would mistake all-zeros for an integral
         point and 0 for a bound. *)
      let x = restore_x map r.Simplex.x in
      let duals = restore_duals map r.Simplex.duals in
      (* Recompute c'x in the original space: the reduced problem
         carries fixed-variable contributions as an offset, which the
         kernel's [obj] excludes. *)
      let obj = ref 0. in
      Array.iteri
        (fun v xv -> obj := !obj +. ((Problem.var p v).Problem.obj *. xv))
        x;
      { r with Simplex.x; duals; obj = !obj }
