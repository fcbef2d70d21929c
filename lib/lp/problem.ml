(* Linear / binary-integer program builder.  Minimization form:

     minimize    c'x
     subject to  a_i x {<=,=,>=} b_i      for each row i
                 l <= x <= u
                 x_j binary / integer for marked variables

   Rows store their coefficients sparsely. *)

type var_kind = Continuous | Binary | Integer
type sense = Le | Ge | Eq

type var = {
  mutable obj : float;
  mutable lb : float;
  mutable ub : float;
  kind : var_kind;
  vname : string;
}

type row = {
  coeffs : (int * float) array;  (* sorted by variable id, deduplicated *)
  sense : sense;
  rhs : float;
  rname : string;
}

type t = {
  mutable vars : var array;
  mutable nvars : int;
  mutable rows : row list;      (* reversed during building *)
  mutable nrows : int;
  mutable frozen_rows : row array option;
  mutable obj_offset : float;   (* constant term in the objective *)
}

let create () =
  { vars = [||]; nvars = 0; rows = []; nrows = 0; frozen_rows = None;
    obj_offset = 0.0 }

let nvars t = t.nvars
let nrows t = t.nrows

let grow t =
  let cap = Array.length t.vars in
  if t.nvars >= cap then begin
    let bigger =
      Array.make (max 16 (2 * cap))
        { obj = 0.0; lb = 0.0; ub = 0.0; kind = Continuous; vname = "" }
    in
    Array.blit t.vars 0 bigger 0 t.nvars;
    t.vars <- bigger
  end

let add_var ?(kind = Continuous) ?(lb = 0.0) ?(ub = infinity) ?(obj = 0.0)
    ?(name = "") t =
  let lb, ub = match kind with Binary -> (max lb 0.0, min ub 1.0) | _ -> (lb, ub) in
  if lb > ub then invalid_arg "Problem.add_var: lb > ub";
  grow t;
  let id = t.nvars in
  let vname = if name = "" then Printf.sprintf "x%d" id else name in
  t.vars.(id) <- { obj; lb; ub; kind; vname };
  t.nvars <- id + 1;
  id

let clean_coeffs t coeffs =
  let tbl = Hashtbl.create (List.length coeffs) in
  List.iter
    (fun (v, c) ->
      if v < 0 || v >= t.nvars then invalid_arg "Problem.add_row: bad variable";
      Hashtbl.replace tbl v (c +. Option.value ~default:0.0 (Hashtbl.find_opt tbl v)))
    coeffs;
  (* Sorted extraction keeps the row's coefficient order independent of
     hash order (lint rule L2). *)
  Runtime.Tbl.sorted_bindings tbl
  |> List.filter (fun (_, c) -> abs_float c > 1e-12)
  |> Array.of_list

let add_row ?(name = "") t coeffs sense rhs =
  let coeffs = clean_coeffs t coeffs in
  let id = t.nrows in
  let rname = if name = "" then Printf.sprintf "r%d" id else name in
  t.rows <- { coeffs; sense; rhs; rname } :: t.rows;
  t.nrows <- id + 1;
  t.frozen_rows <- None;
  id

let set_obj t v c =
  if v < 0 || v >= t.nvars then invalid_arg "Problem.set_obj";
  t.vars.(v).obj <- c

let add_obj_offset t c = t.obj_offset <- t.obj_offset +. c
let obj_offset t = t.obj_offset

let set_bounds t v ~lb ~ub =
  if v < 0 || v >= t.nvars then invalid_arg "Problem.set_bounds";
  t.vars.(v).lb <- lb;
  t.vars.(v).ub <- ub

let var t v = t.vars.(v)

let rows t =
  match t.frozen_rows with
  | Some r -> r
  | None ->
      let r = Array.of_list (List.rev t.rows) in
      t.frozen_rows <- Some r;
      r

let row t i = (rows t).(i)

let integer_vars t =
  let acc = ref [] in
  for v = t.nvars - 1 downto 0 do
    match t.vars.(v).kind with
    | Binary | Integer -> acc := v :: !acc
    | Continuous -> ()
  done;
  !acc

(* Objective value of an assignment. *)
let objective_value t x =
  let acc = ref t.obj_offset in
  for v = 0 to t.nvars - 1 do
    acc := !acc +. (t.vars.(v).obj *. x.(v))
  done;
  !acc

(* Constraint satisfaction of an assignment, within [tol]. *)
let feasible ?(tol = 1e-6) t x =
  let ok_row (r : row) =
    let lhs = Array.fold_left (fun acc (v, c) -> acc +. (c *. x.(v))) 0.0 r.coeffs in
    match r.sense with
    | Le -> lhs <= r.rhs +. tol
    | Ge -> lhs >= r.rhs -. tol
    | Eq -> abs_float (lhs -. r.rhs) <= tol
  in
  let ok_var v (vr : var) = x.(v) >= vr.lb -. tol && x.(v) <= vr.ub +. tol in
  let rec vars_ok v = v >= t.nvars || (ok_var v t.vars.(v) && vars_ok (v + 1)) in
  vars_ok 0 && Array.for_all ok_row (rows t)
