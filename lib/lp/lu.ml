(* Sparse LU factorization with Markowitz pivoting.

   Right-looking elimination over hash-table rows: at step k the pivot
   (i, j) minimizes the Markowitz count (r_i - 1)(c_j - 1) among entries
   with |a_ij| >= tau * max|column j| (threshold partial pivoting,
   tau = 0.1).  The column search is bounded to the few sparsest active
   columns — the classical compromise between fill-in quality and search
   cost.  Ties break on larger magnitude, then smallest (column, row), so
   a given matrix always factors the same way.

   The factors record the pivot order:  P B Q = L U  with L unit lower
   triangular and U upper triangular in permuted coordinates, where P is
   the row (pr) and Q the basis-position (pc) pivot sequence. *)

module Fx = Runtime.Fx

type t = {
  m : int;
  pr : int array;                      (* step -> original row *)
  pc : int array;                      (* step -> basis position *)
  rpos : int array;                    (* original row -> step *)
  diag : float array;                  (* U diagonal, by step *)
  urow : (int * float) array array;    (* U row per step: (step', coeff), step' > step *)
  lcol : (int * float) array array;    (* L column per step: (orig row, coeff) *)
  work : float array;                  (* scratch for solves *)
  nnz : int;
}

exception Singular of int

let nnz t = t.nnz

(* Entries smaller than this created by elimination updates are dropped
   (pure fill noise; original coefficients are never dropped). *)
let drop_tol = 1e-12
let threshold = 0.1
let search_cols = 12

let factor ~m ~(cols : (int * float) array array) ~(basis : int array) =
  (* Active matrix: rows.(i) maps basis position -> value; colrows.(j) is
     the set of rows with a nonzero in position j.  Hashtbl.length is
     O(1), so row/column counts need no separate bookkeeping. *)
  let rows = Array.init m (fun _ -> Hashtbl.create 8) in
  let colrows = Array.init m (fun _ -> Hashtbl.create 8) in
  for k = 0 to m - 1 do
    Array.iter
      (fun (i, a) ->
        if Fx.nonzero a then begin
          Hashtbl.replace rows.(i) k a;
          Hashtbl.replace colrows.(k) i ()
        end)
      cols.(basis.(k))
  done;
  let col_active = Array.make m true in
  let pr = Array.make m 0 and pc = Array.make m 0 in
  let rpos = Array.make m 0 in
  let diag = Array.make m 0.0 in
  let urow = Array.make m [||] and lcol = Array.make m [||] in
  let nnz = ref 0 in
  (* A column's rows in deterministic (sorted) order. *)
  let sorted_rows tbl = Runtime.Tbl.sorted_keys tbl in
  (* [rows] and [colrows] are maintained as exact mirrors, so a lookup
     along the mirror is always a hit; a miss would be a broken
     invariant, not a catchable condition. *)
  let get tbl k =
    match Hashtbl.find_opt tbl k with Some v -> v | None -> assert false
  in
  for step = 0 to m - 1 do
    (* --- pivot search: bounded Markowitz --- *)
    let minc = ref max_int in
    for j = 0 to m - 1 do
      if col_active.(j) then begin
        let c = Hashtbl.length colrows.(j) in
        if c < !minc then minc := c
      end
    done;
    if !minc = 0 || !minc = max_int then raise (Singular step);
    let best_cost = ref max_int in
    let best_mag = ref 0.0 in
    let best_i = ref (-1) and best_j = ref (-1) in
    let examined = ref 0 in
    let j = ref 0 in
    while !examined < search_cols && !j < m do
      if col_active.(!j) && Hashtbl.length colrows.(!j) <= !minc + 2 then begin
        incr examined;
        let entries = sorted_rows colrows.(!j) in
        let colmax =
          List.fold_left
            (fun acc i -> max acc (abs_float (get rows.(i) !j)))
            0.0 entries
        in
        if colmax > 0.0 then begin
          let cj = Hashtbl.length colrows.(!j) in
          List.iter
            (fun i ->
              let a = abs_float (get rows.(i) !j) in
              if a >= threshold *. colmax then begin
                let cost = (Hashtbl.length rows.(i) - 1) * (cj - 1) in
                if
                  cost < !best_cost
                  || (cost = !best_cost && a > !best_mag +. 1e-300)
                then begin
                  best_cost := cost;
                  best_mag := a;
                  best_i := i;
                  best_j := !j
                end
              end)
            entries
        end
      end;
      incr j
    done;
    if !best_i < 0 then raise (Singular step);
    let p_r = !best_i and p_c = !best_j in
    let piv = get rows.(p_r) p_c in
    pr.(step) <- p_r;
    pc.(step) <- p_c;
    rpos.(p_r) <- step;
    diag.(step) <- piv;
    (* --- retire the pivot row and column --- *)
    col_active.(p_c) <- false;
    let urow_entries =
      Runtime.Tbl.sorted_bindings rows.(p_r)
      |> List.filter (fun (cj, _) -> cj <> p_c)
    in
    ((Hashtbl.iter
     [@lint.allow
       hashtbl_order
         "removals target disjoint per-column tables and commute, so visit \
          order cannot matter"])
       (fun cj _ -> Hashtbl.remove colrows.(cj) p_r)
       rows.(p_r)
    [@dsa.allow nondet
      "removals target disjoint per-column tables and commute"]);
    (* urow stores original basis positions for now; remapped to steps
       after every column has been eliminated. *)
    urow.(step) <- Array.of_list urow_entries;
    nnz := !nnz + 1 + Array.length urow.(step);
    (* --- eliminate below the pivot --- *)
    let elim = sorted_rows colrows.(p_c) in
    Hashtbl.reset colrows.(p_c);
    let lentries =
      List.map
        (fun i ->
          let l = get rows.(i) p_c /. piv in
          Hashtbl.remove rows.(i) p_c;
          List.iter
            (fun (cj, uv) ->
              let prev = Hashtbl.find_opt rows.(i) cj in
              let nv = Option.value ~default:0.0 prev -. (l *. uv) in
              if abs_float nv <= drop_tol then begin
                if prev <> None then begin
                  Hashtbl.remove rows.(i) cj;
                  Hashtbl.remove colrows.(cj) i
                end
              end
              else begin
                Hashtbl.replace rows.(i) cj nv;
                if prev = None then Hashtbl.replace colrows.(cj) i ()
              end)
            urow_entries;
          (i, l))
        elim
    in
    lcol.(step) <- Array.of_list lentries;
    nnz := !nnz + Array.length lcol.(step);
    Hashtbl.reset rows.(p_r)
  done;
  (* Remap U column indices from basis positions to elimination steps. *)
  let cpos = Array.make m 0 in
  for k = 0 to m - 1 do
    cpos.(pc.(k)) <- k
  done;
  Array.iteri
    (fun k entries ->
      let remapped = Array.map (fun (cj, v) -> (cpos.(cj), v)) entries in
      Array.sort compare remapped;
      urow.(k) <- remapped)
    urow;
  { m; pr; pc; rpos; diag; urow; lcol; work = Array.make m 0.0; nnz = !nnz }

(* B w = b:  forward through L (with the row permutation), back through
   U, scatter through the column permutation. *)
let solve t b =
  let u = t.work in
  for k = 0 to t.m - 1 do
    let vk = b.(t.pr.(k)) in
    u.(k) <- vk;
    if Fx.nonzero vk then
      Array.iter
        (fun (i, l) -> b.(i) <- b.(i) -. (l *. vk))
        t.lcol.(k)
  done;
  for k = t.m - 1 downto 0 do
    let acc = ref u.(k) in
    Array.iter (fun (j, uv) -> acc := !acc -. (uv *. u.(j))) t.urow.(k);
    u.(k) <- !acc /. t.diag.(k)
  done;
  for k = 0 to t.m - 1 do
    b.(t.pc.(k)) <- u.(k)
  done

(* B' y = c:  forward through U', back through L' (push form over the
   row-stored factors). *)
let solve_transpose t c =
  let u = t.work in
  for k = 0 to t.m - 1 do
    u.(k) <- c.(t.pc.(k))
  done;
  for k = 0 to t.m - 1 do
    let tk = u.(k) /. t.diag.(k) in
    u.(k) <- tk;
    if Fx.nonzero tk then
      Array.iter (fun (j, uv) -> u.(j) <- u.(j) -. (uv *. tk)) t.urow.(k)
  done;
  for k = t.m - 1 downto 0 do
    let acc = ref u.(k) in
    Array.iter
      (fun (i, l) -> acc := !acc -. (l *. u.(t.rpos.(i))))
      t.lcol.(k);
    u.(k) <- !acc
  done;
  for k = 0 to t.m - 1 do
    c.(t.pr.(k)) <- u.(k)
  done
