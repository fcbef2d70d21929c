(* The structured form of the CoPhy BIP (Theorem 1).

   For each statement (block) and each INUM template we store the internal
   cost beta and, per slot, the list of admissible (candidate, gamma)
   choices — already pruned losslessly: a candidate is dropped from a slot
   when its gamma is infinite (order-incompatible) or no better than the
   no-index gamma.  The z variables, sizes, and update-maintenance costs
   complete the program.

   [Solver]'s Lagrangian decomposition, the one solver, exploits the
   block structure directly; [to_lp] materializes the explicit BIP of Theorem 1 for the
   generic simplex + branch-and-bound solver, which serves as a
   reference. *)

type slot_choice = { cand : int; gamma : float }  (* cand = -1: no index *)

type template = {
  beta : float;
  (* one entry per referenced table: admissible choices, no-index first *)
  choices : slot_choice array array;
}

type block = {
  qid : int;
  weight : float;
  templates : template array;
  (* candidate positions appearing anywhere in this block, sorted *)
  cands_used : int array;
}

type t = {
  schema : Catalog.Schema.t;
  candidates : Storage.Index.t array;
  sizes : float array;                (* bytes *)
  ucost : float array;                (* weighted maintenance cost, per candidate *)
  fixed : float;                      (* weighted base-update cost sum *)
  (* certified INUM probe regret: the objective surface encoded by the
     blocks sits above the exhaustive-probing surface by at most this
     much, at any selection (weighted Inum.cache_regret at build time) *)
  probe_regret : float;
  blocks : block array;
  (* candidate position -> blocks that reference it *)
  cand_blocks : int array array;
}

let num_candidates t = Array.length t.candidates
let num_blocks t = Array.length t.blocks

(* Total number of (y, x, z) variables the materialized BIP would have —
   the paper's measure of BIP compactness. *)
let variable_count t =
  let yx =
    Array.fold_left
      (fun acc b ->
        Array.fold_left
          (fun acc tpl ->
            Array.fold_left (fun acc slot -> acc + Array.length slot) (acc + 1)
              tpl.choices)
          acc b.templates)
      0 t.blocks
  in
  yx + Array.length t.candidates

(* --- Construction --- *)

(* The access paths of one slot table of an INUM entry's statement: the
   (statement, table) context, the no-index access, and one access per
   candidate on the table, by descending position — the order
   [table_cands] lists them in. *)
type slot_paths = {
  ctx : Optimizer.Access.context;
  scan : Optimizer.Access.access;
  accs : (int * Optimizer.Access.access) list;
}

(* One INUM entry as a build priced it: its slot tables' paths ([None]
   until one of its templates is priced), each template's priced form,
   by INUM template (physical identity), and the block arrays the build
   gave every statement that resolves to the entry. *)
type entry = {
  paths : slot_paths array option;
  priced : (Inum.template * template) list;
  tpls : template array;
  used : int array;
}

(* The pricing memo: INUM entry id -> the entry as the last build priced
   it.  [env] and [seen] are that build's environment and candidate
   array: every path and template was priced against [seen].  A build
   under another environment, or over an array that does not extend
   [seen] position by position, reuses nothing. *)
type prices = {
  mutable env : Optimizer.Whatif.env option;
  mutable seen : Storage.Index.t array;
  mutable memo : (int, entry) Hashtbl.t;
}

let prices () = { env = None; seen = [||]; memo = Hashtbl.create 1 }

let tr_priced = Runtime.Trace.counter "sproblem.templates_priced"
let tr_reused = Runtime.Trace.counter "sproblem.templates_reused"

(* [old] is a physical prefix of [cands]: every position priced against
   [old] still names the same candidate. *)
let extends old cands =
  let n = Array.length old in
  let rec same i = i >= n || (old.(i) == cands.(i) && same (i + 1)) in
  n <= Array.length cands && same 0

(* The memo a build under [env] over [candidates] may reuse, with the
   candidate count it was priced against. *)
let reusable p env candidates =
  match p.env with
  | Some e when e == env && extends p.seen candidates ->
      (p.memo, Array.length p.seen)
  | _ -> (Hashtbl.create 1, 0)

(* [prune = false] disables the lossless slot-level dominance pruning, for
   ablation: every finite-gamma candidate is kept in every slot. *)
let build ?prices ?(prune = true) (env : Optimizer.Whatif.env)
    (cache : Inum.workload_cache) (candidates : Storage.Index.t array) =
  let schema = env.Optimizer.Whatif.schema in
  let params = env.Optimizer.Whatif.params in
  let ncand = Array.length candidates in
  (* candidate positions per table, descending *)
  let by_table = Hashtbl.create 16 in
  Array.iteri
    (fun pos ix ->
      let tb = Storage.Index.table ix in
      Hashtbl.replace by_table tb
        (pos :: Option.value ~default:[] (Hashtbl.find_opt by_table tb)))
    candidates;
  let table_cands tb = Option.value ~default:[] (Hashtbl.find_opt by_table tb) in
  (* Each candidate's costing facts, derived on first use. *)
  let indexes = Array.make ncand None in
  let index pos =
    match indexes.(pos) with
    | Some ix -> ix
    | None ->
        let ix = Optimizer.Access.index schema candidates.(pos) in
        indexes.(pos) <- Some ix;
        ix
  in
  let memo, count =
    match prices with
    | Some p when prune -> reusable p env candidates
    | _ -> (Hashtbl.create 1, 0)
  in
  (* The leading entries of a descending position list that were
     appended since the memo was priced: they come first. *)
  let rec appended pos_of = function
    | x :: rest when pos_of x >= count -> x :: appended pos_of rest
    | _ -> []
  in
  (* The paths of [table] for the statement [q]: [old]'s, with the
     candidates appended since in front, or all of them afresh. *)
  let slot_paths q table old =
    let add ctx positions =
      List.map
        (fun pos -> (pos, Optimizer.Access.access ctx (Some (index pos))))
        positions
    in
    match old with
    | Some sp -> (
        match appended Fun.id (table_cands table) with
        | [] -> sp
        | fresh -> { sp with accs = add sp.ctx fresh @ sp.accs })
    | None ->
        let ctx = Optimizer.Access.context params schema q table in
        {
          ctx;
          scan = Optimizer.Access.access ctx None;
          accs = add ctx (table_cands table);
        }
  in
  (* The admissible choices among [accs] for one slot, in the order
     given. *)
  let fill sp req g0 accs =
    List.filter_map
      (fun (pos, a) ->
        match Optimizer.Access.fill_cost sp.ctx a req with
        | Some g when (not prune) || g < g0 -. 1e-9 ->
            Some { cand = pos; gamma = g }
        | _ -> None)
      accs
  in
  (* Template [tpl] priced over the slot paths [paths]. *)
  let price paths (tpl : Inum.template) =
    let choices =
      Array.mapi
        (fun ti sp ->
          let req = tpl.Inum.slot_reqs.(ti) in
          let g0 =
            match Optimizer.Access.fill_cost sp.ctx sp.scan req with
            | Some c -> c
            | None -> infinity
          in
          Array.of_list ({ cand = -1; gamma = g0 } :: fill sp req g0 sp.accs))
        paths
    in
    { beta = tpl.Inum.beta; choices }
  in
  (* [old] extended by the candidates appended since it was priced.
     They lead the descending accesses, so they go right after the
     no-index choice, where [price] puts them.  A slot that gains no
     choice keeps its array, and a template that gains none stays
     physical.  Also returns whether any candidate was priced. *)
  let extend paths (tpl : Inum.template) old =
    let priced = ref false and grew = ref false in
    let choices =
      Array.mapi
        (fun ti sp ->
          let slot = old.choices.(ti) in
          match appended fst sp.accs with
          | [] -> slot
          | fresh -> (
              priced := true;
              match fill sp tpl.Inum.slot_reqs.(ti) slot.(0).gamma fresh with
              | [] -> slot
              | added ->
                  grew := true;
                  Array.concat
                    [ Array.sub slot 0 1; Array.of_list added;
                      Array.sub slot 1 (Array.length slot - 1) ]))
        paths
    in
    ((if !grew then { old with choices } else old), !priced)
  in
  let next = Hashtbl.create 64 in
  (* INUM entry [inum] priced on its own statement: each template comes
     from the memo's entry [known] when it holds it, extended by any
     candidates appended since, and is priced afresh otherwise.  The slot
     paths are made (or extended) only when a template needs them. *)
  let price_entry inum known =
    let q = Inum.query inum in
    let tables = Inum.tables inum in
    let known_priced, known_paths =
      match known with Some e -> (e.priced, e.paths) | None -> ([], None)
    in
    let paths = ref None in
    let get_paths () =
      match !paths with
      | Some p -> p
      | None ->
          let p =
            Array.of_list
              (List.mapi
                 (fun ti table ->
                   slot_paths q table (Option.map (fun a -> a.(ti)) known_paths))
                 tables)
          in
          paths := Some p;
          p
    in
    let priced =
      List.map
        (fun tpl ->
          let tpl', fresh =
            match List.assq_opt tpl known_priced with
            | Some old when count = ncand -> (old, false)
            | Some old -> extend (get_paths ()) tpl old
            | None -> (price (get_paths ()) tpl, true)
          in
          Runtime.Trace.incr (if fresh then tr_priced else tr_reused);
          (tpl, tpl'))
        (Inum.templates inum)
    in
    let templates = Array.of_list (List.map snd priced) in
    let used = Hashtbl.create 16 in
    Array.iter
      (fun t ->
        Array.iter
          (Array.iter (fun c -> if c.cand >= 0 then Hashtbl.replace used c.cand ()))
          t.choices)
      templates;
    {
      (* Paths no template needed stay only while no candidate was
         appended, so what the memo keeps is priced against [seen]. *)
      paths =
        (match !paths with
        | Some _ as p -> p
        | None -> if count = ncand then known_paths else None);
      priced;
      tpls = templates;
      used = Runtime.Tbl.sorted_keys used |> Array.of_list;
    }
  in
  (* Statements that resolve to one INUM entry get the same block
     arrays, priced once on the entry's statement and shared physically:
     the BIP prices the surface [Inum.cost] evaluates, whatever clause
     order a statement was written in. *)
  let blocks =
    List.map
      (fun (q, weight, inum) ->
        let id = Inum.id inum in
        let e =
          match Hashtbl.find_opt next id with
          | Some e -> e
          | None ->
              let e = price_entry inum (Hashtbl.find_opt memo id) in
              Hashtbl.replace next id e;
              e
        in
        {
          qid = q.Sqlast.Ast.query_id;
          weight;
          templates = e.tpls;
          cands_used = e.used;
        })
      cache.Inum.selects
    |> Array.of_list
  in
  (* Keep only what this build used: the memo never outgrows the
     problem it just built. *)
  (match prices with
  | Some p when prune ->
      p.env <- Some env;
      p.seen <- candidates;
      p.memo <- next
  | _ -> ());
  let sizes = Array.map (fun ix -> Storage.Index.size_bytes schema ix) candidates in
  let ucost = Array.make ncand 0.0 in
  let fixed = ref 0.0 in
  List.iter
    (fun (u, weight) ->
      fixed := !fixed +. (weight *. Optimizer.Whatif.update_base_cost env u);
      Array.iteri
        (fun pos ix ->
          let c = Optimizer.Whatif.update_cost env u ix in
          if c > 0.0 then ucost.(pos) <- ucost.(pos) +. (weight *. c))
        candidates)
    cache.Inum.updates;
  let cand_blocks = Array.make ncand [] in
  Array.iteri
    (fun bi b ->
      Array.iter (fun pos -> cand_blocks.(pos) <- bi :: cand_blocks.(pos)) b.cands_used)
    blocks;
  {
    schema;
    candidates;
    sizes;
    ucost;
    fixed = !fixed;
    probe_regret = Inum.cache_regret cache;
    blocks;
    cand_blocks = Array.map (fun l -> Array.of_list (List.rev l)) cand_blocks;
  }

(* --- Workload compression --- *)

(* Statements with identical cost structure (same templates, same
   candidate slots) are interchangeable in the BIP: any selection costs
   them the same, so a group contributes [sum of weights * cost].  Merge
   each group into its first member with the summed weight, and say for
   each input block which output block it went into.  Keys are
   marshalled bytes without sharing: equal content gives equal bytes
   (floats by their bits) however the values are shared in memory — a
   build shares boxed gammas between choices, and a rebuild shares
   memoized slot arrays, in patterns that differ between equal blocks.
   Identical blocks come from identical computations, so float equality
   is bit-exact here.  A build shares its block arrays physically
   between statements of one entry, so the key is marshalled
   and looked up once per physical pair, which remembers its group. *)
let compress t =
  let tbl = Hashtbl.create 97 in
  let order = ref [] in
  let count = ref 0 in
  let pairs = ref [] in
  let group_of b =
    match List.assq_opt b.templates !pairs with
    | Some (used, g) when used == b.cands_used -> g
    | _ ->
        let key =
          Marshal.to_string (b.templates, b.cands_used) [ Marshal.No_sharing ]
        in
        let g =
          match Hashtbl.find_opt tbl key with
          | Some g -> g
          | None ->
              let g = (!count, ref None) in
              Hashtbl.replace tbl key g;
              incr count;
              g
        in
        pairs := (b.templates, (b.cands_used, g)) :: !pairs;
        g
  in
  let group =
    Array.map
      (fun b ->
        let gi, cell = group_of b in
        (match !cell with
        | Some c -> c := { !c with weight = !c.weight +. b.weight }
        | None ->
            let c = ref b in
            cell := Some c;
            order := c :: !order);
        gi)
      t.blocks
  in
  let blocks = Array.of_list (List.rev_map (fun c -> !c) !order) in
  let cand_blocks = Array.make (Array.length t.candidates) [] in
  Array.iteri
    (fun bi b ->
      Array.iter
        (fun pos -> cand_blocks.(pos) <- bi :: cand_blocks.(pos))
        b.cands_used)
    blocks;
  ( {
      t with
      blocks;
      cand_blocks = Array.map (fun l -> Array.of_list (List.rev l)) cand_blocks;
    },
    group )

(* --- Evaluation --- *)

(* Query-cost part of one block under selection [z] (1 = selected).
   Both cost kernels are [for] loops over local refs, with no calls in
   the loop nest: a float ref captured by an iterator's closure, or a
   float returned from a call, is boxed. *)
let block_cost_z (b : block) (z : bool array) =
  let best = ref infinity in
  let templates = b.templates in
  for k = 0 to Array.length templates - 1 do
    let tpl = templates.(k) in
    let total = ref tpl.beta in
    let choices = tpl.choices in
    for s = 0 to Array.length choices - 1 do
      let slot = choices.(s) in
      let m = ref infinity in
      for i = 0 to Array.length slot - 1 do
        let { cand; gamma } = slot.(i) in
        if (cand < 0 || z.(cand)) && gamma < !m then m := gamma
      done;
      total := !total +. !m
    done;
    if !total < !best then best := !total
  done;
  !best

(* A block's slot minima under a selection [z], by template [k] and
   slot [s] at [off + s] ([off]: the slot count of the templates before
   [k]): [smin] is the slot minimum and [sarg] the candidate of its first
   argmin ([-1]: the no-index choice, or no admissible choice).  [tcost]
   is [block_cost_z b z] and [tpicks] the candidates its first
   minimizing assignment picks: the first template attaining the
   minimum and, in each of its slots, the first choice attaining the
   slot minimum.  The same float operations in the same order as
   [block_cost_z], so the cost is bit-identical. *)
type minima = {
  smin : float array;
  sarg : int array;
  tcost : float;
  tpicks : int list;
}

let slot_minima (b : block) (z : bool array) =
  let templates = b.templates in
  let nslots = ref 0 in
  for k = 0 to Array.length templates - 1 do
    nslots := !nslots + Array.length templates.(k).choices
  done;
  let smin = Array.make !nslots infinity and sarg = Array.make !nslots (-1) in
  let best = ref infinity and picks = ref [] in
  let off = ref 0 in
  for k = 0 to Array.length templates - 1 do
    let tpl = templates.(k) in
    let total = ref tpl.beta and tpl_picks = ref [] in
    let choices = tpl.choices in
    for s = 0 to Array.length choices - 1 do
      let slot = choices.(s) in
      let m = ref infinity and pick = ref (-1) in
      for i = 0 to Array.length slot - 1 do
        let { cand; gamma } = slot.(i) in
        if (cand < 0 || z.(cand)) && gamma < !m then begin
          m := gamma;
          pick := cand
        end
      done;
      smin.(!off + s) <- !m;
      sarg.(!off + s) <- !pick;
      total := !total +. !m;
      if !pick >= 0 then tpl_picks := !pick :: !tpl_picks
    done;
    off := !off + Array.length choices;
    if !total < !best then begin
      best := !total;
      picks := !tpl_picks
    end
  done;
  { smin; sarg; tcost = !best; tpicks = !picks }

let block_cost_picks (b : block) (z : bool array) =
  let m = slot_minima b z in
  (m.tcost, m.tpicks)

(* The objective from per-block query costs [costs] (as [block_cost_z]
   gives them under [z]): weighted costs, then maintenance, onto the
   fixed update costs, as one left-to-right float sum. *)
let eval_costs t (z : bool array) (costs : float array) =
  let acc = ref t.fixed in
  for bi = 0 to Array.length costs - 1 do
    acc := !acc +. (t.blocks.(bi).weight *. costs.(bi))
  done;
  for pos = 0 to Array.length t.ucost - 1 do
    if z.(pos) then acc := !acc +. t.ucost.(pos)
  done;
  !acc

(* Full objective of a selection: weighted query costs + maintenance +
   fixed update costs. *)
let[@bound.certifier objective
     "computes the true objective of a concrete configuration from the \
      cost model itself; the result is exact no matter how heuristic \
      the candidate's origin"] eval ?(jobs = 1) t (z : bool array) =
  (* Per-block costs are independent; the reduction stays a fixed
     left-to-right float sum so the result is identical at every job
     count. *)
  eval_costs t z (Runtime.parallel_map ~jobs (fun b -> block_cost_z b z) t.blocks)

let total_size t (z : bool array) =
  let acc = ref 0.0 in
  for pos = 0 to Array.length t.sizes - 1 do
    if z.(pos) then acc := !acc +. t.sizes.(pos)
  done;
  !acc

let config_of t (z : bool array) =
  let acc = ref [] in
  Array.iteri (fun pos ix -> if z.(pos) then acc := ix :: !acc) t.candidates;
  Storage.Config.of_list !acc

let z_of_config t config =
  Array.map (fun ix -> Storage.Config.mem ix config) t.candidates

(* --- Materialization as an explicit BIP (Theorem 1) --- *)

type lp_vars = {
  z_var : int array;                       (* candidate position -> z var *)
  y_var : (int * int, int) Hashtbl.t;      (* (block, template) -> y var *)
  x_var : (int * int * int * int, int) Hashtbl.t;
      (* (block, template, slot, choice) -> x var *)
}

(* Build the explicit BIP: continuous relaxation is obtained by the caller
   via Branch_bound / Simplex.  Extra z-rows (constraints from the
   language) and the storage budget are appended when given. *)
let to_lp ?(budget = infinity) ?(z_rows = []) t =
  let p = Lp.Problem.create () in
  let ncand = Array.length t.candidates in
  let z_var =
    Array.init ncand (fun pos ->
        Lp.Problem.add_var ~kind:Lp.Problem.Binary ~obj:t.ucost.(pos)
          ~name:(Printf.sprintf "z_%d" pos) p)
  in
  let y_var = Hashtbl.create 256 in
  let x_var = Hashtbl.create 1024 in
  Lp.Problem.add_obj_offset p t.fixed;
  Array.iteri
    (fun bi b ->
      let y_ids =
        Array.mapi
          (fun k tpl ->
            let y =
              Lp.Problem.add_var ~kind:Lp.Problem.Binary
                ~obj:(b.weight *. tpl.beta)
                ~name:(Printf.sprintf "y_%d_%d" bi k)
                p
            in
            Hashtbl.replace y_var (bi, k) y;
            y)
          b.templates
      in
      (* sum_k y = 1 *)
      ignore
        (Lp.Problem.add_row
           ~name:(Printf.sprintf "one_tpl_%d" bi)
           p
           (Array.to_list (Array.map (fun y -> (y, 1.0)) y_ids))
           Lp.Problem.Eq 1.0);
      (* Linking rows are aggregated per (block, candidate):
           sum over all x of this block using candidate a  <=  z_a.
         Valid because sum_k y_qk = 1 makes at most one such x equal 1 in
         any integral solution, and *tighter* than per-variable x <= z
         rows in the LP relaxation (fractional template mixtures must pay
         for their full combined usage). *)
      let links = Hashtbl.create 32 in
      Array.iteri
        (fun k tpl ->
          Array.iteri
            (fun si slot ->
              let xs =
                Array.mapi
                  (fun ci { cand; gamma } ->
                    let x =
                      Lp.Problem.add_var ~kind:Lp.Problem.Binary
                        ~obj:(b.weight *. gamma)
                        ~name:(Printf.sprintf "x_%d_%d_%d_%d" bi k si ci)
                        p
                    in
                    Hashtbl.replace x_var (bi, k, si, ci) x;
                    if cand >= 0 then
                      Hashtbl.replace links cand
                        (x
                        :: Option.value ~default:[]
                             (Hashtbl.find_opt links cand));
                    x)
                  slot
              in
              (* sum_choices x = y *)
              ignore
                (Lp.Problem.add_row p
                   ((Hashtbl.find y_var (bi, k), -1.0)
                   :: Array.to_list (Array.map (fun x -> (x, 1.0)) xs))
                   Lp.Problem.Eq 0.0))
            tpl.choices)
        b.templates;
      (* Sorted extraction: the linking rows enter the BIP in candidate
         order, not hash order, so the materialized LP is reproducible. *)
      List.iter
        (fun (cand, xs) ->
          ignore
            (Lp.Problem.add_row p
               ((z_var.(cand), -1.0) :: List.map (fun x -> (x, 1.0)) xs)
               Lp.Problem.Le 0.0))
        (Runtime.Tbl.sorted_bindings links))
    t.blocks;
  if budget < infinity then
    ignore
      (Lp.Problem.add_row ~name:"storage" p
         (Array.to_list (Array.mapi (fun pos zv -> (zv, t.sizes.(pos))) z_var))
         Lp.Problem.Le budget);
  Constr.add_rows p z_var z_rows;
  (p, { z_var; y_var; x_var })

(* Read a configuration out of an LP/BIP solution vector. *)
let z_of_lp_solution t vars x =
  Array.init (Array.length t.candidates) (fun pos -> x.(vars.z_var.(pos)) > 0.5)
