(* cophy-bound: interprocedural bound-provenance analysis over the .cmt
   typed trees dune produces for lib/.

   CoPhy's headline guarantee is a *certified* optimality gap, and the
   repo's worst recurring bug class is its violation: Iter_limit
   simplex objectives trusted as B&B bounds, fabricated x = 0 solutions
   lifted out of the backend, uncertified cut activities (all caught by
   hand in PR 2's review).  cophy-bound makes the boundary a
   machine-checked invariant: every float-producing function gets a
   provenance in the lattice

     exact ⊑ certified ⊑ heuristic ⊑ fabricated

   Sources are declared in-tree with [@bound.source heuristic "why"] on
   the producing binding (the simplex entry points whose results may
   carry Iter_limit objectives, greedy/local-search objectives,
   Lagrangian bounds).  Provenance propagates through the call graph by
   abstract interpretation: function return values and parameters carry
   summaries joined to a fixpoint (Ak_graph.fixpoint), locals and refs
   carry levels in a monotone environment, and everything else joins
   its operands.  A value is *laundered* (capped back to certified)
   only by passing through a recognized certifier (Analyze.certify, the
   Problem.feasible re-check, or a function marked
   [@bound.certifier <tag> "why"]), or by flowing under a guard that
   syntactically establishes optimality — an if/&&/match arm whose
   condition or pattern mentions the [Optimal] constructor (and, for
   patterns, not [Iter_limit]) or calls a certifier.  [let solved =
   ... = Optimal] registers [solved] as a laundering guard ident.

   Sinks are declared with [@bound.sink <label> "what it guards"] on
   the expression or binding whose value must never be heuristic: the
   B&B pruning comparison, incumbent acceptance, bound stores, the
   certified fields of bench/serve output.  A heuristic-or-worse value
   reaching a sink is a finding ([tainted_sink]) carrying the
   producer -> sink chain, unless a lexically scoped
   [@bound.trust <producer> "why"] names a producer on the chain; a
   trust that suppresses nothing is itself a finding ([stale_trust]),
   exactly like [@race.allow]'s unused_allow.

   Soundness caveats (deliberate, shared with cophy-dsa/race — see
   DESIGN.md §15): values escaping through data structures are tracked
   only as whole-value joins (no per-field or per-element precision, so
   a tainted record field taints the record); labeled/optional argument
   summaries are keyed by label and positionals by index, so taint
   through partial application or |> is visible in the result value but
   not attributed to the callee's parameter; guard laundering is
   syntactic (a guard computed in another function launders only if
   bound to a local guard ident in this one).  The analysis errs toward
   reporting on those; [@bound.trust] is the documented escape.

   Shared machinery (name normalization, resolution contexts, the
   justification-attribute grammar, graph reachability, findings /
   SARIF) lives in tools/analysis_kernel. *)

module SSet = Ak_names.SSet

(* ------------------------------------------------------------------ *)
(* Rules and findings                                                  *)
(* ------------------------------------------------------------------ *)

type rule = Tainted_sink | Stale_trust | Bad_attr

let rule_name = function
  | Tainted_sink -> "tainted_sink"
  | Stale_trust -> "stale_trust"
  | Bad_attr -> "bad_attr"

let all_rule_names = List.map rule_name [ Tainted_sink; Stale_trust; Bad_attr ]

type violation = Ak_findings.finding = {
  rule : string;
  where : string;
  message : string;
  path : string list;
}

let pp_violation = Ak_findings.pp

(* ------------------------------------------------------------------ *)
(* The provenance lattice                                              *)
(* ------------------------------------------------------------------ *)

type level = Exact | Certified | Heuristic | Fabricated

let rank = function Exact -> 0 | Certified -> 1 | Heuristic -> 2 | Fabricated -> 3

let level_name = function
  | Exact -> "exact"
  | Certified -> "certified"
  | Heuristic -> "heuristic"
  | Fabricated -> "fabricated"

let level_of_string = function
  | "exact" -> Some Exact
  | "certified" -> Some Certified
  | "heuristic" -> Some Heuristic
  | "fabricated" -> Some Fabricated
  | _ -> None

let ljoin a b = if rank a >= rank b then a else b

(* Abstract value, two tracks so function summaries stay per-callsite:

   - the [i] track is taint the value acquired *internally* — from a
     declared source or another function's summary — with the producer
     nodes responsible (for the finding path);
   - the [p] track is taint attributable to the enclosing function's
     *parameters*, with the functions whose parameters contributed.

   A function's return summary stores only the i track plus a
   "parameters flow to the result" bit; at a callsite the p track is
   substituted by the actual arguments, so a helper called once with a
   tainted argument does not become tainted for every other caller.
   The p level is floored at [Certified] when a parameter is read, so
   the data dependence is visible even before any callsite passes
   taint (certified < heuristic: the floor can never trip a sink). *)
type aval = { ilvl : level; iorig : SSet.t; plvl : level; porig : SSet.t }

let exact =
  { ilvl = Exact; iorig = SSet.empty; plvl = Exact; porig = SSet.empty }

let certified = { exact with ilvl = Certified }
let level v = ljoin v.ilvl v.plvl
let tainted v = rank (level v) >= rank Heuristic

(* Producer set of a tainted value: internal producers when the i
   track is tainted, else the functions whose parameters carried it. *)
let origins v = if rank v.ilvl >= rank Heuristic then v.iorig else v.porig

let vjoin a b =
  if a == exact then b
  else if b == exact then a
  else
    {
      ilvl = ljoin a.ilvl b.ilvl;
      iorig = SSet.union a.iorig b.iorig;
      plvl = ljoin a.plvl b.plvl;
      porig = SSet.union a.porig b.porig;
    }

(* Collapse the tracks into one (i) — for storing into a location that
   outlives the enclosing call (a global, a callee's param summary). *)
let collapse v =
  if rank v.plvl = 0 then v
  else
    {
      ilvl = level v;
      iorig = SSet.union v.iorig v.porig;
      plvl = Exact;
      porig = SSet.empty;
    }

(* Laundering: a certifier (or an Optimal-guarded branch) re-derives
   the value from first principles, so provenance is capped back to
   certified and both tracks are cleared — including the parameter
   dependence, so [if Problem.feasible p x then Some x else None]
   really is certified independently of what the caller passes. *)
let cap v = if rank (level v) = 0 then exact else certified

(* ------------------------------------------------------------------ *)
(* Analysis state                                                      *)
(* ------------------------------------------------------------------ *)

type trust = {
  tr_target : string;  (* last component of the trusted producer *)
  tr_why : string;
  tr_where : string;
  mutable tr_used : bool;
}

type t = {
  (* node name -> definition location, for every analyzed binding *)
  defined : (string, string) Hashtbl.t;
  (* return-value (or module-level value) summary per node; i track
     only — parameter dependence is the separate [pdep] bit *)
  ret : (string, aval) Hashtbl.t;
  (* nodes whose parameters flow into their result: callsites join the
     actual arguments into the call's value *)
  pdep : (string, unit) Hashtbl.t;
  (* parameter summary, keyed "node/#i" (positional) or "node/~lbl" *)
  params : (string, aval) Hashtbl.t;
  (* declared [@bound.source]: name -> (level, why, where) *)
  sources : (string, level * string * string) Hashtbl.t;
  (* recognized certifiers: builtins + [@bound.certifier] bindings *)
  mutable certifiers : SSet.t;
  (* taint-flow edges producer -> consumer, for the finding chains *)
  edges : (string, SSet.t) Hashtbl.t;
  (* monotone env: "unit/Ident.unique_name" -> value, for locals/refs *)
  env : (string, aval) Hashtbl.t;
  (* idents bound to laundering guard expressions, same keying *)
  guards : (string, unit) Hashtbl.t;
  (* loaded units, re-walked each fixpoint pass *)
  mutable units : (string * Typedtree.structure) list;
  (* reporting pass only: *)
  mutable reporting : bool;
  mutable paths : Ak_graph.paths option;
  mutable trust_scope : trust list;
  mutable trusts : trust list;
  mutable violations : violation list;
}

let create () =
  {
    defined = Hashtbl.create 512;
    ret = Hashtbl.create 512;
    pdep = Hashtbl.create 256;
    params = Hashtbl.create 512;
    sources = Hashtbl.create 16;
    certifiers =
      SSet.of_list
        [ "Lp.Analyze.certify"; "Lp.Problem.feasible" ];
    edges = Hashtbl.create 128;
    env = Hashtbl.create 512;
    guards = Hashtbl.create 64;
    units = [];
    reporting = false;
    paths = None;
    trust_scope = [];
    trusts = [];
    violations = [];
  }

let report ?path t rule where fmt =
  Printf.ksprintf
    (fun msg ->
      t.violations <-
        Ak_findings.make ?path (rule_name rule) where msg :: t.violations)
    fmt

let add_edge t ~mark src dst =
  if src <> dst then begin
    let cur =
      Option.value (Hashtbl.find_opt t.edges src) ~default:SSet.empty
    in
    if not (SSet.mem dst cur) then begin
      Hashtbl.replace t.edges src (SSet.add dst cur);
      mark ()
    end
  end

let grew old nv =
  rank nv.ilvl > rank old.ilvl
  || rank nv.plvl > rank old.plvl
  || SSet.cardinal nv.iorig > SSet.cardinal old.iorig
  || SSet.cardinal nv.porig > SSet.cardinal old.porig

(* Join [v] (collapsed: summary tables are i-track only) into the
   keyed table, recording taint edges from each contributing producer
   to [name] so chains pass through it. *)
let join_tbl tbl t ~mark ~name key v =
  let v = collapse v in
  SSet.iter (fun o -> add_edge t ~mark o name) v.iorig;
  let old = Option.value (Hashtbl.find_opt tbl key) ~default:exact in
  let nv = vjoin old v in
  if grew old nv then begin
    Hashtbl.replace tbl key nv;
    mark ()
  end

let join_ret t ~mark name v = join_tbl t.ret t ~mark ~name name v
let join_param t ~mark name key v = join_tbl t.params t ~mark ~name key v

(* Store a function body's value as [name]'s return summary: the
   p track attributable to [name]'s own parameters becomes the [pdep]
   bit (substituted per-callsite); p taint captured from an *enclosing*
   function's parameters cannot be substituted, so it collapses into
   the i track (conservative). *)
let store_ret t ~mark name v =
  if rank v.plvl > 0 && SSet.mem name v.porig && not (Hashtbl.mem t.pdep name)
  then begin
    Hashtbl.replace t.pdep name ();
    mark ()
  end;
  let stored =
    if SSet.exists (fun o -> o <> name) v.porig then collapse v
    else { v with plvl = Exact; porig = SSet.empty }
  in
  join_ret t ~mark name stored

let env_join t ~mark key v =
  if v != exact then begin
    let old = Option.value (Hashtbl.find_opt t.env key) ~default:exact in
    let nv = vjoin old v in
    if grew old nv then begin
      Hashtbl.replace t.env key nv;
      mark ()
    end
  end

(* Reading a node's summary from a reference site: the producer the
   reader sees is the node itself (its own contributors are linked to
   it by taint edges, so the chain stays complete). *)
let read_summary tbl key name =
  match Hashtbl.find_opt tbl key with
  | Some v when tainted v ->
      { exact with ilvl = level v; iorig = SSet.singleton name }
  | Some v -> { exact with ilvl = level v }
  | None -> exact

(* ------------------------------------------------------------------ *)
(* Builtin tables                                                      *)
(* ------------------------------------------------------------------ *)

(* In-place stores: (head, target position, stored-value position).
   The store is modeled as an env/summary join on the target. *)
let store_heads =
  [
    (":=", 0, 1);
    ("Atomic.set", 0, 1);
    ("Atomic.exchange", 0, 1);
    ("Array.set", 0, 2);
    ("Array.unsafe_set", 0, 2);
    ("Hashtbl.replace", 0, 2);
    ("Hashtbl.add", 0, 2);
  ]

(* ------------------------------------------------------------------ *)
(* Typedtree helpers                                                   *)
(* ------------------------------------------------------------------ *)

open Typedtree

let loc_string = Ak_resolve.loc_string
let is_arrow = Ak_resolve.is_arrow

(* Walker state: the analysis, the unit's resolution context, the
   enclosing node's name (for messages and local-function naming),
   whether the current expression sits under a laundering guard, and
   the fixpoint's change marker. *)
type st = {
  an : t;
  rctx : Ak_resolve.ctx;
  node : string;
  laundered : bool;
  mark : unit -> unit;
}

let resolve st p = Ak_resolve.resolve_value st.rctx p
let ident_key st id = st.rctx.Ak_resolve.unit_prefix ^ "/" ^ Ident.unique_name id

(* Idents bound by a pattern of any kind (value or computation). *)
let rec gpat_idents : type k. k general_pattern -> Ident.t list =
 fun p ->
  match p.pat_desc with
  | Tpat_var (id, _) -> [ id ]
  | Tpat_alias (p', id, _) -> id :: gpat_idents p'
  | Tpat_tuple ps -> List.concat_map gpat_idents ps
  | Tpat_construct (_, _, ps, _) -> List.concat_map gpat_idents ps
  | Tpat_record (fs, _) -> List.concat_map (fun (_, _, p') -> gpat_idents p') fs
  | Tpat_array ps -> List.concat_map gpat_idents ps
  | Tpat_lazy p' -> gpat_idents p'
  | Tpat_or (a, b, _) -> gpat_idents a @ gpat_idents b
  | Tpat_value vp -> gpat_idents (vp :> pattern)
  | Tpat_exception p' -> gpat_idents p'
  | _ -> []

(* Does the pattern mention constructor [name] anywhere? *)
let rec gpat_mentions : type k. string -> k general_pattern -> bool =
 fun name p ->
  match p.pat_desc with
  | Tpat_construct (_, cd, ps, _) ->
      cd.Types.cstr_name = name || List.exists (gpat_mentions name) ps
  | Tpat_alias (p', _, _) -> gpat_mentions name p'
  | Tpat_tuple ps -> List.exists (gpat_mentions name) ps
  | Tpat_record (fs, _) -> List.exists (fun (_, _, p') -> gpat_mentions name p') fs
  | Tpat_array ps -> List.exists (gpat_mentions name) ps
  | Tpat_lazy p' -> gpat_mentions name p'
  | Tpat_or (a, b, _) -> gpat_mentions name a || gpat_mentions name b
  | Tpat_value vp -> gpat_mentions name (vp :> pattern)
  | Tpat_exception p' -> gpat_mentions name p'
  | _ -> false

(* A match arm whose pattern requires Optimal (and cannot also admit
   Iter_limit) has re-established the certificate. *)
let pattern_launders : type k. k general_pattern -> bool =
 fun p -> gpat_mentions "Optimal" p && not (gpat_mentions "Iter_limit" p)

(* Syntactic laundering test for a guard expression: does it anywhere
   construct/compare against [Optimal], call a recognized certifier, or
   mention an ident previously bound to such a guard? *)
let guard_launders st e0 =
  let found = ref false in
  let super = Tast_iterator.default_iterator in
  let expr self (e : expression) =
    (match e.exp_desc with
    | Texp_construct (_, cd, _) when cd.Types.cstr_name = "Optimal" ->
        found := true
    | Texp_ident (Path.Pident id, _, _)
      when Hashtbl.mem st.an.guards (ident_key st id) ->
        found := true
    | Texp_ident (p, _, _) -> (
        match resolve st p with
        | Some n when SSet.mem n st.an.certifiers -> found := true
        | _ -> ())
    | _ -> ());
    if not !found then super.expr self e
  in
  let it = { super with expr } in
  it.expr it e0;
  !found

(* [if not g then a else b]: the *else* branch is the laundered one. *)
let negated_guard st c =
  match c.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, [ (_, Some g) ])
    when resolve st p = Some "not" ->
      if guard_launders st g then Some g else None
  | _ -> None

(* Immediate child expressions, for the generic join fallback. *)
let child_exprs e =
  let acc = ref [] in
  let super = Tast_iterator.default_iterator in
  let it =
    { super with expr = (fun _ ce -> acc := ce :: !acc) }
  in
  super.expr it e;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Attribute parsing                                                   *)
(* ------------------------------------------------------------------ *)

let parse_bad st msgs ~where =
  if st.an.reporting then
    List.iter (fun msg -> report st.an Bad_attr where "%s" msg) msgs

(* [@bound.source <level> "why"] *)
let parse_sources st attrs ~where =
  let p =
    Ak_attr.parse ~name:"bound.source"
      ~valid:(fun id -> level_of_string id <> None)
      attrs
  in
  parse_bad st p.Ak_attr.malformed ~where;
  List.filter_map
    (fun (id, why) ->
      Option.map (fun lvl -> (lvl, why)) (level_of_string id))
    p.Ak_attr.allows

(* [@bound.sink <label> "what it guards"] *)
let parse_sinks st attrs ~where =
  let p = Ak_attr.parse ~name:"bound.sink" ~valid:(fun _ -> true) attrs in
  parse_bad st p.Ak_attr.malformed ~where;
  p.Ak_attr.allows

(* [@bound.certifier <tag> "why"] *)
let parse_certifier st attrs ~where =
  let p = Ak_attr.parse ~name:"bound.certifier" ~valid:(fun _ -> true) attrs in
  parse_bad st p.Ak_attr.malformed ~where;
  p.Ak_attr.allows <> []

(* [@bound.trust <producer> "why"]; records for staleness in the
   reporting pass. *)
let parse_trusts st attrs ~where =
  if not st.an.reporting then []
  else begin
    let p = Ak_attr.parse ~name:"bound.trust" ~valid:(fun _ -> true) attrs in
    parse_bad st p.Ak_attr.malformed ~where;
    List.map
      (fun (target, why) ->
        let tr =
          { tr_target = target; tr_why = why; tr_where = where; tr_used = false }
        in
        st.an.trusts <- tr :: st.an.trusts;
        tr)
      p.Ak_attr.allows
  end

(* ------------------------------------------------------------------ *)
(* Sink reporting                                                      *)
(* ------------------------------------------------------------------ *)

(* Producer chain for the finding: the lexically smallest origin, its
   BFS discovery chain from a declared source (deterministic: sorted
   roots, sorted successors). *)
let origin_chain t v =
  match SSet.min_elt_opt (origins v) with
  | None -> []
  | Some o -> (
      match t.paths with
      | Some p when SSet.mem o p.Ak_graph.visited -> Ak_graph.chain p o
      | _ -> [ o ])

let check_sink st v ~label ~why ~where =
  if st.an.reporting && tainted v then begin
    let chain = origin_chain st.an v in
    let matches tr =
      List.exists
        (fun n -> Ak_names.last_component n = tr.tr_target)
        (chain @ SSet.elements (origins v))
    in
    match List.find_opt matches st.an.trust_scope with
    | Some tr -> tr.tr_used <- true
    | None ->
        let producer =
          match chain with p :: _ -> p | [] -> "<unknown producer>"
        in
        report st.an Tainted_sink where
          ~path:(chain @ [ Printf.sprintf "sink:%s at %s" label where ])
          "%s value reaches the %s sink (%s) in %s, produced by %s via %s; \
           re-derive it through a certifier (Analyze.certify / a feasibility \
           re-check), gate the flow on Optimal, or justify \
           with [@bound.trust %s \"...\"]"
          (level_name (level v))
          label why st.node producer
          (String.concat " -> " chain)
          (Ak_names.last_component
             (match SSet.min_elt_opt (origins v) with
             | Some o -> o
             | None -> producer))
  end

(* ------------------------------------------------------------------ *)
(* Abstract evaluation                                                 *)
(* ------------------------------------------------------------------ *)

let param_key name (lbl : Asttypes.arg_label) pos =
  match lbl with
  | Asttypes.Nolabel -> Printf.sprintf "%s/#%d" name pos
  | Asttypes.Labelled l | Asttypes.Optional l -> Printf.sprintf "%s/~%s" name l

let rec eval st (e : expression) : aval =
  let where = loc_string e.exp_loc in
  let trusts = parse_trusts st e.exp_attributes ~where in
  let go () =
    let v = eval_desc st e in
    let v = if st.laundered then cap v else v in
    List.iter
      (fun (label, why) -> check_sink st v ~label ~why ~where)
      (parse_sinks st e.exp_attributes ~where);
    v
  in
  if trusts = [] then go ()
  else begin
    let saved = st.an.trust_scope in
    st.an.trust_scope <- trusts @ saved;
    Fun.protect ~finally:(fun () -> st.an.trust_scope <- saved) go
  end

and eval_desc st (e : expression) : aval =
  let an = st.an in
  match e.exp_desc with
  | Texp_constant _ -> exact
  | Texp_ident (p, _, _) -> (
      match p with
      | Path.Pident id
        when not (Hashtbl.mem st.rctx.Ak_resolve.values (Ident.unique_name id))
        ->
          Option.value (Hashtbl.find_opt an.env (ident_key st id)) ~default:exact
      | _ -> (
          match resolve st p with
          | Some n -> read_summary an.ret n n
          | None -> exact))
  | Texp_apply (hd, args) -> eval_apply st hd args
  | Texp_let (_, vbs, body) ->
      eval_let st vbs;
      eval st body
  | Texp_sequence (e1, e2) ->
      ignore (eval st e1);
      eval st e2
  | Texp_ifthenelse (c, th, el) -> (
      ignore (eval st c);
      match negated_guard st c with
      | Some _ ->
          let vt = eval st th in
          let ve =
            match el with
            | Some el -> eval { st with laundered = true } el
            | None -> exact
          in
          vjoin vt ve
      | None ->
          let launder = guard_launders st c in
          let vt = eval { st with laundered = st.laundered || launder } th in
          let ve = match el with Some el -> eval st el | None -> exact in
          vjoin vt ve)
  | Texp_match (scrut, cases, _) ->
      let sv = eval st scrut in
      List.fold_left
        (fun acc (c : computation case) ->
          let launder = pattern_launders c.c_lhs in
          let stc = { st with laundered = st.laundered || launder } in
          let bound = if launder then cap sv else sv in
          List.iter
            (fun id -> env_join an ~mark:st.mark (ident_key st id) bound)
            (gpat_idents c.c_lhs);
          let guard_ld =
            match c.c_guard with
            | Some g ->
                ignore (eval stc g);
                guard_launders st g
            | None -> false
          in
          let stc =
            { stc with laundered = stc.laundered || guard_ld }
          in
          vjoin acc (eval stc c.c_rhs))
        exact cases
  | Texp_function { cases; _ } ->
      (* anonymous closure used as a value: its result contributes to
         whatever consumes it (Array.init, parallel_map, ...), so the
         closure's value is the join of its bodies; parameters are
         unknown here and default to exact *)
      List.fold_left
        (fun acc (c : value case) ->
          Option.iter (fun g -> ignore (eval st g)) c.c_guard;
          vjoin acc (eval st c.c_rhs))
        exact cases
  | _ ->
      (* generic fallback: join the immediate children (tuples,
         records, constructors, arrays, field projections, try, loops,
         setfield, ...) — whole-value precision, per the caveats *)
      List.fold_left (fun acc ce -> vjoin acc (eval st ce)) exact
        (child_exprs e)

and eval_apply st hd args =
  let an = st.an in
  let head_name =
    match hd.exp_desc with Texp_ident (p, _, _) -> resolve st p | _ -> None
  in
  let eval_args () =
    List.map
      (fun (lbl, a) -> (lbl, Option.map (eval st) a))
      args
  in
  match head_name with
  | Some n when SSet.mem n an.certifiers ->
      (* recognized certifier: consumes tainted input legitimately and
         returns a re-derived, certified value *)
      ignore (eval_args ());
      certified
  | Some "&&" -> (
      match args with
      | [ (_, Some a); (_, Some b) ] ->
          let va = eval st a in
          let vb =
            if guard_launders st a then eval { st with laundered = true } b
            else eval st b
          in
          vjoin va vb
      | _ ->
          List.fold_left
            (fun acc (_, v) -> match v with Some v -> vjoin acc v | None -> acc)
            exact (eval_args ()))
  | Some n when List.exists (fun (h, _, _) -> h = n) store_heads -> (
      let _, tpos, vpos = List.find (fun (h, _, _) -> h = n) store_heads in
      let vals = eval_args () in
      let nth k =
        let rec go k = function
          | (Asttypes.Nolabel, Some v) :: tl -> if k = 0 then Some v else go (k - 1) tl
          | _ :: tl -> go k tl
          | [] -> None
        in
        go k vals
      in
      match (Ak_resolve.nth_positional tpos args, nth vpos) with
      | Some { exp_desc = Texp_ident (p, _, _); _ }, Some v -> (
          (match p with
          | Path.Pident id
            when not
                   (Hashtbl.mem st.rctx.Ak_resolve.values (Ident.unique_name id))
            ->
              env_join an ~mark:st.mark (ident_key st id) v
          | _ -> (
              (* store into a module-level ref/atomic: fold the stored
                 value into that global's summary *)
              match resolve st p with
              | Some g -> join_ret an ~mark:st.mark g v
              | None -> ()));
          exact)
      | _ -> exact)
  | Some n ->
      let vals = eval_args () in
      let known = Hashtbl.mem an.defined n in
      (* record parameter summaries + taint edges into analyzed callees *)
      if known then begin
        let pos = ref 0 in
        List.iter
          (fun ((lbl : Asttypes.arg_label), v) ->
            let key = param_key n lbl !pos in
            (match lbl with Asttypes.Nolabel -> incr pos | _ -> ());
            match v with
            | Some v when v != exact -> join_param an ~mark:st.mark n key v
            | _ -> ())
          vals
      end;
      (* the callee's internal taint arrives with the callee as its
         producer (read_summary); the arguments join in only when the
         callee's result actually depends on its parameters — for an
         unanalyzed callee we can't know, so they always join *)
      let base = read_summary an.ret n n in
      if known && not (Hashtbl.mem an.pdep n) then base
      else
        List.fold_left
          (fun acc (_, v) -> match v with Some v -> vjoin acc v | None -> acc)
          base vals
  | None ->
      let hv = eval st hd in
      List.fold_left
        (fun acc (_, v) -> match v with Some v -> vjoin acc v | None -> acc)
        hv (eval_args ())

(* Local bindings: function bindings are promoted to their own nodes
   (so their parameters and returns carry summaries and sinks inside
   them are attributed correctly); other bindings join into the env.
   A binding whose right-hand side is a laundering guard expression
   registers its idents as guard idents. *)
and eval_let st vbs =
  let an = st.an in
  (* register local function names first so recursive references and
     forward uses resolve to the node *)
  let promoted =
    List.filter_map
      (fun (vb : value_binding) ->
        match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
        | Tpat_var (id, _), Texp_function _ ->
            let cname = st.node ^ "." ^ Ident.name id in
            Hashtbl.replace st.rctx.Ak_resolve.values (Ident.unique_name id)
              cname;
            Hashtbl.replace an.defined cname (loc_string vb.vb_loc);
            Some (vb, cname)
        | _ -> None)
      vbs
  in
  List.iter
    (fun ((vb : value_binding), cname) -> walk_binding st cname vb)
    promoted;
  List.iter
    (fun (vb : value_binding) ->
      match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
      | Tpat_var _, Texp_function _ -> ()
      | _ ->
          let where = loc_string vb.vb_loc in
          let trusts = parse_trusts st vb.vb_attributes ~where in
          let saved = an.trust_scope in
          an.trust_scope <- trusts @ saved;
          Fun.protect
            ~finally:(fun () -> an.trust_scope <- saved)
            (fun () ->
              let v = eval st vb.vb_expr in
              List.iter
                (fun (label, why) -> check_sink st v ~label ~why ~where)
                (parse_sinks st vb.vb_attributes ~where);
              if guard_launders st vb.vb_expr then
                List.iter
                  (fun id -> Hashtbl.replace an.guards (ident_key st id) ())
                  (gpat_idents vb.vb_pat);
              List.iter
                (fun id -> env_join an ~mark:st.mark (ident_key st id) v)
                (gpat_idents vb.vb_pat)))
    vbs

(* Walk a function node: bind each parameter to its summary, evaluate
   the body, and join the result into the node's return summary.
   Handles the binding-level attributes ([@bound.source],
   [@bound.certifier], [@bound.trust], [@bound.sink]). *)
and walk_binding st cname (vb : value_binding) =
  let an = st.an in
  let where = loc_string vb.vb_loc in
  Hashtbl.replace an.defined cname where;
  List.iter
    (fun (lvl, why) ->
      Hashtbl.replace an.sources cname (lvl, why, where);
      join_ret an ~mark:st.mark cname
        { exact with ilvl = lvl; iorig = SSet.singleton cname })
    (parse_sources st vb.vb_attributes ~where);
  if parse_certifier st vb.vb_attributes ~where then
    if not (SSet.mem cname an.certifiers) then begin
      an.certifiers <- SSet.add cname an.certifiers;
      st.mark ()
    end;
  let trusts = parse_trusts st vb.vb_attributes ~where in
  let saved = an.trust_scope in
  an.trust_scope <- trusts @ saved;
  Fun.protect
    ~finally:(fun () -> an.trust_scope <- saved)
    (fun () ->
      let stn = { st with node = cname; laundered = false } in
      let v = walk_fn stn cname 0 vb.vb_expr in
      store_ret an ~mark:st.mark cname v;
      List.iter
        (fun (label, why) -> check_sink stn v ~label ~why ~where)
        (parse_sinks st vb.vb_attributes ~where))

and walk_fn st name pos (e : expression) : aval =
  match e.exp_desc with
  | Texp_function { arg_label; cases; _ } -> (
      let key = param_key name arg_label pos in
      (* parameter read: callsite-joined taint rides the p track (so a
         sink inside the body still fires), floored at Certified so the
         data dependence registers [pdep] even before any callsite
         passes taint *)
      let slvl =
        match Hashtbl.find_opt st.an.params key with
        | Some v -> level v
        | None -> Exact
      in
      let pv =
        {
          exact with
          plvl = ljoin slvl Certified;
          porig = SSet.singleton name;
        }
      in
      List.iter
        (fun (c : value case) ->
          List.iter
            (fun id -> env_join st.an ~mark:st.mark (ident_key st id) pv)
            (gpat_idents c.c_lhs))
        cases;
      let pos' =
        match arg_label with Asttypes.Nolabel -> pos + 1 | _ -> pos
      in
      match cases with
      | [ c ]
        when c.c_guard = None
             && (match c.c_rhs.exp_desc with
                | Texp_function _ -> true
                | _ -> false) ->
          walk_fn st name pos' c.c_rhs
      | _ ->
          List.fold_left
            (fun acc (c : value case) ->
              Option.iter (fun g -> ignore (eval st g)) c.c_guard;
              vjoin acc (eval st c.c_rhs))
            exact cases)
  | _ -> eval st e

(* ------------------------------------------------------------------ *)
(* Structure walk                                                      *)
(* ------------------------------------------------------------------ *)

let rec walk_structure t ~mark rctx prefix (str : structure) =
  Ak_resolve.register_items rctx prefix str;
  let st = { an = t; rctx; node = prefix; laundered = false; mark } in
  List.iter
    (fun (item : structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : value_binding) ->
              match Ak_resolve.pattern_idents vb.vb_pat with
              | [] ->
                  let nd = prefix ^ ".(init)" in
                  Hashtbl.replace t.defined nd (loc_string vb.vb_loc);
                  walk_binding { st with node = nd } nd vb
              | (_, name0) :: _ ->
                  let nd = prefix ^ "." ^ name0 in
                  walk_binding { st with node = nd } nd vb)
            vbs
      | Tstr_module mb -> walk_module t ~mark rctx prefix mb
      | Tstr_recmodule mbs ->
          List.iter (walk_module t ~mark rctx prefix) mbs
      | Tstr_eval (e, _) ->
          let nd = prefix ^ ".(init)" in
          Hashtbl.replace t.defined nd (loc_string item.str_loc);
          ignore (eval { st with node = nd } e)
      | _ -> ())
    str.str_items

and walk_module t ~mark rctx prefix (mb : module_binding) =
  match mb.mb_name.Location.txt with
  | Some name -> (
      match (Ak_resolve.strip_module_constraints mb.mb_expr).mod_desc with
      | Tmod_structure str ->
          walk_structure t ~mark rctx (prefix ^ "." ^ name) str
      | _ -> ())
  | None -> ()

let pass t ~mark =
  List.iter
    (fun (prefix, str) ->
      let rctx = Ak_resolve.create ~unit_prefix:prefix in
      walk_structure t ~mark rctx prefix str)
    t.units

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let analyze files =
  let t = create () in
  t.units <-
    List.filter_map
      (fun path ->
        match Ak_cmt.load path with
        | Ak_cmt.Impl (prefix, str) -> Some (prefix, str)
        | Ak_cmt.Intf _ | Ak_cmt.Other -> None)
      files;
  t

let source_names t =
  Hashtbl.fold (fun n _ acc -> n :: acc) t.sources [] |> List.sort compare

let succs t name =
  match Hashtbl.find_opt t.edges name with
  | Some s -> SSet.elements s
  | None -> []

(* Sorted (node, level) pairs at heuristic or above — the taint map,
   for --debug and the tests. *)
let summaries t =
  Hashtbl.fold
    (fun n v acc -> if tainted v then (n, level v) :: acc else acc)
    t.ret []
  |> List.sort compare

let check_stale_trusts t =
  List.iter
    (fun tr ->
      if not tr.tr_used then
        report t Stale_trust tr.tr_where
          "[@bound.trust %s \"%s\"] never matched a producer on a tainted \
           flow into a sink; delete it or move it to the flow it is meant \
           to justify"
          tr.tr_target tr.tr_why)
    (List.sort compare (List.rev t.trusts))

let run_checks t =
  (* propagate summaries to a fixpoint, silently *)
  Ak_graph.fixpoint (fun ~mark -> pass t ~mark);
  (* one reporting pass over the stable summaries *)
  t.reporting <- true;
  t.paths <-
    Some (Ak_graph.reach_paths ~roots:(source_names t) ~succs:(succs t));
  pass t ~mark:(fun () -> ());
  check_stale_trusts t;
  List.rev t.violations
