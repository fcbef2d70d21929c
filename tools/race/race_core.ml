(* cophy-race: static interference analysis for the multicore runtime,
   over the .cmt typed trees dune produces for lib/.

   cophy-dsa (tools/dsa) proves that code reachable from a parallel
   section carries no unjustified [mutates_global]/[io]/[nondet]
   effects.  That is a *whitelist* of effect kinds; it says nothing
   about which shared memory a parallel closure touches or why the
   touching is safe.  cophy-race closes that gap: for every closure
   reachable from a spawn seam it classifies each write to a mutable
   location the closure did not itself create as

     slot-disjoint   an array/ring write whose index derives from a
                     per-task slot (the closure's own parameters, a
                     unique [Atomic.fetch_and_add] claim, [Domain.self],
                     [Domain.DLS.get]) — distinct tasks write distinct
                     slots, so the writes never collide;
     atomic          performed through [Atomic.*] (or [Domain.DLS.set],
                     which is per-domain by construction);
     shared-mutable  everything else: [:=]/[incr]/[decr] on a captured
                     or module-level ref, record-field assignment,
                     array writes with a data-dependent index,
                     [Hashtbl.*]/[Buffer.*]/[Queue.*]/[Stack.*]
                     mutation.

   Shared-mutable writes are findings (rule [shared_mutable]) reported
   as spawn-site -> write path, unless justified in-tree with
   [@race.allow <target> "<why>"] — the justification names the written
   location and must explain the synchronization that makes the write
   safe (a latch lock, a single-writer protocol, ...).  A justification
   that suppresses nothing is itself a finding ([unused_allow]): stale
   safety arguments rot into lies, so they fail the build exactly like
   an unjustified write.

   Spawn seams — the points where a function value crosses onto another
   domain:

     Runtime.parallel_map f arr        f            (positional 0)
     Domain.spawn f                    f            (positional 0)
     Runtime.submit w job              job          (positional 1)
     Runtime.Search.run ~eval ...      ~eval        (labeled)

   Soundness caveats (deliberate, shared with cophy-dsa — see
   DESIGN.md §14): writes whose target is a function *parameter* are
   charged to no one (the aliasing is unknown at the definition);
   calls through unannotated function parameters are invisible edges;
   a mutable value that escapes through a data structure and is written
   under a different name is not tracked.  The slot-taint is liberal —
   any expression mentioning a slot source is slot-derived — so a
   colliding index computed *from* a slot value (e.g. [slot / 2]) is
   missed.  The analysis errs toward silence on those; the runtime's
   seams are narrow enough that the reachable closure set is audited
   exhaustively modulo these documented holes.

   Shared machinery (name normalization, resolution contexts, the
   justification-attribute grammar, graph reachability, findings /
   SARIF) lives in tools/analysis_kernel. *)

module SSet = Ak_names.SSet

(* ------------------------------------------------------------------ *)
(* Rules and findings                                                  *)
(* ------------------------------------------------------------------ *)

type rule = Shared_mutable | Unused_allow | Bad_attr

let rule_name = function
  | Shared_mutable -> "shared_mutable"
  | Unused_allow -> "unused_allow"
  | Bad_attr -> "bad_attr"

let all_rule_names =
  List.map rule_name [ Shared_mutable; Unused_allow; Bad_attr ]

type violation = Ak_findings.finding = {
  rule : string;
  where : string;
  message : string;
  path : string list;
}

let pp_violation = Ak_findings.pp

(* ------------------------------------------------------------------ *)
(* Analysis state                                                      *)
(* ------------------------------------------------------------------ *)

type cls = Slot_disjoint | Atomic | Shared

let cls_name = function
  | Slot_disjoint -> "slot-disjoint"
  | Atomic -> "atomic"
  | Shared -> "shared-mutable"

type allow = {
  a_target : string;  (* last component of the written location *)
  a_why : string;
  a_where : string;
  mutable a_used : bool;
}

type write = {
  w_target : string;  (* "Runtime.Trace.rings" or captured "remaining" *)
  w_captured : bool;  (* captured from an enclosing function scope *)
  w_ident : string option;  (* Ident.unique_name of a captured target *)
  w_kind : string;  (* human description of the write form *)
  w_cls : cls;
  w_loc : string;
  w_allow : allow option;  (* lexically scoped justification, if any *)
}

type node = {
  r_name : string;
  r_loc : string;
  mutable r_function : bool;
  mutable r_spawn_root : bool;
  mutable r_spawn_site : string option;  (* "<seam> at file:line" *)
  mutable r_parent : node option;  (* lexically enclosing node *)
  mutable r_locals : (string, unit) Hashtbl.t;  (* idents bound in body *)
  mutable r_calls : string list;  (* reference-closure edges *)
  mutable r_writes : write list;
}

type t = {
  nodes : (string, node) Hashtbl.t;
  mutable allows : allow list;  (* every parsed justification *)
  mutable violations : violation list;
}

let create () = { nodes = Hashtbl.create 512; allows = []; violations = [] }

let report ?path t rule where fmt =
  Printf.ksprintf
    (fun msg ->
      t.violations <-
        Ak_findings.make ?path (rule_name rule) where msg :: t.violations)
    fmt

let node t name loc =
  match Hashtbl.find_opt t.nodes name with
  | Some n -> n
  | None ->
      let n =
        {
          r_name = name;
          r_loc = loc;
          r_function = false;
          r_spawn_root = false;
          r_spawn_site = None;
          r_parent = None;
          r_locals = Hashtbl.create 1;
          r_calls = [];
          r_writes = [];
        }
      in
      Hashtbl.add t.nodes name n;
      n

(* ------------------------------------------------------------------ *)
(* Builtin tables                                                      *)
(* ------------------------------------------------------------------ *)

(* Spawn seams: which argument of which callee crosses onto another
   domain.  Names are matched after normalization; the [.parallel_map]
   suffix covers aliased module paths, as in cophy-dsa. *)
type argspec = Pos of int | Labeled of string

let seams =
  [
    ("Runtime.parallel_map", Pos 0);
    ("Domain.spawn", Pos 0);
    ("Runtime.submit", Pos 1);
    ("Runtime.Search.run", Labeled "eval");
  ]

let seam_of name =
  match List.assoc_opt name seams with
  | Some s -> Some s
  | None ->
      if Ak_names.has_suffix ~suffix:".parallel_map" name then Some (Pos 0)
      else None

(* Writes through Atomic are the sanctioned cross-domain mutation. *)
let atomic_heads =
  SSet.of_list
    [
      "Atomic.set"; "Atomic.exchange"; "Atomic.compare_and_set";
      "Atomic.fetch_and_add"; "Atomic.incr"; "Atomic.decr";
    ]

(* Per-domain storage: disjoint between domains by construction. *)
let dls_heads = SSet.of_list [ "Domain.DLS.set" ]

(* Results of these are per-task slot claims / domain identities. *)
let taint_source =
  SSet.of_list [ "Atomic.fetch_and_add"; "Domain.self"; "Domain.DLS.get" ]

let ref_heads = SSet.of_list [ ":="; "incr"; "decr" ]

(* a.(i) <- v desugars to these; the index argument decides the class *)
let array_set_heads =
  SSet.of_list [ "Array.set"; "Array.unsafe_set"; "Bytes.set"; "Bytes.unsafe_set" ]

(* In-place mutators with no index to reason about: a call on a captured
   or module-level value is a shared-mutable write.  Mutex/Condition/
   Semaphore are synchronization primitives, not tracked state. *)
let mutator_heads =
  SSet.of_list
    [
      "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.remove"; "Hashtbl.reset";
      "Hashtbl.clear"; "Hashtbl.add_seq"; "Hashtbl.replace_seq";
      "Hashtbl.filter_map_inplace"; "Queue.push"; "Queue.add"; "Queue.pop";
      "Queue.take"; "Queue.clear"; "Queue.transfer"; "Stack.push";
      "Stack.pop"; "Stack.clear"; "Buffer.add_string"; "Buffer.add_char";
      "Buffer.add_bytes"; "Buffer.add_substring"; "Buffer.add_subbytes";
      "Buffer.add_buffer"; "Buffer.add_channel"; "Buffer.clear";
      "Buffer.reset"; "Buffer.truncate"; "Array.fill"; "Array.blit";
      "Array.sort"; "Array.fast_sort"; "Array.stable_sort"; "Bytes.fill";
      "Bytes.blit";
    ]

(* ------------------------------------------------------------------ *)
(* Typedtree helpers                                                   *)
(* ------------------------------------------------------------------ *)

open Typedtree

let loc_string = Ak_resolve.loc_string
let is_arrow = Ak_resolve.is_arrow

type unit_ctx = { an : t; rctx : Ak_resolve.ctx }

let resolve_value ctx p = Ak_resolve.resolve_value ctx.rctx p

(* [@race.allow <target> "<why>"] — any identifier is a legal target
   (it names a written location, not a fixed vocabulary); the mandatory
   justification string is enforced by the shared parser. *)
let parse_allow t (attrs : Parsetree.attributes) ~where =
  let parsed = Ak_attr.parse ~name:"race.allow" ~valid:(fun _ -> true) attrs in
  List.iter (fun msg -> report t Bad_attr where "%s" msg) parsed.Ak_attr.malformed;
  List.map
    (fun (target, why) ->
      let a = { a_target = target; a_why = why; a_where = where; a_used = false } in
      t.allows <- a :: t.allows;
      a)
    parsed.Ak_attr.allows

(* Every identifier bound anywhere inside [expr] — parameters of the
   node and of its inner lambdas, let/match/for bindings.  A write whose
   target is in this set is node-local (or a parameter: the documented
   aliasing caveat) and is skipped; a target bound in an *enclosing*
   function's scope is a capture. *)
let bound_idents expr =
  let tbl = Hashtbl.create 64 in
  let add id = Hashtbl.replace tbl (Ident.unique_name id) () in
  let super = Tast_iterator.default_iterator in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun self p ->
    (match p.pat_desc with
    | Tpat_var (id, _) -> add id
    | Tpat_alias (_, id, _) -> add id
    | _ -> ());
    super.pat self p
  in
  let expr_it self (e : expression) =
    (match e.exp_desc with
    | Texp_for (id, _, _, _, _, _) -> add id
    | Texp_function { param; _ } -> add param
    | _ -> ());
    super.expr self e
  in
  let it = { super with pat; expr = expr_it } in
  it.expr it expr;
  tbl

(* Liberal slot-taint test: does [e] mention a tainted identifier or a
   slot source ([Atomic.fetch_and_add] / [Domain.self] /
   [Domain.DLS.get]) anywhere in its subtree? *)
let expr_tainted ctx tainted e0 =
  let found = ref false in
  let super = Tast_iterator.default_iterator in
  let expr self (e : expression) =
    (match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _)
      when Hashtbl.mem tainted (Ident.unique_name id) ->
        found := true
    | Texp_ident (p, _, _) -> (
        match resolve_value ctx p with
        | Some name when SSet.mem name taint_source -> found := true
        | _ -> ())
    | _ -> ());
    if not !found then super.expr self e
  in
  let it = { super with expr } in
  it.expr it e0;
  !found

(* ------------------------------------------------------------------ *)
(* Per-node collection                                                 *)
(* ------------------------------------------------------------------ *)

let rec collect_body ctx ~(nd : node) expr0 =
  let an = ctx.an in
  let locals = bound_idents expr0 in
  nd.r_locals <- locals;
  let tainted = Hashtbl.create 16 in
  let taint id = Hashtbl.replace tainted (Ident.unique_name id) () in
  (* slot sources: the node's own outermost parameter chain — for a
     closure at a [parallel_map]/[Search.run] seam these carry the
     per-task element / slot index *)
  let rec seed_params (e : expression) =
    match e.exp_desc with
    | Texp_function { cases = [ c ]; _ } ->
        List.iter (fun (id, _) -> taint id) (Ak_resolve.pattern_idents c.c_lhs);
        seed_params c.c_rhs
    | Texp_function { cases; _ } ->
        List.iter
          (fun (c : value case) ->
            List.iter (fun (id, _) -> taint id)
              (Ak_resolve.pattern_idents c.c_lhs))
          cases
    | _ -> ()
  in
  seed_params expr0;
  (* lexically scoped [@race.allow]s active at the current point *)
  let scope : allow list ref = ref [] in
  let find_allow target =
    let last = Ak_names.last_component target in
    List.find_opt (fun a -> a.a_target = last) !scope
  in
  let add_call name =
    if not (List.mem name nd.r_calls) then nd.r_calls <- name :: nd.r_calls
  in
  (* Classify the written location.  None = node-local or parameter
     (skipped; see the caveats above). *)
  let target_info (e : expression) =
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> (
        match Hashtbl.find_opt ctx.rctx.Ak_resolve.values (Ident.unique_name id) with
        | Some global -> Some (global, false, None)
        | None ->
            if Hashtbl.mem locals (Ident.unique_name id) then None
            else Some (Ident.name id, true, Some (Ident.unique_name id)))
    | Texp_ident (p, _, _) ->
        Option.map (fun n -> (n, false, None)) (resolve_value ctx p)
    | _ -> None
  in
  let record_write ?(cls = Shared) target_expr ~kind loc =
    match target_info target_expr with
    | None -> ()
    | Some (target, captured, uid) ->
        nd.r_writes <-
          {
            w_target = target;
            w_captured = captured;
            w_ident = uid;
            w_kind = kind;
            w_cls = cls;
            w_loc = loc;
            w_allow = (if cls = Shared then find_allow target else None);
          }
          :: nd.r_writes
  in
  let reference name (vd : Types.value_description) =
    if is_arrow vd.Types.val_type then add_call name
  in
  let super = Tast_iterator.default_iterator in
  let rec expr self (e : expression) =
    let e_allows =
      parse_allow an e.exp_attributes ~where:(loc_string e.exp_loc)
    in
    if e_allows = [] then expr_inner self e
    else begin
      let saved = !scope in
      scope := e_allows @ saved;
      Fun.protect
        ~finally:(fun () -> scope := saved)
        (fun () -> expr_inner self e)
    end
  and expr_inner self (e : expression) =
    match e.exp_desc with
    | Texp_ident (p, _, vd) -> (
        match resolve_value ctx p with
        | Some name -> reference name vd
        | None -> ())
    | Texp_apply ({ exp_desc = Texp_ident (fp, _, fvd); _ }, args) -> (
        let fname = resolve_value ctx fp in
        let loc = loc_string e.exp_loc in
        let walk_args () =
          List.iter (fun (_, a) -> Option.iter (expr self) a) args
        in
        match fname with
        | Some name when seam_of name <> None ->
            Option.iter (fun n -> reference n fvd) fname;
            spawn_site self name (Option.get (seam_of name)) e.exp_loc args
        | Some name when SSet.mem name atomic_heads -> (
            (* sanctioned; recorded for --debug completeness *)
            match args with
            | (_, Some target) :: rest ->
                record_write ~cls:Atomic target ~kind:name loc;
                List.iter (fun (_, a) -> Option.iter (expr self) a) rest
            | _ -> walk_args ())
        | Some name when SSet.mem name dls_heads -> walk_args ()
        | Some name when SSet.mem name ref_heads -> (
            match args with
            | (_, Some target) :: rest ->
                record_write target
                  ~kind:
                    (if name = ":=" then "ref assignment"
                     else name ^ " on a ref")
                  loc;
                expr self target;
                List.iter (fun (_, a) -> Option.iter (expr self) a) rest
            | _ -> walk_args ())
        | Some name when SSet.mem name array_set_heads -> (
            match args with
            | (_, Some target) :: (_, Some index) :: rest ->
                let cls =
                  if expr_tainted ctx tainted index then Slot_disjoint
                  else Shared
                in
                record_write ~cls target
                  ~kind:
                    (if cls = Slot_disjoint then
                       "array write (slot-derived index)"
                     else "array write with a data-dependent index")
                  loc;
                expr self target;
                expr self index;
                List.iter (fun (_, a) -> Option.iter (expr self) a) rest
            | _ -> walk_args ())
        | Some name when SSet.mem name mutator_heads ->
            let target =
              match name with
              | "Array.sort" | "Array.fast_sort" | "Array.stable_sort" ->
                  nth_positional 1 args
              | _ -> nth_positional 0 args
            in
            Option.iter (fun tgt -> record_write tgt ~kind:name loc) target;
            walk_args ()
        | Some name ->
            reference name fvd;
            walk_args ()
        | None -> walk_args ())
    | Texp_setfield (target, _, label, value) ->
        record_write target
          ~kind:
            (Printf.sprintf "assignment to field %s" label.Types.lbl_name)
          (loc_string e.exp_loc);
        expr self target;
        expr self value
    | Texp_let (_, vbs, body) ->
        (* named local functions become their own nodes, exactly as in
           cophy-dsa: their writes are charged where they happen, and
           reachability decides whether they are audited *)
        let is_local_fn (vb : value_binding) =
          match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
          | Tpat_var _, Texp_function _ -> true
          | _ -> false
        in
        let fn_vbs, other_vbs = List.partition is_local_fn vbs in
        let subs =
          List.map
            (fun (vb : value_binding) ->
              let id =
                match vb.vb_pat.pat_desc with
                | Tpat_var (id, _) -> id
                | _ -> assert false
              in
              let base = nd.r_name ^ "." ^ Ident.name id in
              let cname =
                if Hashtbl.mem an.nodes base then
                  nd.r_name ^ "." ^ Ident.unique_name id
                else base
              in
              Hashtbl.replace ctx.rctx.Ak_resolve.values
                (Ident.unique_name id) cname;
              let sub = node an cname (loc_string vb.vb_loc) in
              sub.r_function <- true;
              sub.r_parent <- Some nd;
              (vb, sub))
            fn_vbs
        in
        List.iter
          (fun ((vb : value_binding), sub) ->
            let allows =
              parse_allow an vb.vb_attributes ~where:(loc_string vb.vb_loc)
            in
            collect_with_scope ctx ~nd:sub ~allows vb.vb_expr)
          subs;
        List.iter
          (fun (vb : value_binding) ->
            expr self vb.vb_expr;
            if expr_tainted ctx tainted vb.vb_expr then
              List.iter (fun (id, _) -> taint id)
                (Ak_resolve.pattern_idents vb.vb_pat))
          other_vbs;
        expr self body
    | Texp_for (id, _, lo, hi, _, fbody) ->
        expr self lo;
        expr self hi;
        if expr_tainted ctx tainted lo || expr_tainted ctx tainted hi then
          taint id;
        expr self fbody
    | _ -> super.expr self e
  and spawn_site self seam spec loc args =
    let arg =
      match spec with
      | Pos k ->
          let rec go k = function
            | (Asttypes.Nolabel, (Some _ as a)) :: tl ->
                if k = 0 then a else go (k - 1) tl
            | _ :: tl -> go k tl
            | [] -> None
          in
          go k args
      | Labeled l ->
          List.find_map
            (fun ((lbl : Asttypes.arg_label), a) ->
              match lbl with Asttypes.Labelled s when s = l -> a | _ -> None)
            args
    in
    let site = Printf.sprintf "%s at %s" seam (loc_string loc) in
    let mark_root n =
      n.r_spawn_root <- true;
      if n.r_spawn_site = None then n.r_spawn_site <- Some site
    in
    List.iter
      (fun (_, a) ->
        match (a, arg) with
        | Some ae, Some fa when ae == fa -> (
            match ae.exp_desc with
            | Texp_ident (p, _, _) -> (
                match resolve_value ctx p with
                | Some name ->
                    add_call name;
                    mark_root (node an name (loc_string loc))
                | None ->
                    (* a function parameter handed to the seam: its body
                       is unknown here; the concrete closure was charged
                       to whichever node created it *)
                    ())
            | _ ->
                let root_name =
                  Printf.sprintf "%s{closure@%s}" nd.r_name (loc_string loc)
                in
                let root = node an root_name (loc_string loc) in
                root.r_function <- true;
                root.r_parent <- Some nd;
                mark_root root;
                collect_with_scope ctx ~nd:root ~allows:[] ae;
                add_call root_name)
        | Some ae, _ -> expr self ae
        | None, _ -> ())
      args
  and nth_positional k args =
    let rec go k = function
      | (Asttypes.Nolabel, (Some _ as a)) :: tl ->
          if k = 0 then a else go (k - 1) tl
      | _ :: tl -> go k tl
      | [] -> None
    in
    go k args
  in
  let it = { super with expr } in
  (* binding-level allows arrive via [collect_with_scope] *)
  it.expr it expr0

(* Collect [expr] into [nd] with [allows] in scope for its whole body. *)
and collect_with_scope ctx ~nd ~allows expr =
  if allows = [] then collect_body ctx ~nd expr
  else begin
    (* binding-level allows cover the entire body: splice them in by
       collecting normally, then rebinding unmatched shared writes *)
    collect_body ctx ~nd expr;
    nd.r_writes <-
      List.map
        (fun w ->
          if w.w_cls = Shared && w.w_allow = None then
            let last = Ak_names.last_component w.w_target in
            match List.find_opt (fun a -> a.a_target = last) allows with
            | Some a -> { w with w_allow = Some a }
            | None -> w
          else w)
        nd.r_writes
  end

(* ------------------------------------------------------------------ *)
(* Structure walk                                                      *)
(* ------------------------------------------------------------------ *)

let rec walk_structure ctx prefix (str : structure) =
  Ak_resolve.register_items ctx.rctx prefix str;
  List.iter
    (fun (item : structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : value_binding) ->
              let allows =
                parse_allow ctx.an vb.vb_attributes
                  ~where:(loc_string vb.vb_loc)
              in
              match Ak_resolve.pattern_idents vb.vb_pat with
              | [] ->
                  let nd =
                    node ctx.an (prefix ^ ".(init)") (loc_string vb.vb_loc)
                  in
                  collect_with_scope ctx ~nd ~allows vb.vb_expr
              | (_, name0) :: _ ->
                  let nd =
                    node ctx.an (prefix ^ "." ^ name0) (loc_string vb.vb_loc)
                  in
                  nd.r_function <- is_arrow vb.vb_expr.exp_type;
                  collect_with_scope ctx ~nd ~allows vb.vb_expr)
            vbs
      | Tstr_module mb -> walk_module ctx prefix mb
      | Tstr_recmodule mbs -> List.iter (walk_module ctx prefix) mbs
      | Tstr_eval (e, attrs) ->
          let allows =
            parse_allow ctx.an attrs ~where:(loc_string item.str_loc)
          in
          let nd = node ctx.an (prefix ^ ".(init)") (loc_string item.str_loc) in
          collect_with_scope ctx ~nd ~allows e
      | _ -> ())
    str.str_items

and walk_module ctx prefix (mb : module_binding) =
  match mb.mb_name.Location.txt with
  | Some name -> (
      match (Ak_resolve.strip_module_constraints mb.mb_expr).mod_desc with
      | Tmod_structure str -> walk_structure ctx (prefix ^ "." ^ name) str
      | _ -> ())
  | None -> ()

let load_file t path =
  match Ak_cmt.load path with
  | Ak_cmt.Impl (prefix, str) ->
      let ctx = { an = t; rctx = Ak_resolve.create ~unit_prefix:prefix } in
      walk_structure ctx prefix str
  | Ak_cmt.Intf _ | Ak_cmt.Other -> ()

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

let succs t name =
  match Hashtbl.find_opt t.nodes name with
  | None -> []
  | Some nd ->
      List.filter (fun c -> Hashtbl.mem t.nodes c) nd.r_calls
      |> List.sort compare

let spawn_roots t =
  Hashtbl.fold
    (fun _ nd acc -> if nd.r_spawn_root then nd.r_name :: acc else acc)
    t.nodes []
  |> List.sort compare

let spawn_reachable t =
  Ak_graph.reach ~roots:(SSet.of_list (spawn_roots t)) ~succs:(succs t)

(* The root whose BFS tree discovered [name], for naming the spawn site. *)
let root_of paths name =
  let rec go n =
    match Ak_names.SMap.find_opt n paths.Ak_graph.parent with
    | Some up -> go up
    | None -> n
  in
  go name

(* A captured write is only *shared* when the capture crosses a spawn
   boundary.  [helper_job] capturing [parallel_map]'s [remaining] is
   shared: helper_job runs once per worker while the single
   parallel_map frame that bound [remaining] encloses all of them.
   [Simplex.run_phase.loop] capturing run_phase's [stall] is confined:
   loop is reached by an ordinary call, so each task entering run_phase
   gets a fresh frame — the refs never alias across domains.  The test:
   walk up the lexical parent chain from the writing node to the binder
   of [uid]; the write is confined iff no node strictly below the
   binder is a spawn root (i.e. no seam sits between the binding frame
   and the code doing the write). *)
let capture_is_confined (nd : node) uid =
  let rec go (n : node) crossed =
    match n.r_parent with
    | None -> false (* binder not found: stay conservative *)
    | Some p ->
        let crossed = crossed || n.r_spawn_root in
        if Hashtbl.mem p.r_locals uid then not crossed else go p crossed
  in
  go nd false

let check_shared_writes t =
  let paths = Ak_graph.reach_paths ~roots:(spawn_roots t) ~succs:(succs t) in
  let flagged = ref [] in
  SSet.iter
    (fun name ->
      match Hashtbl.find_opt t.nodes name with
      | None -> ()
      | Some nd ->
          List.iter
            (fun w ->
              let confined =
                match w.w_ident with
                | Some uid -> capture_is_confined nd uid
                | None -> false
              in
              if w.w_cls = Shared && not confined then
                match w.w_allow with
                | Some a -> a.a_used <- true
                | None -> flagged := (nd, w) :: !flagged)
            nd.r_writes)
    paths.Ak_graph.visited;
  List.iter
    (fun ((nd : node), w) ->
      let root = root_of paths nd.r_name in
      let site =
        match (Hashtbl.find_opt t.nodes root : node option) with
        | Some r -> Option.value r.r_spawn_site ~default:(r.r_name ^ " (spawn root)")
        | None -> root
      in
      report t Shared_mutable w.w_loc
        ~path:(("spawned: " ^ site) :: Ak_graph.chain paths nd.r_name)
        "shared-mutable write to %s %s (%s) in %s, reachable from spawn \
         site [%s] via %s; make the write slot-disjoint, route it through \
         Atomic, or justify with [@race.allow %s \"...\"]"
        (if w.w_captured then "captured" else "module-level")
        w.w_target w.w_kind nd.r_name site
        (Ak_graph.chain_string paths nd.r_name)
        (Ak_names.last_component w.w_target))
    (List.sort compare !flagged)

let check_unused_allows t =
  List.iter
    (fun a ->
      if not a.a_used then
        report t Unused_allow a.a_where
          "[@race.allow %s \"%s\"] never matched a spawn-reachable \
           shared-mutable write; delete it or move it to the write it is \
           meant to justify"
          a.a_target a.a_why)
    (List.sort compare (List.rev t.allows))

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let analyze files =
  let t = create () in
  List.iter (load_file t) files;
  t

let run_checks t =
  check_shared_writes t;
  check_unused_allows t;
  List.rev t.violations
