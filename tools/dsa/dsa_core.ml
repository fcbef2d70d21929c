(* cophy-dsa: interprocedural domain-safety and exception-escape analysis
   over the typed ASTs (.cmt / .cmti) that dune already produces.

   Where cophy-lint (tools/lint) enforces *syntactic*, per-expression
   rules, this layer proves *whole-program* properties of lib/:

     1. domain_safety     every function transitively reachable from a
                          closure handed to a spawn seam
                          ([Ak_seams.seams]: [Runtime.parallel_map],
                          [Domain.spawn], [Runtime.submit]'s job) is
                          free of [mutates_global],
                          [io] and [nondet] effects (unless justified
                          with [@dsa.allow <effect> "<why>"]).
     2. exception_escape  the inferred escaping-exception set of every
                          public (.mli-exported) function stays within
                          the checked-in allowlist
                          (tools/dsa/exceptions.toml).
     3. signature_drift   the inferred per-function effect signatures
                          match the committed snapshot
                          (tools/dsa/signatures.expected); effect
                          changes are reviewed like test output and
                          accepted with [dune build @dsa-promote].
     4. stale_allowlist   every exceptions.toml entry still names a live
                          public function; `dune build @dsa-prune` drops
                          the stale ones so the allowlists can't rot.

   Pipeline: load every .cmt (implementations) and .cmti (interfaces),
   walk the typed trees collecting per-function *direct* effects and
   call atoms, then run a fixpoint that propagates effects over the
   cross-module call graph.  Name normalization, resolution contexts,
   the justification-attribute grammar, the graph fixpoint/reachability
   machinery and the findings representation live in
   tools/analysis_kernel, shared with cophy-race (tools/race).

   Call-graph construction.  A node is a module-level value binding
   (including bindings in nested structures: [Runtime.Fx.approx]).  An
   edge g -> f is recorded whenever g's body *references* f through a
   function-typed identifier — not only direct applications.  This
   "reference closure" is what makes first-class-function flow through
   [List.map] / [parallel_map]-style higher-order arguments sound for
   reachability: the concrete closure passed into a higher-order
   combinator is referenced (and inline closures are traversed) at the
   point where it is created, so its effects are charged to the function
   that put it in flight.  The cost is attribution precision: effects of
   a closure are charged to its creator even when the closure is only
   run elsewhere.  See DESIGN.md §10 for the soundness caveats
   (escape through data structures, effects of unannotated function
   parameters).

   Exception inference tracks the set of extension constructors that can
   escape each function: direct [raise]/[failwith]/known raising stdlib
   primitives, plus callee sets filtered through the [try]/[match
   ... with exception] handlers enclosing each call site.  A catch-all
   handler swallows everything unless its body re-raises the caught
   variable (then it is transparent); [raise] of an arbitrary expression
   infers the unknown exception ["*"]. *)

module SSet = Ak_names.SSet
module SMap = Ak_names.SMap

(* ------------------------------------------------------------------ *)
(* Effects and rules                                                   *)
(* ------------------------------------------------------------------ *)

type effect_kind = Mutates_global | Io | Nondet

let effect_name = function
  | Mutates_global -> "mutates_global"
  | Io -> "io"
  | Nondet -> "nondet"

let effect_of_string = function
  | "mutates_global" -> Some Mutates_global
  | "io" -> Some Io
  | "nondet" -> Some Nondet
  | _ -> None

type rule =
  | Domain_safety
  | Exception_escape
  | Signature_drift
  | Stale_allowlist
  | Bad_attr

let rule_name = function
  | Domain_safety -> "domain_safety"
  | Exception_escape -> "exception_escape"
  | Signature_drift -> "signature_drift"
  | Stale_allowlist -> "stale_allowlist"
  | Bad_attr -> "bad_attr"

let all_rule_names =
  List.map rule_name
    [ Domain_safety; Exception_escape; Signature_drift; Stale_allowlist;
      Bad_attr ]

(* Violations are the kernel's machine-readable findings; the [--json]
   driver flag serializes them as a SARIF run. *)
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

(* Handler context recorded at a call/raise site, innermost first. *)
type mask = { caught : SSet.t; catch_all : bool; reraises : bool }

type atom =
  | Call of string * mask list  (* reference to a function-typed node *)
  | Raise of string * mask list  (* "*" = statically unknown exception *)

type node = {
  n_name : string;
  n_loc : string;  (* "file:line" of the defining binding *)
  mutable n_function : bool;  (* the bound value has arrow type *)
  mutable n_spawn_root : bool;  (* handed to a spawn seam ([Ak_seams]) *)
  (* direct effects: (effect, loc, what) *)
  mutable n_direct : (effect_kind * string * string) list;
  mutable n_atoms : atom list;
  (* [@dsa.allow <effect> "<why>"] justifications in scope at the binding *)
  mutable n_allows : (effect_kind * string) list;
  (* fixpoint results *)
  mutable n_effects : (effect_kind * string) list;  (* effect, origin node *)
  mutable n_raises : SSet.t;
}

type t = {
  nodes : (string, node) Hashtbl.t;
  (* public (.mli-exported) value names, from .cmti interfaces *)
  mutable exported : SSet.t;
  mutable violations : violation list;
}

let create () =
  { nodes = Hashtbl.create 512; exported = SSet.empty; violations = [] }

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
          n_name = name;
          n_loc = loc;
          n_function = false;
          n_spawn_root = false;
          n_direct = [];
          n_atoms = [];
          n_allows = [];
          n_effects = [];
          n_raises = SSet.empty;
        }
      in
      Hashtbl.add t.nodes name n;
      n

(* ------------------------------------------------------------------ *)
(* Builtin effect / exception tables                                   *)
(* ------------------------------------------------------------------ *)

(* Names are matched after [Ak_names.normalize] (so without a "Stdlib."
   prefix). *)

let io_exact =
  SSet.of_list
    [
      "open_in"; "open_in_bin"; "open_in_gen"; "open_out"; "open_out_bin";
      "open_out_gen"; "close_in"; "close_in_noerr"; "close_out";
      "close_out_noerr"; "input_line"; "input_char"; "input_byte";
      "input_value"; "really_input"; "really_input_string"; "input";
      "output"; "output_string"; "output_char"; "output_byte"; "output_bytes";
      "output_substring"; "output_value"; "flush"; "flush_all";
      "print_string"; "print_char"; "print_int"; "print_float";
      "print_endline"; "print_newline"; "print_bytes"; "prerr_string";
      "prerr_char"; "prerr_int"; "prerr_float"; "prerr_endline";
      "prerr_newline"; "prerr_bytes"; "read_line"; "read_int";
      "read_int_opt"; "read_float"; "read_float_opt"; "stdin"; "stdout";
      "stderr"; "exit"; "at_exit"; "Printf.printf"; "Printf.eprintf";
      "Format.printf"; "Format.eprintf"; "Format.print_string";
      "Format.std_formatter"; "Format.err_formatter"; "Fmt.pr"; "Fmt.epr";
      "Fmt.stdout"; "Fmt.stderr"; "Sys.command"; "Sys.remove"; "Sys.rename";
      "Sys.getenv"; "Sys.getenv_opt"; "Sys.file_exists"; "Sys.is_directory";
      "Sys.readdir"; "Sys.chdir"; "Sys.getcwd"; "Sys.mkdir"; "Sys.rmdir";
      "Filename.temp_file"; "Filename.open_temp_file";
    ]

let io_prefixes =
  [ "Unix."; "In_channel."; "Out_channel."; "Logs." ]

let nondet_exact =
  SSet.of_list
    [
      "Unix.gettimeofday"; "Unix.time"; "Sys.time"; "Domain.self";
      (* order-sensitive hash-table enumeration: results depend on
         Hashtbl.hash bucket layout *)
      "Hashtbl.iter"; "Hashtbl.fold";
    ]

(* Random.* uses the implicit global PRNG state; Random.State.* with a
   caller-threaded seeded state is deterministic and sanctioned. *)
let is_nondet name =
  SSet.mem name nondet_exact
  || (Ak_names.has_prefix ~prefix:"Random." name
     && not (Ak_names.has_prefix ~prefix:"Random.State." name))

let is_io name =
  SSet.mem name io_exact
  || List.exists
       (fun p ->
         String.length name > String.length p
         && Ak_names.has_prefix ~prefix:p name
         && not (SSet.mem name nondet_exact))
       io_prefixes

(* Stdlib functions with a documented raising behaviour.  Array /
   string / Bytes indexing (Invalid_argument on out-of-bounds) is
   deliberately not modelled: every index expression would infer it and
   the allowlists would drown in noise — a soundness caveat documented
   in DESIGN.md §10. *)
let raising_builtins =
  [
    ("failwith", "Failure");
    ("invalid_arg", "Invalid_argument");
    ("int_of_string", "Failure");
    ("float_of_string", "Failure");
    ("bool_of_string", "Invalid_argument");
    ("List.hd", "Failure");
    ("List.tl", "Failure");
    ("List.nth", "Failure");
    ("List.find", "Not_found");
    ("List.assoc", "Not_found");
    ("List.combine", "Invalid_argument");
    ("List.map2", "Invalid_argument");
    ("List.iter2", "Invalid_argument");
    ("List.fold_left2", "Invalid_argument");
    ("Option.get", "Invalid_argument");
    ("Hashtbl.find", "Not_found");
    ("Sys.getenv", "Not_found");
    ("Queue.pop", "Queue.Empty");
    ("Queue.take", "Queue.Empty");
    ("Queue.peek", "Queue.Empty");
    ("Stack.pop", "Stack.Empty");
    ("Stack.top", "Stack.Empty");
  ]

(* In-place mutators: flagged as [mutates_global] when their first
   positional argument resolves to a module-level binding (mutating
   local state is invisible from outside and stays pure). *)
let mutator_heads =
  SSet.of_list
    [
      ":="; "incr"; "decr"; "Hashtbl.add"; "Hashtbl.replace";
      "Hashtbl.remove"; "Hashtbl.reset"; "Hashtbl.clear"; "Hashtbl.add_seq";
      "Hashtbl.replace_seq"; "Hashtbl.filter_map_inplace"; "Queue.push";
      "Queue.add"; "Queue.pop"; "Queue.take"; "Queue.clear"; "Queue.transfer";
      "Stack.push"; "Stack.pop"; "Stack.clear"; "Buffer.add_string";
      "Buffer.add_char"; "Buffer.add_bytes"; "Buffer.add_substring";
      "Buffer.add_subbytes"; "Buffer.add_buffer"; "Buffer.add_channel";
      "Buffer.clear"; "Buffer.reset"; "Buffer.truncate"; "Array.set";
      "Array.fill"; "Array.blit"; "Array.sort"; "Array.fast_sort";
      "Array.stable_sort"; "Array.unsafe_set"; "Bytes.set"; "Bytes.fill";
      "Bytes.blit"; "Bytes.unsafe_set";
    ]

(* ------------------------------------------------------------------ *)
(* Typedtree helpers                                                   *)
(* ------------------------------------------------------------------ *)

open Typedtree

let loc_string = Ak_resolve.loc_string
let is_arrow = Ak_resolve.is_arrow

(* [@dsa.allow <effect> "<justification>"] payloads.  The justification
   string is mandatory: an unexplained suppression is a bad_attr. *)
let parse_allow t (attrs : Parsetree.attributes) ~where =
  let parsed =
    Ak_attr.parse ~name:"dsa.allow"
      ~valid:(fun id -> effect_of_string id <> None)
      attrs
  in
  List.iter (fun msg -> report t Bad_attr where "%s" msg) parsed.Ak_attr.malformed;
  List.filter_map
    (fun (id, why) ->
      Option.map (fun k -> (k, why)) (effect_of_string id))
    parsed.Ak_attr.allows

(* ------------------------------------------------------------------ *)
(* Per-compilation-unit collection                                     *)
(* ------------------------------------------------------------------ *)

type unit_ctx = { an : t; rctx : Ak_resolve.ctx }

let resolve_value ctx p = Ak_resolve.resolve_value ctx.rctx p
let resolve_exn ctx p = Ak_resolve.resolve_exn ctx.rctx p

(* Pre-scan of try/match handler cases: which constructors are caught,
   is there a catch-all, and does any catch-all body re-raise the caught
   variable (then the handler is transparent for escape analysis). *)
let scan_handlers ctx (cases : value case list) =
  let caught = ref SSet.empty in
  let catch_all = ref false in
  let reraises = ref false in
  let rec pat_info (p : pattern) =
    match p.pat_desc with
    | Tpat_construct (_, cd, _, _) -> (
        match cd.Types.cstr_tag with
        | Types.Cstr_extension (path, _) ->
            caught := SSet.add (resolve_exn ctx path) !caught
        | _ -> ())
    | Tpat_or (a, b, _) ->
        pat_info a;
        pat_info b
    | Tpat_alias (p', _, _) -> pat_info p'
    | Tpat_any | Tpat_var _ -> catch_all := true
    | _ -> ()
  in
  let bound_var (p : pattern) =
    let rec go (p : pattern) =
      match p.pat_desc with
      | Tpat_var (id, _) -> Some id
      | Tpat_alias (_, id, _) -> Some id
      | Tpat_or (a, _, _) -> go a
      | _ -> None
    in
    go p
  in
  List.iter
    (fun (c : value case) ->
      pat_info c.c_lhs;
      match bound_var c.c_lhs with
      | None -> ()
      | Some id ->
          (* does the handler body re-raise [id]? *)
          let found = ref false in
          let super = Tast_iterator.default_iterator in
          let expr self (e : expression) =
            (match e.exp_desc with
            | Texp_apply
                ( { exp_desc = Texp_ident (fp, _, _); _ },
                  (_, Some { exp_desc = Texp_ident (Path.Pident aid, _, _); _ })
                  :: _ )
              when Ident.same aid id ->
                let fname =
                  match resolve_value ctx fp with Some n -> n | None -> ""
                in
                if
                  fname = "raise" || fname = "raise_notrace"
                  || fname = "Printexc.raise_with_backtrace"
                then found := true
            | Texp_apply
                ( { exp_desc = Texp_ident (fp, _, _); _ },
                  [ _; (_, Some { exp_desc = Texp_ident (Path.Pident aid, _, _); _ }) ] )
              when Ident.same aid id && Path.name fp = "Printexc.raise_with_backtrace"
              ->
                found := true
            | _ -> ());
            super.expr self e
          in
          let it = { super with expr } in
          it.expr it c.c_rhs;
          if !found then reraises := true)
    cases;
  { caught = !caught; catch_all = !catch_all; reraises = !reraises }

(* Handler info for [match ... with exception E -> ...] cases. *)
let scan_exception_handlers ctx (cases : computation case list) =
  let exc_cases = ref [] in
  let has_exc = ref false in
  List.iter
    (fun (c : computation case) ->
      let rec split (p : computation general_pattern) =
        match p.pat_desc with
        | Tpat_exception vp ->
            has_exc := true;
            exc_cases :=
              { c_lhs = vp; c_guard = c.c_guard; c_rhs = c.c_rhs }
              :: !exc_cases
        | Tpat_or (a, b, _) ->
            split a;
            split b
        | _ -> ()
      in
      split c.c_lhs)
    cases;
  if !has_exc then Some (scan_handlers ctx (List.rev !exc_cases)) else None

(* Collect the atoms and direct effects of one node body. *)
let rec collect_body ctx ~(nd : node) ~allows expr0 =
  let masks : mask list ref = ref [] in
  (* identifiers bound to a caught exception by an enclosing handler:
     re-raising one is modeled by that handler's [reraises] mask, not as
     a fresh statically-unknown raise *)
  let handler_ids : Ident.t list ref = ref [] in
  let rec exn_bound_ids (p : pattern) acc =
    match p.pat_desc with
    | Tpat_var (id, _) -> id :: acc
    | Tpat_alias (p', id, _) -> exn_bound_ids p' (id :: acc)
    | Tpat_or (a, b, _) -> exn_bound_ids a (exn_bound_ids b acc)
    | _ -> acc
  in
  let an = ctx.an in
  let allowed k = List.mem_assoc k allows || List.mem_assoc k nd.n_allows in
  let direct k loc what =
    if not (allowed k) then nd.n_direct <- (k, loc, what) :: nd.n_direct
  in
  let add_call name = nd.n_atoms <- Call (name, !masks) :: nd.n_atoms in
  let add_raise exn = nd.n_atoms <- Raise (exn, !masks) :: nd.n_atoms in
  (* effects of referencing a global identifier *)
  let reference name loc (vd : Types.value_description) =
    if is_io name then direct Io loc name
    else if is_nondet name then direct Nondet loc name
    else begin
      (match List.assoc_opt name raising_builtins with
      | Some exn -> add_raise exn
      | None -> ());
      if is_arrow vd.Types.val_type then add_call name
    end
  in
  let super = Tast_iterator.default_iterator in
  let rec expr self (e : expression) =
    let e_allows = parse_allow an e.exp_attributes ~where:(loc_string e.exp_loc) in
    if e_allows = [] then expr_inner self e
    else begin
      (* expression-scoped allow: push onto the node's allow list for the
         duration of this subtree only *)
      let saved = nd.n_allows in
      nd.n_allows <- e_allows @ saved;
      Fun.protect
        ~finally:(fun () -> nd.n_allows <- saved)
        (fun () -> expr_inner self e)
    end
  and expr_inner self (e : expression) =
    match e.exp_desc with
    | Texp_ident (p, _, vd) -> (
        match resolve_value ctx p with
        | Some name -> reference name (loc_string e.exp_loc) vd
        | None -> ())
    | Texp_apply ({ exp_desc = Texp_ident (fp, _, fvd); _ }, args) -> (
        let fname = resolve_value ctx fp in
        match fname with
        | Some ("raise" | "raise_notrace") -> (
            match args with
            | [ (_, Some arg) ] -> raise_arg self arg
            | _ ->
                add_raise "*";
                List.iter (fun (_, a) -> Option.iter (expr self) a) args)
        | Some "Printexc.raise_with_backtrace" -> (
            match args with
            | (_, Some arg) :: rest ->
                raise_arg self arg;
                List.iter (fun (_, a) -> Option.iter (expr self) a) rest
            | _ -> add_raise "*")
        | Some name when Ak_seams.seam_of name <> None ->
            reference name (loc_string e.exp_loc) fvd;
            spawn_site self (Option.get (Ak_seams.seam_of name)) e.exp_loc args
        | Some name when SSet.mem name mutator_heads ->
            (* the mutated value is the first positional argument —
               except for the sort family, whose first argument is the
               comparator and whose second is the array *)
            let mutated =
              match name with
              | "Array.sort" | "Array.fast_sort" | "Array.stable_sort" ->
                  Ak_resolve.nth_positional 1 args
              | _ -> Ak_resolve.nth_positional 0 args
            in
            (match mutated with
            | Some { exp_desc = Texp_ident (tp, _, _); exp_loc; _ } -> (
                match resolve_value ctx tp with
                | Some target
                  when Hashtbl.mem an.nodes target
                       || (match tp with Path.Pdot _ -> true | _ -> false) ->
                    direct Mutates_global (loc_string exp_loc)
                      (Printf.sprintf "%s on module-level %s" name target)
                | _ -> ())
            | _ -> ());
            reference name (loc_string e.exp_loc) fvd;
            List.iter (fun (_, a) -> Option.iter (expr self) a) args
        | _ ->
            reference
              (Option.value fname ~default:"")
              (loc_string e.exp_loc) fvd;
            List.iter (fun (_, a) -> Option.iter (expr self) a) args)
    | Texp_try (body, handlers) ->
        let m = scan_handlers ctx handlers in
        masks := m :: !masks;
        expr self body;
        masks := List.tl !masks;
        List.iter (fun (c : value case) ->
            Option.iter (expr self) c.c_guard;
            let saved = !handler_ids in
            handler_ids := exn_bound_ids c.c_lhs saved;
            expr self c.c_rhs;
            handler_ids := saved)
          handlers
    | Texp_match (scrut, cases, _) ->
        (match scan_exception_handlers ctx cases with
        | Some m ->
            masks := m :: !masks;
            expr self scrut;
            masks := List.tl !masks
        | None -> expr self scrut);
        let rec comp_exn_ids (p : computation general_pattern) acc =
          match p.pat_desc with
          | Tpat_exception vp -> exn_bound_ids vp acc
          | Tpat_or (a, b, _) -> comp_exn_ids a (comp_exn_ids b acc)
          | _ -> acc
        in
        List.iter
          (fun (c : computation case) ->
            Option.iter (expr self) c.c_guard;
            let saved = !handler_ids in
            handler_ids := comp_exn_ids c.c_lhs saved;
            expr self c.c_rhs;
            handler_ids := saved)
          cases
    | Texp_assert
        ({ exp_desc = Texp_construct (_, { cstr_name = "false"; _ }, _); _ }, _)
      ->
        (* [assert false] marks unreachable branches; inferring
           Assert_failure for them would poison every allowlist. *)
        ()
    | Texp_assert _ ->
        add_raise "Assert_failure";
        super.expr self e
    | Texp_let (_, vbs, body) ->
        (* Named local functions become their own call-graph nodes.
           Raises inside a function body escape at *call* sites, not at
           the definition, so (a) masks enclosing the definition must
           not filter them and (b) masks enclosing a call like
           [try loop () with E -> ...] must — exactly what per-node
           collection plus inter-node mask propagation gives.  Inlining
           them (the previous behaviour) got both wrong ways. *)
        let is_local_fn (vb : value_binding) =
          match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
          | Tpat_var _, Texp_function _ -> true
          | _ -> false
        in
        let fn_vbs, other_vbs = List.partition is_local_fn vbs in
        (* register the whole group first: let rec bindings are mutually
           referencing *)
        let subs =
          List.map
            (fun (vb : value_binding) ->
              let id =
                match vb.vb_pat.pat_desc with
                | Tpat_var (id, _) -> id
                | _ -> assert false
              in
              let base = nd.n_name ^ "." ^ Ident.name id in
              let cname =
                if Hashtbl.mem an.nodes base then
                  nd.n_name ^ "." ^ Ident.unique_name id
                else base
              in
              Hashtbl.replace ctx.rctx.Ak_resolve.values
                (Ident.unique_name id) cname;
              let sub = node an cname (loc_string vb.vb_loc) in
              sub.n_function <- true;
              sub.n_allows <-
                parse_allow an vb.vb_attributes
                  ~where:(loc_string vb.vb_loc)
                @ sub.n_allows;
              (vb, sub))
            fn_vbs
        in
        List.iter
          (fun ((vb : value_binding), sub) ->
            collect_body ctx ~nd:sub ~allows:sub.n_allows vb.vb_expr)
          subs;
        List.iter (fun (vb : value_binding) -> expr self vb.vb_expr)
          other_vbs;
        expr self body
    | Texp_setfield (target, _, _, _) ->
        (match target.exp_desc with
        | Texp_ident (tp, _, _) -> (
            match resolve_value ctx tp with
            | Some tname
              when Hashtbl.mem an.nodes tname
                   || (match tp with Path.Pdot _ -> true | _ -> false) ->
                direct Mutates_global
                  (loc_string e.exp_loc)
                  (Printf.sprintf "field assignment on module-level %s" tname)
            | _ -> ())
        | _ -> ());
        super.expr self e
    | _ -> super.expr self e
  and raise_arg self (arg : expression) =
    match arg.exp_desc with
    | Texp_construct (_, cd, cargs) ->
        (match cd.Types.cstr_tag with
        | Types.Cstr_extension (path, _) -> add_raise (resolve_exn ctx path)
        | _ -> add_raise "*");
        List.iter (expr self) cargs
    | Texp_ident (Path.Pident id, _, _)
      when List.exists (Ident.same id) !handler_ids ->
        (* re-raise of the caught variable: the enclosing handler's
           [reraises] mask already lets the body's exceptions through *)
        ()
    | _ ->
        (* raising a computed exception value; unknown statically *)
        add_raise "*";
        expr self arg
  and spawn_site self k loc args =
    (* the seam's [k]-th positional argument runs on another domain:
       analyze it under its own (root) node *)
    let f_arg = Ak_resolve.nth_positional k args in
    List.iter
      (fun (_, a) ->
        match (a, f_arg) with
        | Some arg, Some fa when arg == fa -> (
            match arg.exp_desc with
            | Texp_ident (p, _, _) -> (
                match resolve_value ctx p with
                | Some name -> (
                    add_call name;
                    match Hashtbl.find_opt an.nodes name with
                    | Some n -> n.n_spawn_root <- true
                    | None ->
                        (* cross-unit reference: mark via a stub node
                           that the defining unit will fill in *)
                        let n = node an name (loc_string loc) in
                        n.n_spawn_root <- true)
                | None ->
                    (* a local function value: effects were attributed to
                       the node that created it; treat the enclosing
                       function as the root conservatively *)
                    nd.n_spawn_root <- true)
            | _ ->
                let root_name =
                  Printf.sprintf "%s{closure@%s}" nd.n_name (loc_string loc)
                in
                let root = node an root_name (loc_string loc) in
                root.n_function <- true;
                root.n_spawn_root <- true;
                collect_into ctx root arg;
                (* the enclosing function still builds + runs the spawn:
                   keep an edge so reachability from outer roots passes
                   through *)
                add_call root_name)
        | Some arg, _ -> expr self arg
        | None, _ -> ())
      args
  in
  let it = { super with expr } in
  it.expr it expr0

(* Collect [arg] (typically an inline closure at a spawn site) into its
   own node. *)
and collect_into ctx root (arg : expression) =
  collect_body ctx ~nd:root ~allows:[] arg

(* ------------------------------------------------------------------ *)
(* Structure walk: define nodes for module-level bindings              *)
(* ------------------------------------------------------------------ *)

let pattern_idents = Ak_resolve.pattern_idents

let rec walk_structure ctx prefix (str : structure) =
  (* pass 1 (kernel): register every module-level value and submodule
     name so forward references resolve *)
  Ak_resolve.register_items ctx.rctx prefix str;
  (* pass 2: analyze bodies *)
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
              match pattern_idents vb.vb_pat with
              | [] ->
                  (* pattern binds no name (e.g. [let () = ...]): module
                     initialization effects *)
                  let nd =
                    node ctx.an (prefix ^ ".(init)") (loc_string vb.vb_loc)
                  in
                  nd.n_allows <- allows @ nd.n_allows;
                  collect_body ctx ~nd ~allows vb.vb_expr
              | idents ->
                  let _, name0 = List.hd idents in
                  let nd =
                    node ctx.an (prefix ^ "." ^ name0) (loc_string vb.vb_loc)
                  in
                  nd.n_allows <- allows @ nd.n_allows;
                  nd.n_function <- is_arrow vb.vb_expr.exp_type;
                  collect_body ctx ~nd ~allows vb.vb_expr;
                  (* the other idents of a destructuring binding alias the
                     first one's node (one Call edge each), so effects of
                     the shared right-hand side flow whichever name a
                     caller references *)
                  List.iter
                    (fun (_, n) ->
                      if n <> name0 then begin
                        let alias =
                          node ctx.an (prefix ^ "." ^ n) (loc_string vb.vb_loc)
                        in
                        alias.n_atoms <-
                          Call (nd.n_name, []) :: alias.n_atoms
                      end)
                    (List.tl idents))
            vbs
      | Tstr_module mb -> walk_module ctx prefix mb
      | Tstr_recmodule mbs -> List.iter (walk_module ctx prefix) mbs
      | Tstr_eval (e, attrs) ->
          let allows =
            parse_allow ctx.an attrs ~where:(loc_string item.str_loc)
          in
          let nd = node ctx.an (prefix ^ ".(init)") (loc_string item.str_loc) in
          nd.n_allows <- allows @ nd.n_allows;
          collect_body ctx ~nd ~allows e
      | _ -> ())
    str.str_items

and walk_module ctx prefix (mb : module_binding) =
  match mb.mb_name.Location.txt with
  | Some name -> (
      match (Ak_resolve.strip_module_constraints mb.mb_expr).mod_desc with
      | Tmod_structure str -> walk_structure ctx (prefix ^ "." ^ name) str
      | _ -> ())
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Interface walk: exported value names                                *)
(* ------------------------------------------------------------------ *)

let rec walk_signature t prefix (sg : signature) =
  List.iter
    (fun (item : signature_item) ->
      match item.sig_desc with
      | Tsig_value vd ->
          t.exported <-
            SSet.add (prefix ^ "." ^ vd.val_name.Location.txt) t.exported
      | Tsig_module md -> (
          match (md.md_name.Location.txt, md.md_type.mty_desc) with
          | Some name, Tmty_signature sub ->
              walk_signature t (prefix ^ "." ^ name) sub
          | _ -> ())
      | _ -> ())
    sg.sig_items

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

let load_file t path =
  match Ak_cmt.load path with
  | Ak_cmt.Impl (prefix, str) ->
      let ctx = { an = t; rctx = Ak_resolve.create ~unit_prefix:prefix } in
      walk_structure ctx prefix str
  | Ak_cmt.Intf (prefix, sg) -> walk_signature t prefix sg
  | Ak_cmt.Other -> ()

(* ------------------------------------------------------------------ *)
(* Fixpoint                                                            *)
(* ------------------------------------------------------------------ *)

let apply_mask raises m =
  if m.reraises then raises
  else if m.catch_all then SSet.empty
  else SSet.diff raises m.caught

let apply_masks raises masks = List.fold_left apply_mask raises masks

let solve t =
  (* seed *)
  Hashtbl.iter
    (fun _ nd ->
      nd.n_effects <-
        List.map (fun (k, _, _) -> (k, nd.n_name)) nd.n_direct
        |> List.sort_uniq compare;
      nd.n_raises <-
        List.fold_left
          (fun acc -> function
            | Raise (e, masks) -> SSet.union acc (apply_masks (SSet.singleton e) masks)
            | Call _ -> acc)
          SSet.empty nd.n_atoms)
    t.nodes;
  (* iterate: effects propagate unmasked, raises through handler masks;
     a node's own [@dsa.allow] clears the allowed effect at that node
     (the justification stops propagation at its source). *)
  Ak_graph.fixpoint (fun ~mark ->
      Hashtbl.iter
        (fun _ nd ->
          List.iter
            (function
              | Call (callee, masks) -> (
                  match Hashtbl.find_opt t.nodes callee with
                  | None -> ()
                  | Some c ->
                      List.iter
                        (fun (k, origin) ->
                          if
                            (not (List.mem_assoc k nd.n_allows))
                            && not
                                 (List.exists (fun (k', _) -> k' = k)
                                    nd.n_effects)
                          then begin
                            nd.n_effects <- (k, origin) :: nd.n_effects;
                            mark ()
                          end)
                        c.n_effects;
                      let masked = apply_masks c.n_raises masks in
                      if not (SSet.subset masked nd.n_raises) then begin
                        nd.n_raises <- SSet.union nd.n_raises masked;
                        mark ()
                      end)
              | Raise _ -> ())
            nd.n_atoms)
        t.nodes)

(* ------------------------------------------------------------------ *)
(* Check 1: domain safety                                              *)
(* ------------------------------------------------------------------ *)

(* Call-edge successors of a node, restricted to known nodes. *)
let succs t name =
  match Hashtbl.find_opt t.nodes name with
  | None -> []
  | Some nd ->
      List.filter_map
        (function
          | Call (callee, _) when Hashtbl.mem t.nodes callee -> Some callee
          | _ -> None)
        nd.n_atoms

let spawn_roots t =
  Hashtbl.fold (fun _ nd acc -> if nd.n_spawn_root then nd.n_name :: acc else acc)
    t.nodes []
  |> List.sort compare

(* Everything reachable over call edges from the spawn roots — the
   closure set whose effects the domain-safety check audits.  Exposed
   for [dsa_main --debug] and the test suite. *)
let spawn_reachable t =
  Ak_graph.reach ~roots:(SSet.of_list (spawn_roots t)) ~succs:(succs t)

let check_domain_safety t =
  (* BFS from spawn roots over call edges, keeping the discovery path so
     violations name the chain from the spawn site. *)
  let paths = Ak_graph.reach_paths ~roots:(spawn_roots t) ~succs:(succs t) in
  let flagged = ref [] in
  SSet.iter
    (fun name ->
      match Hashtbl.find_opt t.nodes name with
      | None -> ()
      | Some nd ->
          List.iter
            (fun (k, loc, what) -> flagged := (nd, k, loc, what) :: !flagged)
            nd.n_direct)
    paths.Ak_graph.visited;
  List.iter
    (fun (nd, k, loc, what) ->
      report t Domain_safety loc
        ~path:(Ak_graph.chain paths nd.n_name)
        "%s effect (%s) in %s, reachable from a parallel_map/Domain.spawn \
         closure via %s; make it effect-free or justify with [@dsa.allow %s \
         \"...\"]"
        (effect_name k) what nd.n_name
        (Ak_graph.chain_string paths nd.n_name)
        (effect_name k))
    (List.sort compare !flagged)

(* ------------------------------------------------------------------ *)
(* Check 2: exception escape                                           *)
(* ------------------------------------------------------------------ *)

(* exceptions.toml: a TOML subset —

     # comment
     ["Lp.Simplex"]
     solve = ["Lp.Lu.Singular", "Failure"]

   Table headers (quoted or bare) set the module prefix; each key line
   declares the @raises allowlist of one exported function.  "*" allows
   any exception (use sparingly). *)

let strip_ws s =
  let n = String.length s in
  let b = ref 0 and e = ref n in
  while !b < n && (s.[!b] = ' ' || s.[!b] = '\t') do incr b done;
  while !e > !b && (s.[!e - 1] = ' ' || s.[!e - 1] = '\t' || s.[!e - 1] = '\r')
  do decr e done;
  String.sub s !b (!e - !b)

let unquote s =
  let n = String.length s in
  if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then String.sub s 1 (n - 2)
  else s

let strip_comment line =
  (* a # outside double quotes starts a comment *)
  let buf = Buffer.create (String.length line) in
  let in_str = ref false in
  (try
     String.iter
       (fun c ->
         if c = '"' then in_str := not !in_str
         else if c = '#' && not !in_str then raise Exit;
         Buffer.add_char buf c)
       line
   with Exit -> ());
  Buffer.contents buf

(* Structure of one toml line, shared by the parser and the pruner. *)
type toml_line =
  | Blank
  | Header of string  (* table prefix *)
  | Entry of string * string list  (* key, exceptions *)

let classify_toml_line ~lineno line =
  let stripped = strip_ws (strip_comment line) in
  if stripped = "" then Blank
  else if stripped.[0] = '[' then begin
    let n = String.length stripped in
    if n < 2 || stripped.[n - 1] <> ']' then
      failwith
        (Printf.sprintf "exceptions.toml:%d: malformed table header" lineno);
    Header (unquote (strip_ws (String.sub stripped 1 (n - 2))))
  end
  else
    match String.index_opt stripped '=' with
    | None ->
        failwith
          (Printf.sprintf "exceptions.toml:%d: expected key = [..]" lineno)
    | Some eq ->
        let key = unquote (strip_ws (String.sub stripped 0 eq)) in
        let value =
          strip_ws (String.sub stripped (eq + 1) (String.length stripped - eq - 1))
        in
        let n = String.length value in
        if n < 2 || value.[0] <> '[' || value.[n - 1] <> ']' then
          failwith
            (Printf.sprintf "exceptions.toml:%d: value must be [\"Exn\", ...]"
               lineno);
        let inner = String.sub value 1 (n - 2) in
        let exns =
          String.split_on_char ',' inner
          |> List.map (fun s -> unquote (strip_ws s))
          |> List.filter (fun s -> s <> "")
        in
        Entry (key, exns)

let parse_exceptions_toml content =
  let table = Hashtbl.create 64 in
  let prefix = ref "" in
  String.split_on_char '\n' content
  |> List.iteri (fun lineno line ->
         match classify_toml_line ~lineno:(lineno + 1) line with
         | Blank -> ()
         | Header p -> prefix := p
         | Entry (key, exns) ->
             let full = if !prefix = "" then key else !prefix ^ "." ^ key in
             Hashtbl.replace table full (SSet.of_list exns));
  table

let check_exception_escape t allowlist =
  let entries =
    Hashtbl.fold (fun _ nd acc -> nd :: acc) t.nodes []
    |> List.filter (fun nd -> SSet.mem nd.n_name t.exported)
    |> List.sort (fun a b -> compare a.n_name b.n_name)
  in
  List.iter
    (fun nd ->
      let allowed =
        match Hashtbl.find_opt allowlist nd.n_name with
        | Some s -> s
        | None -> SSet.empty
      in
      if not (SSet.mem "*" allowed) then
        SSet.iter
          (fun exn ->
            if not (SSet.mem exn allowed) then
              report t Exception_escape nd.n_loc
                "%s can escape public %s but is not in its @raises allowlist \
                 (tools/dsa/exceptions.toml)%s"
                (if exn = "*" then "a statically-unknown exception" else exn)
                nd.n_name
                (if SSet.is_empty allowed then " (no entry declared)" else ""))
          nd.n_raises)
    entries

(* ------------------------------------------------------------------ *)
(* Check 4: allowlist staleness                                        *)
(* ------------------------------------------------------------------ *)

(* An exceptions.toml entry is stale when it no longer names a live
   public (.mli-exported) function: the covered function was renamed,
   moved, or deleted.  Stale entries are dead weight that misleads a
   reviewer into believing an escape path still exists, so — like a
   promoted-but-drifted signature snapshot — they fail the build.
   `dune build @dsa-prune` rewrites the file without them. *)
let stale_allowlist_keys t allowlist =
  Hashtbl.fold (fun key _ acc -> key :: acc) allowlist []
  |> List.filter (fun key -> not (SSet.mem key t.exported))
  |> List.sort compare

let check_allowlist_staleness t allowlist =
  List.iter
    (fun key ->
      report t Stale_allowlist "exceptions.toml"
        "allowlist entry %s names no live public function; drop it (or run \
         `dune build @dsa-prune` to prune every stale entry)"
        key)
    (stale_allowlist_keys t allowlist)

(* The pruned exceptions.toml payload: the committed file minus entries
   for dead functions (tables whose entries all die lose their header
   too).  Comments and blank lines survive; the rewrite is line-based so
   a hand-formatted file stays recognizable. *)
let prune_exceptions_toml t content =
  let out = Buffer.create (String.length content) in
  let prefix = ref "" in
  (* lines held back since the last table header (header itself,
     comments, blanks), in reverse; flushed on the first live entry so a
     table whose keys are all stale vanishes wholesale — comments and
     trailing blank line included *)
  let pending : string list option ref = ref None in
  let emit line = Buffer.add_string out (line ^ "\n") in
  String.split_on_char '\n' content
  |> List.iteri (fun lineno line ->
         match classify_toml_line ~lineno:(lineno + 1) line with
         | Blank -> (
             match !pending with
             | None -> emit line
             | Some ls -> pending := Some (line :: ls))
         | Header p ->
             prefix := p;
             pending := Some [ line ]
         | Entry (key, _) ->
             let full = if !prefix = "" then key else !prefix ^ "." ^ key in
             if SSet.mem full t.exported then begin
               (match !pending with
               | Some ls ->
                   List.iter emit (List.rev ls);
                   pending := None
               | None -> ());
               emit line
             end);
  (* normalize: the committed file ends with exactly one newline *)
  let s = Buffer.contents out in
  let n = ref (String.length s) in
  while !n > 0 && s.[!n - 1] = '\n' do decr n done;
  String.sub s 0 !n ^ "\n"

(* ------------------------------------------------------------------ *)
(* Check 3: signature drift                                            *)
(* ------------------------------------------------------------------ *)

let effect_cell nd k =
  if List.exists (fun (k', _) -> k' = k) nd.n_effects then "yes"
  else if List.mem_assoc k nd.n_allows then "allowed"
  else "-"

let signature_line nd =
  Printf.sprintf "%s : mutates_global=%s io=%s nondet=%s raises={%s}"
    nd.n_name
    (effect_cell nd Mutates_global)
    (effect_cell nd Io) (effect_cell nd Nondet)
    (String.concat "," (SSet.elements nd.n_raises))

(* Emitted snapshot: every public function, sorted, one line each. *)
let signatures t =
  Hashtbl.fold (fun _ nd acc -> nd :: acc) t.nodes []
  |> List.filter (fun nd -> SSet.mem nd.n_name t.exported && nd.n_function)
  |> List.sort (fun a b -> compare a.n_name b.n_name)
  |> List.map signature_line

let check_signature_drift t ~expected =
  let actual = signatures t in
  let key line =
    match String.index_opt line ':' with
    | Some i -> String.trim (String.sub line 0 i)
    | None -> line
  in
  let to_map lines =
    List.fold_left
      (fun m line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then m else SMap.add (key line) line m)
      SMap.empty lines
  in
  let em = to_map expected and am = to_map actual in
  SMap.iter
    (fun k line ->
      match SMap.find_opt k am with
      | None ->
          report t Signature_drift "signatures.expected"
            "%s disappeared from the inferred signatures (stale snapshot \
             line %S); run `dune build @dsa-promote` to accept"
            k line
      | Some line' when line <> line' ->
          report t Signature_drift "signatures.expected"
            "effect signature of %s drifted:\n  expected: %s\n  inferred: %s\n\
             review, then `dune build @dsa-promote` to accept"
            k line line'
      | Some _ -> ())
    em;
  SMap.iter
    (fun k line ->
      if not (SMap.mem k em) then
        report t Signature_drift "signatures.expected"
          "new public function %s has no snapshot entry (inferred: %s); run \
           `dune build @dsa-promote` to accept"
          k line)
    am

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let analyze files =
  let t = create () in
  List.iter (load_file t) files;
  solve t;
  t

let run_checks ?exceptions_toml ?signatures_expected t =
  check_domain_safety t;
  (match exceptions_toml with
  | Some content ->
      let allowlist = parse_exceptions_toml content in
      check_exception_escape t allowlist;
      check_allowlist_staleness t allowlist
  | None -> ());
  (match signatures_expected with
  | Some expected -> check_signature_drift t ~expected
  | None -> ());
  List.rev t.violations
