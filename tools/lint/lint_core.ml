(* cophy-lint, layer 1: source-level determinism / domain-safety lints.

   A compiler-libs AST traversal over every module in lib/ enforcing the
   five repo invariants (see DESIGN.md §9):

     L1 float_eq       no polymorphic =, <>, ==, != or [compare] applied
                       to float-typed expressions — use [Runtime.Fx]
                       (exact, NaN-honest) or a tolerance helper instead.
     L2 hashtbl_order  no order-sensitive [Hashtbl.iter]/[Hashtbl.fold]
                       accumulation — extract with [Runtime.Tbl.sorted_*]
                       so results never depend on hash order.
     L3 global_state   no non-[Atomic] toplevel mutable state (refs,
                       hashtables, arrays, buffers, queues) in library
                       modules — everything in lib/ is reachable from
                       [Runtime.parallel_map] workers.
     L4 catch_all      no [with _ ->] / [with e ->] handler that can
                       swallow [Lu.Singular] or drop a backtrace: a
                       catch-all must capture/re-raise with
                       [Printexc.get_raw_backtrace] /
                       [Printexc.raise_with_backtrace].
     L5 nondet_source  no [Random.self_init] or wall-clock reads
                       ([Unix.gettimeofday], [Unix.time], [Sys.time]) in
                       library code — use [Runtime.Clock] / seeded
                       [Random.State].

   Violations are suppressible only with an explicit attribute naming
   one rule and a mandatory reason,

     let[@lint.allow hashtbl_order "keys are sorted below"] f tbl = ...

   so every exception to a rule is auditable in-tree.  The payload is
   parsed by {!Ak_attr.parse}, the grammar [@dsa.allow] and
   [@race.allow] share; a missing reason or an unknown rule is a
   [bad_attr] violation.  Several rules take several attributes.  The
   attribute scopes over the annotated binding / expression / module.

   The float-typedness test is syntactic (no typing pass): an operand
   counts as float-typed when it is a float literal, a float special
   constant ([infinity], [nan], ...), or an application of a known
   float-returning primitive.  That catches the dangerous comparisons in
   practice ([x <> 0.0], [lb = neg_infinity], ...) without false
   positives on polymorphic containers. *)

type rule =
  | Float_eq
  | Hashtbl_order
  | Global_state
  | Catch_all
  | Nondet_source
  | Bad_attr  (* malformed [@lint.allow] payloads; never suppressible *)

let rule_name = function
  | Float_eq -> "float_eq"
  | Hashtbl_order -> "hashtbl_order"
  | Global_state -> "global_state"
  | Catch_all -> "catch_all"
  | Nondet_source -> "nondet_source"
  | Bad_attr -> "bad_attr"

let rule_of_string = function
  | "float_eq" -> Some Float_eq
  | "hashtbl_order" -> Some Hashtbl_order
  | "global_state" -> Some Global_state
  | "catch_all" -> Some Catch_all
  | "nondet_source" -> Some Nondet_source
  | _ -> None

let all_rules =
  [ Float_eq; Hashtbl_order; Global_state; Catch_all; Nondet_source ]

type violation = {
  v_rule : rule;
  v_file : string;
  v_line : int;
  v_col : int;
  v_message : string;
}

let pp_violation oc v =
  Printf.fprintf oc "%s:%d:%d: [%s] %s\n" v.v_file v.v_line v.v_col
    (rule_name v.v_rule) v.v_message

open Parsetree

(* ------------------------------------------------------------------ *)
(* Syntactic classifiers                                               *)
(* ------------------------------------------------------------------ *)

module SSet = Set.Make (String)

(* --- cross-file float-type environment ---------------------------------

   The purely expression-syntactic classifier misses comparisons whose
   float type hides behind a type alias ([type span = float]) or a
   record field access ([s.elapsed = t.elapsed]).  A pre-pass over the
   type declarations of *all* files in the lint run records which type
   names expand to [float] (transitively through aliases) and which
   record fields carry such a type; [is_floatish] then classifies
   [e.field] and [(e : alias)] operands too.

   Structural comparison walks *into* values, so the pre-pass also
   tracks which types merely *contain* a float somewhere inside —
   through record fields, variant constructor arguments, tuples, and
   type arguments of containers ([array], [list], [option], ...) — to a
   fixpoint.  [x.slots = y.slots] with [slots : req array] and [Nlj of
   float] inside [req] is every bit as bit-blind as [a.elapsed =
   b.elapsed], and historically harder to spot.  Names are matched on
   the last path component — a deliberate over-approximation (any field
   named like a float-carrying field counts) in keeping with the
   linter's flag-first posture. *)

type tyenv = {
  mutable float_aliases : SSet.t;  (* type names whose manifest is float *)
  mutable float_carrying : SSet.t;
      (* type names whose values structurally contain a float *)
  mutable float_fields : SSet.t;
      (* record fields of a float(-alias) or float-carrying type *)
}

let empty_tyenv () =
  {
    float_aliases = SSet.empty;
    float_carrying = SSet.empty;
    float_fields = SSet.empty;
  }

let rec core_type_is_float env (t : core_type) =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt = lid; _ }, []) ->
      let last = Longident.last lid in
      last = "float"
      || SSet.mem last env.float_aliases
      || SSet.mem (String.concat "." (Longident.flatten lid)) env.float_aliases
  | Ptyp_alias (t', _) -> core_type_is_float env t'
  | _ -> false

(* Does a value of this type structurally contain a float anywhere a
   polymorphic comparison would walk?  Floats and float aliases count;
   so do named types already known to carry one, tuples with a carrying
   component, and any type constructor applied to a carrying argument
   ([req array], [float list], [span option], ...). *)
let rec core_type_carries_float env (t : core_type) =
  core_type_is_float env t
  ||
  match t.ptyp_desc with
  | Ptyp_constr ({ txt = lid; _ }, args) ->
      let last = Longident.last lid in
      SSet.mem last env.float_carrying
      || SSet.mem
           (String.concat "." (Longident.flatten lid))
           env.float_carrying
      || List.exists (core_type_carries_float env) args
  | Ptyp_tuple ts -> List.exists (core_type_carries_float env) ts
  | Ptyp_alias (t', _) -> core_type_carries_float env t'
  | _ -> false

(* One scan of [str]'s type declarations into [env]; returns true when a
   new alias, carrier or field was learned.  Callers iterate to a
   fixpoint so alias-of-alias and record-in-variant-in-array chains
   resolve regardless of file and declaration order. *)
let scan_type_decls env (str : structure) =
  let changed = ref false in
  let learn_alias name =
    if not (SSet.mem name env.float_aliases) then begin
      env.float_aliases <- SSet.add name env.float_aliases;
      changed := true
    end
  in
  let learn_carrying name =
    if not (SSet.mem name env.float_carrying) then begin
      env.float_carrying <- SSet.add name env.float_carrying;
      changed := true
    end
  in
  let learn_field name =
    if not (SSet.mem name env.float_fields) then begin
      env.float_fields <- SSet.add name env.float_fields;
      changed := true
    end
  in
  let super = Ast_iterator.default_iterator in
  let type_declaration self (d : type_declaration) =
    let name = d.ptype_name.txt in
    (match d.ptype_manifest with
    | Some t ->
        if core_type_is_float env t then learn_alias name;
        if core_type_carries_float env t then learn_carrying name
    | None -> ());
    (match d.ptype_kind with
    | Ptype_record labels ->
        List.iter
          (fun (l : label_declaration) ->
            if core_type_carries_float env l.pld_type then begin
              learn_field l.pld_name.txt;
              learn_carrying name
            end)
          labels
    | Ptype_variant constrs ->
        List.iter
          (fun (c : constructor_declaration) ->
            let carries =
              match c.pcd_args with
              | Pcstr_tuple ts -> List.exists (core_type_carries_float env) ts
              | Pcstr_record labels ->
                  List.exists
                    (fun (l : label_declaration) ->
                      core_type_carries_float env l.pld_type)
                    labels
            in
            if carries then learn_carrying name)
          constrs
    | _ -> ());
    super.type_declaration self d
  in
  let it = { super with type_declaration } in
  it.structure it str;
  !changed

let float_prims =
  [ "+."; "-."; "*."; "/."; "~-."; "~+."; "**"; "abs_float"; "sqrt"; "exp";
    "log"; "log10"; "ceil"; "floor"; "float_of_int"; "float_of_string";
    "mod_float"; "min_float"; "max_float" ]

let float_consts =
  [ "infinity"; "neg_infinity"; "nan"; "epsilon_float"; "max_float";
    "min_float" ]

(* Syntactically-evident float expressions (see header comment), plus
   alias/field classification through [tyenv]. *)
let rec is_floatish env (e : expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt = Longident.Lident s; _ } -> List.mem s float_consts
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = lid; _ }; _ }, args) -> (
      (match lid with
      | Longident.Lident s -> List.mem s float_prims
      | Longident.Ldot (Longident.Lident "Float", fn) ->
          (* Float.* returns float except predicates/conversions-out. *)
          not
            (List.mem fn
               [ "equal"; "compare"; "is_nan"; "is_finite"; "is_integer";
                 "to_int"; "to_string" ])
      | Longident.Ldot (Longident.Lident "Stdlib", s) -> List.mem s float_prims
      | _ -> false)
      ||
      (* unary minus over a float operand: [-. x], [- 1.0] *)
      match (lid, args) with
      | Longident.Lident ("~-" | "~+"), [ (_, a) ] -> is_floatish env a
      | _ -> false)
  | Pexp_field (_, { txt = lid; _ }) ->
      SSet.mem (Longident.last lid) env.float_fields
  | Pexp_constraint (e', t) ->
      core_type_carries_float env t || is_floatish env e'
  | Pexp_open (_, e') -> is_floatish env e'
  (* Tuple immediates: [compare (a.x, a.y) (b.x, b.y)] is still a
     polymorphic structural walk over the float components, so a tuple
     with any floatish component is floatish (closes the gap the
     [Pareto.sweep] comparator slipped through). *)
  | Pexp_tuple es -> List.exists (is_floatish env) es
  | _ -> false

let poly_cmp_ops = [ "="; "<>"; "=="; "!="; "compare" ]

(* Does [e] syntactically mention one of the backtrace-preserving
   primitives?  Used to accept catch-all handlers that capture or
   re-raise with the original backtrace. *)
let mentions_backtrace_preservation (e : expression) =
  let found = ref false in
  let super = Ast_iterator.default_iterator in
  let expr self (e : expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt = Longident.Ldot (Longident.Lident "Printexc", f); _ }
      when f = "raise_with_backtrace" || f = "get_raw_backtrace" ->
        found := true
    | _ -> ());
    super.expr self e
  in
  let it = { super with expr } in
  it.expr it e;
  !found

let is_catch_all_pattern (p : pattern) =
  let rec base (p : pattern) =
    match p.ppat_desc with
    | Ppat_any -> true
    | Ppat_var _ -> true
    | Ppat_alias (p', _) | Ppat_constraint (p', _) -> base p'
    | Ppat_or (a, b) -> base a || base b
    | _ -> false
  in
  match p.ppat_desc with
  | Ppat_exception p' -> base p'  (* match ... with exception e -> *)
  | _ -> base p

(* Constructors of toplevel mutable state.  [Atomic.make], [Mutex.create],
   [Condition.create], [Semaphore.*] and [Domain.DLS.new_key] are
   deliberately not listed: they are the sanctioned concurrent kinds. *)
let rec creates_mutable_state (e : expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = lid; _ }; _ }, _) -> (
      match lid with
      | Longident.Lident "ref" | Longident.Ldot (Longident.Lident "Stdlib", "ref")
        ->
          true
      | Longident.Ldot (Longident.Lident ("Hashtbl" | "Buffer" | "Queue" | "Stack"), "create")
        ->
          true
      | Longident.Ldot (Longident.Lident "Array", ("make" | "create_float" | "init" | "make_matrix"))
        ->
          true
      | Longident.Ldot (Longident.Lident "Bytes", ("create" | "make"))
        ->
          true
      | _ -> false)
  | Pexp_array (_ :: _) -> true
  | Pexp_constraint (e', _) | Pexp_coerce (e', _, _) | Pexp_open (_, e') ->
      creates_mutable_state e'
  | Pexp_let (_, _, body) | Pexp_sequence (_, body) -> creates_mutable_state body
  | Pexp_tuple es -> List.exists creates_mutable_state es
  | Pexp_record (fields, _) ->
      List.exists (fun (_, e') -> creates_mutable_state e') fields
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The traversal                                                       *)
(* ------------------------------------------------------------------ *)

let lint_structure ?tyenv ~file (str : structure) =
  let tyenv =
    match tyenv with
    | Some env -> env
    | None ->
        (* single-file mode: the file's own type declarations still feed
           alias/field classification *)
        let env = empty_tyenv () in
        while scan_type_decls env str do () done;
        env
  in
  let viols = ref [] in
  let allowed : rule list ref = ref [] in
  let report rule (loc : Location.t) message =
    if rule = Bad_attr || not (List.mem rule !allowed) then
      let pos = loc.Location.loc_start in
      viols :=
        {
          v_rule = rule;
          v_file = file;
          v_line = pos.Lexing.pos_lnum;
          v_col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
          v_message = message;
        }
        :: !viols
  in
  let push_allows attrs =
    let rules =
      List.concat_map
        (fun (a : attribute) ->
          let parsed =
            Ak_attr.parse ~name:"lint.allow"
              ~valid:(fun id -> rule_of_string id <> None)
              [ a ]
          in
          List.iter (report Bad_attr a.attr_loc) parsed.Ak_attr.malformed;
          List.filter_map
            (fun (id, _why) -> rule_of_string id)
            parsed.Ak_attr.allows)
        attrs
    in
    let saved = !allowed in
    allowed := rules @ saved;
    fun () -> allowed := saved
  in
  let with_allows attrs f =
    let pop = push_allows attrs in
    Fun.protect ~finally:pop f
  in
  let check_expr (e : expression) =
    match e.pexp_desc with
    (* L1: polymorphic comparison over float operands *)
    | Pexp_apply
        ({ pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ }, args)
      when List.mem op poly_cmp_ops
           && List.exists (fun (_, a) -> is_floatish tyenv a) args ->
        report Float_eq e.pexp_loc
          (Printf.sprintf
             "polymorphic (%s) on a float-typed expression; use Runtime.Fx \
              (exact) or a tolerance helper"
             op)
    (* L2: order-sensitive hash-table iteration *)
    | Pexp_ident
        { txt = Longident.Ldot (Longident.Lident "Hashtbl", fn); _ }
      when fn = "iter" || fn = "fold" ->
        report Hashtbl_order e.pexp_loc
          (Printf.sprintf
             "Hashtbl.%s visits bindings in hash order; extract with \
              Runtime.Tbl.sorted_keys/sorted_bindings (or justify with \
              [@lint.allow hashtbl_order \"why\"])"
             fn)
    (* L4: catch-alls that can swallow Lu.Singular / drop backtraces *)
    | Pexp_try (_, cases) ->
        List.iter
          (fun (c : case) ->
            if
              is_catch_all_pattern c.pc_lhs
              && not (mentions_backtrace_preservation c.pc_rhs)
            then
              report Catch_all c.pc_lhs.ppat_loc
                "catch-all exception handler without \
                 Printexc.raise_with_backtrace / get_raw_backtrace: it can \
                 swallow Lu.Singular and drops the backtrace")
          cases
    | Pexp_match (_, cases) ->
        List.iter
          (fun (c : case) ->
            match c.pc_lhs.ppat_desc with
            | Ppat_exception _
              when is_catch_all_pattern c.pc_lhs
                   && not (mentions_backtrace_preservation c.pc_rhs) ->
                report Catch_all c.pc_lhs.ppat_loc
                  "catch-all [exception] case without backtrace preservation"
            | _ -> ())
          cases
    (* L5: nondeterminism sources in library code *)
    | Pexp_ident { txt = Longident.Ldot (Longident.Lident "Random", "self_init"); _ }
      ->
        report Nondet_source e.pexp_loc
          "Random.self_init in library code; thread a seeded Random.State"
    | Pexp_ident
        { txt = Longident.Ldot (Longident.Lident "Unix", ("gettimeofday" | "time")); _ }
      ->
        report Nondet_source e.pexp_loc
          "wall-clock read in library code; use Runtime.Clock.now"
    | Pexp_ident { txt = Longident.Ldot (Longident.Lident "Sys", "time"); _ }
      ->
        report Nondet_source e.pexp_loc
          "Sys.time in library code; use Runtime.Clock.now"
    | _ -> ()
  in
  let super = Ast_iterator.default_iterator in
  let expr self (e : expression) =
    with_allows e.pexp_attributes (fun () ->
        check_expr e;
        super.expr self e)
  in
  let value_binding self (vb : value_binding) =
    with_allows vb.pvb_attributes (fun () -> super.value_binding self vb)
  in
  let module_binding self (mb : module_binding) =
    with_allows mb.pmb_attributes (fun () -> super.module_binding self mb)
  in
  let it = { super with expr; value_binding; module_binding } in
  (* L3 is a shape check on the structure spine rather than an expression
     check: only toplevel (module-level) bindings are shared across
     domains. *)
  let rec check_toplevel (items : structure) =
    List.iter
      (fun (item : structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun (vb : value_binding) ->
                let pop = push_allows vb.pvb_attributes in
                if creates_mutable_state vb.pvb_expr then
                  report Global_state vb.pvb_loc
                    "toplevel mutable state in a library module (reachable \
                     from Runtime.parallel_map workers); use Atomic, or \
                     justify with [@lint.allow global_state \"why\"]";
                pop ())
              vbs
        | Pstr_module
            {
              pmb_expr = { pmod_desc = Pmod_structure sub; _ };
              pmb_attributes;
              _;
            } ->
            let pop = push_allows pmb_attributes in
            check_toplevel sub;
            pop ()
        | _ -> ())
      items
  in
  check_toplevel str;
  it.structure it str;
  List.rev !viols

let parse_string ~file src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  Parse.implementation lexbuf

let lint_string ?tyenv ~file src =
  lint_structure ?tyenv ~file (parse_string ~file src)

let parse_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Lexing.set_filename lexbuf file;
      Parse.implementation lexbuf)

let lint_file ?tyenv file = lint_structure ?tyenv ~file (parse_file file)
