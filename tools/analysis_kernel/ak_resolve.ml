(* Typed-tree name resolution shared by the .cmt analyzers: a
   per-compilation-unit context mapping local [Ident.t]s to canonical
   global names ("Lp.Simplex.solve"), plus the pass-1 structure walk
   that registers every module-level value and submodule alias so
   forward references resolve during the analysis walk proper. *)

open Typedtree

type ctx = {
  (* Ident.unique_name -> node name, for module-level values (and any
     named local functions the analyzer promotes to nodes) *)
  values : (string, string) Hashtbl.t;
  (* Ident.unique_name -> full module prefix, for local module aliases *)
  modules : (string, string) Hashtbl.t;
  unit_prefix : string;  (* display name of the current unit *)
}

let create ~unit_prefix =
  { values = Hashtbl.create 64; modules = Hashtbl.create 16; unit_prefix }

let loc_string (loc : Location.t) =
  Printf.sprintf "%s:%d" loc.Location.loc_start.Lexing.pos_fname
    loc.Location.loc_start.Lexing.pos_lnum

let rec is_arrow (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tarrow _ -> true
  | Types.Tpoly (ty', _) -> is_arrow ty'
  | _ -> false

let rec module_prefix ctx (p : Path.t) =
  match p with
  | Path.Pident id -> (
      match Hashtbl.find_opt ctx.modules (Ident.unique_name id) with
      | Some pfx -> pfx
      | None -> Ak_names.normalize (Ident.name id))
  | Path.Pdot (p', s) -> module_prefix ctx p' ^ "." ^ s
  | _ -> Ak_names.normalize (Path.name p)

(* Resolve a value path to a canonical global name, or None when the
   identifier is local (function parameter, let-bound variable) and was
   not registered as a node. *)
let resolve_value ctx (p : Path.t) =
  match p with
  | Path.Pident id ->
      if Ident.is_predef id then Some (Ident.name id)
      else Hashtbl.find_opt ctx.values (Ident.unique_name id)
  | Path.Pdot (p', s) ->
      Some (Ak_names.normalize (module_prefix ctx p' ^ "." ^ s))
  | _ -> Some (Ak_names.normalize (Path.name p))

(* Exception-constructor path -> canonical name.  Local declarations
   (Pident) are qualified with the enclosing unit so "Singular" raised
   inside Lp__Lu and "Lp.Lu.Singular" raised elsewhere coincide. *)
let resolve_exn ctx (p : Path.t) =
  match p with
  | Path.Pident id ->
      if Ident.is_predef id then Ident.name id
      else Ak_names.normalize (ctx.unit_prefix ^ "." ^ Ident.name id)
  | _ -> Ak_names.normalize (Path.name p)

let rec pattern_idents (p : pattern) =
  match p.pat_desc with
  | Tpat_var (id, name) -> [ (id, name.Location.txt) ]
  | Tpat_alias (p', id, name) -> (id, name.Location.txt) :: pattern_idents p'
  | Tpat_tuple ps -> List.concat_map pattern_idents ps
  | Tpat_record (fields, _) ->
      List.concat_map (fun (_, _, p') -> pattern_idents p') fields
  | Tpat_construct (_, _, ps, _) -> List.concat_map pattern_idents ps
  | Tpat_array ps -> List.concat_map pattern_idents ps
  | Tpat_or (a, _, _) -> pattern_idents a
  | _ -> []

let register_module ctx prefix (mb : module_binding) =
  match (mb.mb_id, mb.mb_name.Location.txt) with
  | Some id, Some name ->
      let full = prefix ^ "." ^ name in
      let target =
        match mb.mb_expr.mod_desc with
        | Tmod_ident (p, _) -> module_prefix ctx p
        | Tmod_constraint ({ mod_desc = Tmod_ident (p, _); _ }, _, _, _) ->
            module_prefix ctx p
        | _ -> full
      in
      Hashtbl.replace ctx.modules (Ident.unique_name id) target
  | _ -> ()

(* Pass 1 over one structure: register every module-level value and
   submodule name of its items, so forward references (let rec across
   items, submodule mentions) resolve in the analyzer's pass 2.  The
   caller recurses into submodule structures itself (calling this again
   with the extended prefix). *)
let register_items ctx prefix (str : structure) =
  List.iter
    (fun (item : structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : value_binding) ->
              List.iter
                (fun (id, name) ->
                  Hashtbl.replace ctx.values (Ident.unique_name id)
                    (prefix ^ "." ^ name))
                (pattern_idents vb.vb_pat))
            vbs
      | Tstr_module mb -> register_module ctx prefix mb
      | Tstr_recmodule mbs -> List.iter (register_module ctx prefix) mbs
      | _ -> ())
    str.str_items

(* Strip module-type constraints off a module expression. *)
let rec strip_module_constraints (me : module_expr) =
  match me.mod_desc with
  | Tmod_constraint (me', _, _, _) -> strip_module_constraints me'
  | _ -> me

(* The [k]-th positional argument of an application, skipping labeled
   and optional ones. *)
let nth_positional k (args : (Asttypes.arg_label * expression option) list) =
  let rec go k = function
    | (Asttypes.Nolabel, (Some _ as a)) :: tl ->
        if k = 0 then a else go (k - 1) tl
    | _ :: tl -> go k tl
    | [] -> None
  in
  go k args
