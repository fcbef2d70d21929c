(* Recursive-descent parser for the SQL subset emitted by [Print].  Literal
   constants are parsed but discarded: predicate selectivities are either
   read back from the [/*sel=...*/] hint emitted by our printer or estimated
   from catalog statistics using standard optimizer defaults (equality from
   distinct counts, 1/3 for inequalities, 1/16 for BETWEEN, 1/20 for LIKE),
   as a real what-if optimizer would with unknown parameter markers. *)

open Ast

exception Parse_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

(* --- Lexer --- *)

type token =
  | Ident of string
  | Number of float
  | Str of string
  | Punct of string       (* , ( ) . ; ? = < <= > >= *)
  | SelHint of float      (* /*sel=x*/ *)
  | Eof

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_'

let tokenize (s : string) : token list =
  let n = String.length s in
  let rec skip_line_comment i = if i < n && s.[i] <> '\n' then skip_line_comment (i + 1) else i in
  let rec go i acc =
    if i >= n then List.rev (Eof :: acc)
    else
      let c = s.[i] in
      if c = ' ' || c = '\n' || c = '\t' || c = '\r' then go (i + 1) acc
      else if c = '-' && i + 1 < n && s.[i + 1] = '-' then
        go (skip_line_comment i) acc
      else if c = '/' && i + 1 < n && s.[i + 1] = '*' then begin
        match String.index_from_opt s (i + 2) '*' with
        | Some j when j + 1 < n && s.[j + 1] = '/' ->
            let body = String.sub s (i + 2) (j - i - 2) in
            let acc =
              match String.index_opt body '=' with
              | Some eq when String.length body >= 4
                             && String.sub body 0 4 = "sel=" ->
                  ignore eq;
                  (try SelHint (float_of_string (String.sub body 4 (String.length body - 4))) :: acc
                   with Failure _ -> acc)
              | _ -> acc
            in
            go (j + 2) acc
        | _ -> fail "unterminated comment"
      end
      else if is_ident_char c && not (c >= '0' && c <= '9') then begin
        let j = ref i in
        while !j < n && is_ident_char s.[!j] do incr j done;
        go !j (Ident (String.sub s i (!j - i)) :: acc)
      end
      else if (c >= '0' && c <= '9') then begin
        let j = ref i in
        while
          !j < n
          && ((s.[!j] >= '0' && s.[!j] <= '9') || s.[!j] = '.' || s.[!j] = 'e'
              || s.[!j] = 'E' || s.[!j] = '-' && !j > i && (s.[!j - 1] = 'e' || s.[!j - 1] = 'E'))
        do incr j done;
        let text = String.sub s i (!j - i) in
        (match float_of_string_opt text with
        | Some f -> go !j (Number f :: acc)
        | None -> fail "bad number %S" text)
      end
      else if c = '\'' then begin
        match String.index_from_opt s (i + 1) '\'' with
        | Some j -> go (j + 1) (Str (String.sub s (i + 1) (j - i - 1)) :: acc)
        | None -> fail "unterminated string literal"
      end
      else if c = '<' && i + 1 < n && s.[i + 1] = '=' then go (i + 2) (Punct "<=" :: acc)
      else if c = '>' && i + 1 < n && s.[i + 1] = '=' then go (i + 2) (Punct ">=" :: acc)
      else if c = '<' && i + 1 < n && s.[i + 1] = '>' then go (i + 2) (Punct "<>" :: acc)
      else
        match c with
        | ',' | '(' | ')' | '.' | ';' | '?' | '=' | '<' | '>' | '*' ->
            go (i + 1) (Punct (String.make 1 c) :: acc)
        | _ -> fail "unexpected character %C" c
  in
  go 0 []

(* --- Parser state --- *)

type state = { mutable toks : token list }

let peek st = match st.toks with [] -> Eof | t :: _ -> t
let advance st = match st.toks with [] -> () | _ :: r -> st.toks <- r

let keyword st kw =
  match peek st with
  | Ident id when String.uppercase_ascii id = kw -> advance st; true
  | _ -> false

let expect_keyword st kw =
  if not (keyword st kw) then fail "expected %s" kw

let expect_punct st p =
  match peek st with
  | Punct q when q = p -> advance st
  | t ->
      fail "expected %S, got %s" p
        (match t with
        | Ident i -> i
        | Punct q -> q
        | Number f -> string_of_float f
        | Str s -> Printf.sprintf "'%s'" s
        | SelHint _ -> "/*sel*/"
        | Eof -> "<eof>")

let ident st =
  match peek st with
  | Ident id -> advance st; String.lowercase_ascii id
  | _ -> fail "expected identifier"

(* --- Grammar --- *)

(* Column references are either qualified [table.col] or bare [col]; bare
   names are resolved against the FROM-list tables via the catalog. *)
type raw_col = { qualifier : string option; col : string }

let raw_col st =
  let first = ident st in
  match peek st with
  | Punct "." ->
      advance st;
      let second = ident st in
      { qualifier = Some first; col = second }
  | _ -> { qualifier = None; col = first }

let resolve schema tables (rc : raw_col) : col_ref =
  match rc.qualifier with
  | Some t ->
      if not (List.mem t tables) then fail "table %s not in FROM" t;
      { table = t; column = rc.col }
  | None -> (
      let owners =
        List.filter
          (fun t ->
            match Catalog.Schema.find_table_opt schema t with
            | Some tbl -> Catalog.Schema.mem_column tbl rc.col
            | None -> false)
          tables
      in
      match owners with
      | [ t ] -> { table = t; column = rc.col }
      | [] -> fail "column %s not found in any FROM table" rc.col
      | _ -> fail "ambiguous column %s" rc.col)

let default_selectivity schema (c : col_ref) cmp =
  match cmp with
  | Eq -> (
      match Catalog.Schema.find_table_opt schema c.table with
      | Some tbl -> (
          try Catalog.Schema.equality_selectivity (Catalog.Schema.find_column tbl c.column)
          with Not_found -> 0.01)
      | None -> 0.01)
  | Lt | Le | Gt | Ge -> 1.0 /. 3.0
  | Between -> 1.0 /. 16.0
  | Like -> 1.0 /. 20.0

let skip_value st =
  match peek st with
  | Number _ | Str _ -> advance st
  | Punct "?" -> advance st
  | _ -> fail "expected literal or parameter marker"

(* One conjunct: either join [col = col] or predicate [col op value]. *)
type conjunct = J of join | P of predicate

let parse_conjunct schema tables st : conjunct =
  let lhs = resolve schema tables (raw_col st) in
  let finish_pred cmp =
    (match cmp with
    | Between ->
        skip_value st;
        expect_keyword st "AND";
        skip_value st
    | _ -> skip_value st);
    let sel =
      match peek st with
      | SelHint f ->
          advance st;
          (* written so that NaN fails it too *)
          if not (0.0 <= f && f <= 1.0) then
            fail "selectivity hint %h outside [0,1]" f;
          f
      | _ -> default_selectivity schema lhs cmp
    in
    P (predicate ~selectivity:sel lhs cmp)
  in
  match peek st with
  | Punct "=" -> (
      advance st;
      match peek st with
      | Ident _ ->
          (* join or col = col?  Only joins compare two columns. *)
          let rhs = resolve schema tables (raw_col st) in
          J { left = lhs; right = rhs }
      | _ -> finish_pred Eq)
  | Punct "<" -> advance st; finish_pred Lt
  | Punct "<=" -> advance st; finish_pred Le
  | Punct ">" -> advance st; finish_pred Gt
  | Punct ">=" -> advance st; finish_pred Ge
  | Ident id when String.uppercase_ascii id = "BETWEEN" ->
      advance st; finish_pred Between
  | Ident id when String.uppercase_ascii id = "LIKE" ->
      advance st; finish_pred Like
  | _ -> fail "expected comparison operator"

let parse_where schema tables st =
  let rec loop acc =
    let c = parse_conjunct schema tables st in
    if keyword st "AND" then loop (c :: acc) else List.rev (c :: acc)
  in
  loop []

let agg_of_string = function
  | "COUNT" -> Some Count
  | "SUM" -> Some Sum
  | "AVG" -> Some Avg
  | "MIN" -> Some Min
  | "MAX" -> Some Max
  | _ -> None

(* Atomic so concurrent parsers (e.g. per-statement INUM builds driven
   through Runtime.parallel_map) hand out distinct ids without a race. *)
let next_query_id = Atomic.make 0

let parse_select schema st : query =
  expect_keyword st "SELECT";
  (* Select list is parsed after FROM so columns can be resolved; remember
     the raw items. *)
  let raw_items = ref [] in
  let rec items () =
    (match peek st with
    | Ident id when agg_of_string (String.uppercase_ascii id) <> None -> (
        let f = Option.get (agg_of_string (String.uppercase_ascii id)) in
        advance st;
        expect_punct st "(";
        (match peek st with
        | Punct "*" when f = Count -> advance st; raw_items := `CountStar :: !raw_items
        | _ ->
            let rc = raw_col st in
            raw_items := `Agg (f, rc) :: !raw_items);
        expect_punct st ")")
    | _ ->
        let rc = raw_col st in
        raw_items := `Col rc :: !raw_items);
    match peek st with
    | Punct "," -> advance st; items ()
    | _ -> ()
  in
  items ();
  expect_keyword st "FROM";
  let rec from acc =
    let t = ident st in
    if Catalog.Schema.find_table_opt schema t = None then fail "unknown table %s" t;
    match peek st with
    | Punct "," -> advance st; from (t :: acc)
    | _ -> List.rev (t :: acc)
  in
  let tables = from [] in
  let select =
    List.rev_map
      (function
        | `Col rc -> Col (resolve schema tables rc)
        | `Agg (f, rc) -> Agg (f, resolve schema tables rc)
        | `CountStar ->
            (* COUNT star needs no specific column; attach to the first
               table's first column for covering-analysis neutrality. *)
            let t = List.hd tables in
            let tbl = Catalog.Schema.find_table schema t in
            Agg (Count, { table = t; column = tbl.Catalog.Schema.columns.(0).Catalog.Schema.col_name }))
      !raw_items
  in
  let joins, predicates =
    if keyword st "WHERE" then
      let cs = parse_where schema tables st in
      ( List.filter_map (function J j -> Some j | P _ -> None) cs,
        List.filter_map (function P p -> Some p | J _ -> None) cs )
    else ([], [])
  in
  let group_by =
    if keyword st "GROUP" then begin
      expect_keyword st "BY";
      let rec cols acc =
        let c = resolve schema tables (raw_col st) in
        match peek st with
        | Punct "," -> advance st; cols (c :: acc)
        | _ -> List.rev (c :: acc)
      in
      cols []
    end
    else []
  in
  let order_by =
    if keyword st "ORDER" then begin
      expect_keyword st "BY";
      let rec cols acc =
        let c = resolve schema tables (raw_col st) in
        let dir =
          if keyword st "DESC" then Desc
          else begin ignore (keyword st "ASC"); Asc end
        in
        match peek st with
        | Punct "," -> advance st; cols ((c, dir) :: acc)
        | _ -> List.rev ((c, dir) :: acc)
      in
      cols []
    end
    else []
  in
  let id = 1 + Atomic.fetch_and_add next_query_id 1 in
  { query_id = id; tables; select; predicates; joins; group_by;
    order_by }

let parse_update schema st : update =
  expect_keyword st "UPDATE";
  let target = ident st in
  if Catalog.Schema.find_table_opt schema target = None then
    fail "unknown table %s" target;
  expect_keyword st "SET";
  let rec sets acc =
    let c = ident st in
    expect_punct st "=";
    skip_value st;
    match peek st with
    | Punct "," -> advance st; sets (c :: acc)
    | _ -> List.rev (c :: acc)
  in
  let set_columns = sets [] in
  let where =
    if keyword st "WHERE" then
      List.filter_map
        (function P p -> Some p | J _ -> fail "join in UPDATE WHERE")
        (parse_where schema [ target ] st)
    else []
  in
  let id = 1 + Atomic.fetch_and_add next_query_id 1 in
  { update_id = id; target; set_columns; where }

let parse_statement schema st : statement =
  match peek st with
  | Ident id when String.uppercase_ascii id = "SELECT" ->
      Select (parse_select schema st)
  | Ident id when String.uppercase_ascii id = "UPDATE" ->
      Update (parse_update schema st)
  | _ -> fail "expected SELECT or UPDATE"

let statement schema (text : string) : statement =
  let st = { toks = tokenize text } in
  let s = parse_statement schema st in
  (match peek st with
  | Punct ";" -> advance st
  | _ -> ());
  (match peek st with
  | Eof -> ()
  | _ -> fail "trailing tokens after statement");
  s

(* Parse a whole script of semicolon-separated statements. *)
let script schema (text : string) : statement list =
  let st = { toks = tokenize text } in
  let rec stmts acc =
    match peek st with
    | Eof -> List.rev acc
    | Punct ";" -> advance st; stmts acc
    | _ ->
        let s = parse_statement schema st in
        stmts (s :: acc)
  in
  stmts []
