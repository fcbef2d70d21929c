(* Minimal JSON: no external dependency, no streaming — one value
   parsed from and printed to a string.  Covers the full JSON grammar
   except extremes we never produce (surrogate-pair escapes are passed
   through as literal text). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* --- Printing --- *)

let buf_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let buf_num b f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" f)
  else if not (Float.is_finite f) then
    (* JSON has no non-finite numbers; null is the conventional spelling *)
    Buffer.add_string b "null"
  else Buffer.add_string b (Printf.sprintf "%.12g" f)

let rec buf_value b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Num f -> buf_num b f
  | Str s ->
      Buffer.add_char b '"';
      buf_escape b s;
      Buffer.add_char b '"'
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          buf_value b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          buf_escape b k;
          Buffer.add_string b "\":";
          buf_value b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  buf_value b v;
  Buffer.contents b

(* --- Parsing --- *)

type state = { s : string; mutable pos : int }

let error st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> error st (Printf.sprintf "expected '%c'" c)

let parse_literal st lit value =
  let n = String.length lit in
  if
    st.pos + n <= String.length st.s
    && String.sub st.s st.pos n = lit
  then begin
    st.pos <- st.pos + n;
    value
  end
  else error st (Printf.sprintf "expected %s" lit)

let parse_string st =
  expect st '"';
  let b = Buffer.create 32 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some '"' -> advance st; Buffer.add_char b '"'; go ()
        | Some '\\' -> advance st; Buffer.add_char b '\\'; go ()
        | Some '/' -> advance st; Buffer.add_char b '/'; go ()
        | Some 'n' -> advance st; Buffer.add_char b '\n'; go ()
        | Some 'r' -> advance st; Buffer.add_char b '\r'; go ()
        | Some 't' -> advance st; Buffer.add_char b '\t'; go ()
        | Some 'b' -> advance st; Buffer.add_char b '\b'; go ()
        | Some 'f' -> advance st; Buffer.add_char b '\012'; go ()
        | Some 'u' ->
            advance st;
            if st.pos + 4 > String.length st.s then
              error st "truncated \\u escape";
            let hex = String.sub st.s st.pos 4 in
            let code =
              match int_of_string_opt ("0x" ^ hex) with
              | Some code -> code
              | None -> error st "bad \\u escape"
            in
            st.pos <- st.pos + 4;
            (* UTF-8 encode the code point (BMP only) *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end;
            go ()
        | _ -> error st "bad escape")
    | Some c ->
        advance st;
        Buffer.add_char b c;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    match peek st with Some c when is_num_char c -> true | _ -> false
  do
    advance st
  done;
  if st.pos = start then error st "expected number";
  let text = String.sub st.s start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> f
  | None -> error st (Printf.sprintf "bad number %S" text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some 'n' -> parse_literal st "null" Null
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some '"' -> Str (parse_string st)
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              items (v :: acc)
          | Some ']' ->
              advance st;
              List.rev (v :: acc)
          | _ -> error st "expected ',' or ']'"
        in
        List (items [])
      end
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let member () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          (k, v)
        in
        let rec members acc =
          let kv = member () in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              members (kv :: acc)
          | Some '}' ->
              advance st;
              List.rev (kv :: acc)
          | _ -> error st "expected ',' or '}'"
        in
        Obj (members [])
      end
  | Some _ -> Num (parse_number st)

let of_string s =
  let st = { s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then error st "trailing input";
  v

(* --- Accessors --- *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_float = function
  | Num f -> Some f
  | _ -> None

let to_str = function
  | Str s -> Some s
  | _ -> None
