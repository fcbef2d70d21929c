(* Reader and writer for the CPLEX LP file format (the subset covering
   linear objectives, linear constraints, bounds, and binary/general
   integer sections).  Lets the solver interoperate with models produced
   by other tools, and backs the `lp_solve` command-line utility. *)

module Fx = Runtime.Fx

exception Format_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Format_error s)) fmt

(* --- Writing --- *)

(* Shortest decimal form that re-parses bit-identically.  "%.12g" (the
   historical choice) silently perturbs doubles that need up to 17
   significant digits; "%.17g" everywhere is lossless but noisy
   ("0.5" -> "0.5", but "0.1" -> "0.10000000000000001").  Probe
   precisions upward and keep the first whose round trip is exact, so
   common short values stay short and every float survives
   [of_string (to_string p)] unchanged. *)
let repr f =
  let rec go p =
    if p >= 17 then Printf.sprintf "%.17g" f
    else
      let s = Printf.sprintf "%.*g" p f in
      match float_of_string_opt s with
      | Some g when Fx.exactly g f -> s
      | _ -> go (p + 1)
  in
  go 1

let write_term buf first coeff name =
  if Fx.nonzero coeff then begin
    if coeff >= 0.0 && not first then Buffer.add_string buf " + "
    else if coeff < 0.0 then Buffer.add_string buf (if first then "- " else " - ");
    let a = abs_float coeff in
    if not (Fx.exactly a 1.0) then
      Buffer.add_string buf (repr a ^ " ");
    Buffer.add_string buf name
  end

let to_string (p : Problem.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "Minimize\n obj:";
  let first = ref true in
  for v = 0 to Problem.nvars p - 1 do
    let var = Problem.var p v in
    if Fx.nonzero var.Problem.obj then begin
      Buffer.add_char buf ' ';
      write_term buf !first var.Problem.obj var.Problem.vname;
      first := false
    end
  done;
  if !first then Buffer.add_string buf " 0 x0";
  Buffer.add_string buf "\nSubject To\n";
  Array.iter
    (fun (r : Problem.row) ->
      Buffer.add_string buf (Printf.sprintf " %s:" r.Problem.rname);
      let first = ref true in
      Array.iter
        (fun (v, c) ->
          Buffer.add_char buf ' ';
          write_term buf !first c (Problem.var p v).Problem.vname;
          first := false)
        r.Problem.coeffs;
      let op =
        match r.Problem.sense with
        | Problem.Le -> "<="
        | Problem.Ge -> ">="
        | Problem.Eq -> "="
      in
      Buffer.add_string buf (Printf.sprintf " %s %s\n" op (repr r.Problem.rhs)))
    (Problem.rows p);
  Buffer.add_string buf "Bounds\n";
  for v = 0 to Problem.nvars p - 1 do
    let var = Problem.var p v in
    if var.Problem.kind <> Problem.Binary then begin
      let name = var.Problem.vname in
      match (var.Problem.lb, var.Problem.ub) with
      | lb, ub when Fx.is_neg_inf lb && Fx.is_inf ub ->
          Buffer.add_string buf (Printf.sprintf " %s free\n" name)
      | lb, ub when Fx.is_inf ub ->
          if Fx.nonzero lb then
            Buffer.add_string buf (Printf.sprintf " %s >= %s\n" name (repr lb))
      | lb, ub when Fx.is_neg_inf lb ->
          Buffer.add_string buf (Printf.sprintf " %s <= %s\n" name (repr ub))
      | lb, ub ->
          Buffer.add_string buf
            (Printf.sprintf " %s <= %s <= %s\n" (repr lb) name (repr ub))
    end
  done;
  let binaries =
    List.filter
      (fun v -> (Problem.var p v).Problem.kind = Problem.Binary)
      (Problem.integer_vars p)
  in
  let generals =
    List.filter
      (fun v -> (Problem.var p v).Problem.kind = Problem.Integer)
      (Problem.integer_vars p)
  in
  if binaries <> [] then begin
    Buffer.add_string buf "Binary\n";
    List.iter
      (fun v ->
        Buffer.add_string buf
          (Printf.sprintf " %s\n" (Problem.var p v).Problem.vname))
      binaries
  end;
  if generals <> [] then begin
    Buffer.add_string buf "General\n";
    List.iter
      (fun v ->
        Buffer.add_string buf
          (Printf.sprintf " %s\n" (Problem.var p v).Problem.vname))
      generals
  end;
  Buffer.add_string buf "End\n";
  Buffer.contents buf

(* --- Reading --- *)

type token =
  | Word of string
  | Num of float
  | Plus
  | Minus
  | Op of Problem.sense
  | Colon

let tokenize text =
  let n = String.length text in
  let toks = ref [] in
  let i = ref 0 in
  let is_word_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '(' || c = ')' || c = '.' || c = '['  || c = ']'
  in
  while !i < n do
    let c = text.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '\\' then begin
      (* comment to end of line *)
      while !i < n && text.[!i] <> '\n' do incr i done
    end
    else if c = '+' then begin toks := Plus :: !toks; incr i end
    else if c = '-' then begin toks := Minus :: !toks; incr i end
    else if c = ':' then begin toks := Colon :: !toks; incr i end
    else if c = '<' || c = '>' || c = '=' then begin
      let sense =
        if c = '=' then Problem.Eq
        else if c = '<' then Problem.Le
        else Problem.Ge
      in
      incr i;
      if !i < n && text.[!i] = '=' then incr i;
      toks := Op sense :: !toks
    end
    else if (c >= '0' && c <= '9') || c = '.' then begin
      let j = ref !i in
      while
        !j < n
        && ((text.[!j] >= '0' && text.[!j] <= '9')
           || text.[!j] = '.' || text.[!j] = 'e' || text.[!j] = 'E'
           || ((text.[!j] = '+' || text.[!j] = '-')
              && !j > !i
              && (text.[!j - 1] = 'e' || text.[!j - 1] = 'E')))
      do incr j done;
      let s = String.sub text !i (!j - !i) in
      (match float_of_string_opt s with
      | Some f -> toks := Num f :: !toks
      | None -> fail "bad number %S" s);
      i := !j
    end
    else if is_word_char c then begin
      let j = ref !i in
      while !j < n && is_word_char text.[!j] do incr j done;
      toks := Word (String.sub text !i (!j - !i)) :: !toks;
      i := !j
    end
    else fail "unexpected character %C" c
  done;
  List.rev !toks

let is_keyword w k = String.lowercase_ascii w = k

(* Section keywords may not be used as variable names. *)
let section_word w =
  List.exists (is_keyword w)
    [ "subject"; "st"; "s.t."; "bounds"; "binary"; "binaries"; "general";
      "generals"; "end"; "free" ]

(* Linear expression: returns (terms, remaining tokens). *)
let rec parse_expr acc sign toks =
  match toks with
  | Plus :: rest -> parse_expr acc 1.0 rest
  | Minus :: rest -> parse_expr acc (-1.0) rest
  | Num c :: Word v :: rest when not (section_word v) ->
      parse_expr ((v, sign *. c) :: acc) 1.0 rest
  | Num c :: rest when acc = [] && Fx.exactly sign 1.0 && Fx.is_zero c ->
      (* constant 0 objective *)
      parse_expr acc 1.0 rest
  | Word v :: rest when not (section_word v) ->
      parse_expr ((v, sign) :: acc) 1.0 rest
  | _ -> (List.rev acc, toks)

type direction = Minimize | Maximize

let directed direction v =
  match direction with Minimize -> v | Maximize -> -.v

let of_string text =
  let toks = tokenize text in
  let p = Problem.create () in
  let vars = Hashtbl.create 64 in
  let var_of name =
    match Hashtbl.find_opt vars name with
    | Some v -> v
    | None ->
        let v = Problem.add_var ~name p in
        Hashtbl.add vars name v;
        v
  in
  (* Minimize / Maximize *)
  let direction, toks =
    match toks with
    | Word w :: rest when is_keyword w "minimize" || is_keyword w "min" ->
        (Minimize, rest)
    | Word w :: rest when is_keyword w "maximize" || is_keyword w "max" ->
        (Maximize, rest)
    | _ -> fail "expected Minimize or Maximize"
  in
  let sign = directed direction 1.0 in
  (* optional objective label *)
  let toks =
    match toks with Word _ :: Colon :: rest -> rest | _ -> toks
  in
  let obj_terms, toks = parse_expr [] 1.0 toks in
  List.iter
    (fun (name, c) ->
      let v = var_of name in
      Problem.set_obj p v ((Problem.var p v).Problem.obj +. (sign *. c)))
    obj_terms;
  (* Subject To *)
  let toks =
    match toks with
    | Word w1 :: Word w2 :: rest
      when is_keyword w1 "subject" && is_keyword w2 "to" ->
        rest
    | Word w :: rest when is_keyword w "st" || is_keyword w "s.t." -> rest
    | _ -> fail "expected Subject To"
  in
  let stop_words = [ "bounds"; "binary"; "binaries"; "general"; "generals"; "end" ] in
  let rec parse_rows toks =
    match toks with
    | Word w :: _ when List.exists (is_keyword w) stop_words -> toks
    | [] -> []
    | _ ->
        let name, toks =
          match toks with
          | Word w :: Colon :: rest -> (w, rest)
          | _ -> ("", toks)
        in
        let terms, toks = parse_expr [] 1.0 toks in
        (match toks with
        | Op sense :: rest -> (
            let neg, rest =
              match rest with Minus :: r -> (true, r) | r -> (false, r)
            in
            match rest with
            | Num rhs :: rest' ->
                let rhs = if neg then -.rhs else rhs in
                ignore
                  (Problem.add_row ~name p
                     (List.map (fun (nm, c) -> (var_of nm, c)) terms)
                     sense rhs);
                parse_rows rest'
            | _ -> fail "expected rhs constant in row %s" name)
        | _ -> fail "expected comparison in row %s" name)
  in
  let toks = parse_rows toks in
  (* Bounds *)
  let rec parse_bounds toks =
    match toks with
    | Word w :: rest when is_keyword w "bounds" -> parse_bounds rest
    | Word w :: _
      when List.exists (is_keyword w)
             [ "binary"; "binaries"; "general"; "generals"; "end" ] ->
        toks
    | Num lb :: Op Problem.Le :: Word v :: Op Problem.Le :: Num ub :: rest ->
        Problem.set_bounds p (var_of v) ~lb ~ub;
        parse_bounds rest
    | Num lb :: Op Problem.Le :: Word v :: Op Problem.Le :: Minus :: Num ub
      :: rest ->
        Problem.set_bounds p (var_of v) ~lb ~ub:(-.ub);
        parse_bounds rest
    | Minus :: Num lb :: Op Problem.Le :: Word v :: Op Problem.Le :: Num ub
      :: rest ->
        Problem.set_bounds p (var_of v) ~lb:(-.lb) ~ub;
        parse_bounds rest
    | Minus
      :: Num lb
      :: Op Problem.Le
      :: Word v
      :: Op Problem.Le
      :: Minus
      :: Num ub
      :: rest ->
        Problem.set_bounds p (var_of v) ~lb:(-.lb) ~ub:(-.ub);
        parse_bounds rest
    | Word v :: Word f :: rest when is_keyword f "free" ->
        Problem.set_bounds p (var_of v) ~lb:neg_infinity ~ub:infinity;
        parse_bounds rest
    | Word v :: Op sense :: neg_and_num ->
        let neg, rest =
          match neg_and_num with Minus :: r -> (true, r) | r -> (false, r)
        in
        (match rest with
        | Num b :: rest' ->
            let b = if neg then -.b else b in
            let var = Problem.var p (var_of v) in
            (match sense with
            | Problem.Le -> Problem.set_bounds p (var_of v) ~lb:var.Problem.lb ~ub:b
            | Problem.Ge -> Problem.set_bounds p (var_of v) ~lb:b ~ub:var.Problem.ub
            | Problem.Eq -> Problem.set_bounds p (var_of v) ~lb:b ~ub:b);
            parse_bounds rest'
        | _ -> fail "bad bound for %s" v)
    | _ -> toks
  in
  let toks = parse_bounds toks in
  (* Binary / General sections: re-add with integer kinds by tightening.
     Problem has immutable kinds, so emulate: binary = bounds [0,1] and
     membership in the integer list.  We rebuild by marking via a side
     table consumed by [of_string_with_kinds] below. *)
  let binaries = ref [] and generals = ref [] in
  let rec parse_sections toks =
    match toks with
    | Word w :: rest when is_keyword w "binary" || is_keyword w "binaries" ->
        let rec grab toks =
          match toks with
          | Word v :: rest
            when not
                   (List.exists (is_keyword v)
                      [ "general"; "generals"; "end"; "binary"; "binaries" ]) ->
              binaries := v :: !binaries;
              grab rest
          | _ -> parse_sections toks
        in
        grab rest
    | Word w :: rest when is_keyword w "general" || is_keyword w "generals" ->
        let rec grab toks =
          match toks with
          | Word v :: rest
            when not
                   (List.exists (is_keyword v)
                      [ "general"; "generals"; "end"; "binary"; "binaries" ]) ->
              generals := v :: !generals;
              grab rest
          | _ -> parse_sections toks
        in
        grab rest
    | Word w :: rest when is_keyword w "end" -> rest
    | [] -> []
    | _ -> fail "unexpected trailing tokens"
  in
  ignore (parse_sections toks);
  (* Rebuild the problem with correct kinds (kind is fixed at add_var). *)
  let problem =
    if !binaries = [] && !generals = [] then p
    else begin
      let p2 = Problem.create () in
      let map = Hashtbl.create 64 in
      (* Rebuild in ascending original-id order: p2's variable ids then
         mirror p's exactly instead of following hash order. *)
      List.iter
        (fun (name, v) ->
          let var = Problem.var p v in
          let kind =
            if List.mem name !binaries then Problem.Binary
            else if List.mem name !generals then Problem.Integer
            else Problem.Continuous
          in
          let v2 =
            Problem.add_var ~kind ~lb:var.Problem.lb ~ub:var.Problem.ub
              ~obj:var.Problem.obj ~name p2
          in
          Hashtbl.add map v v2)
        (Runtime.Tbl.sorted_bindings vars
        |> List.sort (fun (_, a) (_, b) -> compare a b));
      Array.iter
        (fun (r : Problem.row) ->
          ignore
            (Problem.add_row ~name:r.Problem.rname p2
               (Array.to_list
                  (Array.map (fun (v, c) -> (Hashtbl.find map v, c)) r.Problem.coeffs))
               r.Problem.sense r.Problem.rhs))
        (Problem.rows p);
      p2
    end
  in
  (problem, direction)

let of_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  of_string text
