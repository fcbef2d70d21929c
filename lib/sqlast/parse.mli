(** Parser for the SQL subset rendered by {!Print}.  Literal constants are
    accepted and discarded; selectivities come from [/*sel=...*/] hints when
    present, otherwise from catalog statistics with standard optimizer
    defaults for unknown parameters. *)

exception Parse_error of string

(** Parse one SELECT or UPDATE statement (optionally ';'-terminated).
    @raise Parse_error on malformed input, unknown tables/columns, or a
      selectivity hint that is NaN or outside [0,1]. *)
val statement : Catalog.Schema.t -> string -> Ast.statement

(** Parse a script of ';'-separated statements. *)
val script : Catalog.Schema.t -> string -> Ast.statement list
