(** The repository's one JSON codec (no external dependency): values
    parsed from and printed to strings.  The serve protocol speaks it
    ([Serve.Json] re-exports this module) and [Runtime.Trace]'s exporter
    builds its output with it.  Printing is deterministic — object
    member order is the construction order, and numbers print as
    integers when integral, ["%.12g"] otherwise (non-finite floats
    print as [null]). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string

(** @raise Parse_error on malformed input (including trailing bytes). *)
val of_string : string -> t

(** [member k (Obj ...)] — first binding of [k], if any. *)
val member : string -> t -> t option

val to_float : t -> float option
val to_str : t -> string option
