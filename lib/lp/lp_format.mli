(** Reader/writer for the CPLEX LP file format (linear objective, linear
    constraints, bounds, binary and general-integer sections). *)

exception Format_error of string

val to_string : Problem.t -> string

(** The objective sense a file declares. *)
type direction = Minimize | Maximize

(** [directed d v] is the minimization form's objective value [v] read
    in the sense [d]: [v] for [Minimize], [-. v] for [Maximize]. *)
val directed : direction -> float -> float

(** The problem in minimization form (a [Maximize] model's costs
    negated), with the sense the file declares, so a caller can report
    values in the model's own sense ({!directed}).
    @raise Format_error on malformed input. *)
val of_string : string -> Problem.t * direction

(** {!of_string} on a file's contents.
    @raise Format_error on malformed input; @raise Sys_error on I/O. *)
val of_file : string -> Problem.t * direction
