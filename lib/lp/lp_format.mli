(** Reader/writer for the CPLEX LP file format (linear objective, linear
    constraints, bounds, binary and general-integer sections). *)

exception Format_error of string

val to_string : Problem.t -> string

(** @raise Format_error on malformed input. *)
val of_string : string -> Problem.t

(** @raise Format_error on malformed input; @raise Sys_error on I/O. *)
val of_file : string -> Problem.t
