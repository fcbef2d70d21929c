(* The serve protocol's codec is the runtime's one JSON codec. *)
include Runtime.Json
