(* Spawn seams shared by cophy-dsa and cophy-race: the callees whose
   function-valued argument runs on another domain, and the positional
   index of that argument.

     Runtime.parallel_map f arr        f            (positional 0)
     Domain.spawn f                    f            (positional 0)
     Runtime.submit w job              job          (positional 1)

   Names are matched after normalization; the [.parallel_map] suffix
   covers aliased module paths and the runtime's own intra-library
   references. *)

let seams =
  [ ("Runtime.parallel_map", 0); ("Domain.spawn", 0); ("Runtime.submit", 1) ]

(* The argument position of [name] when it is a seam. *)
let seam_of name =
  if Ak_names.has_suffix ~suffix:".parallel_map" name then Some 0
  else List.assoc_opt name seams
