(* A module named M that writes its table parameter.  Another linted
   file, b/m.ml, is also named M; its callers must not inherit this
   write. *)

let bump tbl = Hashtbl.replace tbl 1 1
