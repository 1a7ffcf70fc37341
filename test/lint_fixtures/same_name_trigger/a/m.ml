(* A module named M whose bump is pure.  Another linted file, b/m.ml,
   is also named M and its bump writes; that write must still reach
   b's callers. *)

let bump _tbl = ()
