(* A qualified head naming a module that two linted files define
   resolves to the one in the caller's directory: b/m.ml, whose bump
   is pure. *)

let run () =
  let tbl = Hashtbl.create 16 in
  let d = Domain.spawn (fun () -> M.bump tbl) in
  Domain.join d
