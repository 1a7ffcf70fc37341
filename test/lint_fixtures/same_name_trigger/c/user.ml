(* Clean: two linted files define M and neither is in this directory,
   so [M.bump] resolves to nothing, like any unresolvable head. *)

let run () =
  let tbl = Hashtbl.create 16 in
  let d = Domain.spawn (fun () -> M.bump tbl) in
  Domain.join d
