(* P001 through a qualified head: [M] resolves to b/m.ml, the M in the
   caller's directory, whose bump writes. *)

let run () =
  let tbl = Hashtbl.create 16 in
  let d = Domain.spawn (fun () -> M.bump tbl) in
  Domain.join d
