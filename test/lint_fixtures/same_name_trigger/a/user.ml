(* Clean: [M] resolves to a/m.ml, the M in the caller's directory,
   whose bump is pure. *)

let run () =
  let tbl = Hashtbl.create 16 in
  let d = Domain.spawn (fun () -> M.bump tbl) in
  Domain.join d
