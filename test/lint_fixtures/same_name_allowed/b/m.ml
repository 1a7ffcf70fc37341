(* The second M: its own bump is pure, so spawning it on a fresh table
   is clean even though a/m.ml's bump of the same name writes. *)

let bump _tbl = ()

let run () =
  let tbl = Hashtbl.create 16 in
  let d = Domain.spawn (fun () -> bump tbl) in
  Domain.join d
