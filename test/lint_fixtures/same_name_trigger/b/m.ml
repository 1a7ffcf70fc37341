(* P001 through a same-named module: b's own bump writes its table
   parameter, so spawning it on a captured table races, whatever
   a/m.ml's bump does. *)

let bump tbl = Hashtbl.replace tbl 1 1

let run () =
  let tbl = Hashtbl.create 16 in
  let d = Domain.spawn (fun () -> bump tbl) in
  Domain.join d
