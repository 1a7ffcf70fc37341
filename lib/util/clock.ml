(* The linter (D002) exempts exactly this file; everything else calls
   [Clock.cpu]. *)
let cpu () = Sys.time ()
