(* lint: allow wall-clock — fixture: campaign progress logging only *)
let cell_cpu () = Leopard_util.Clock.cpu ()
