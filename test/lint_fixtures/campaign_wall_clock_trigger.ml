let cell_cpu () = Leopard_util.Clock.cpu ()
