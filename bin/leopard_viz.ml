(* Render a recorded trace file as an ASCII timeline.

     dune exec bin/leopard_viz.exe -- /tmp/run.trace
     dune exec bin/leopard_viz.exe -- /tmp/run.trace --cell 0.17.0 --width 120

   One lane per client; R/L/W/C/A glyphs drawn over each operation's
   interval, so the overlaps Leopard reasons about are visible at a
   glance.  Useful for the small repro files written by
   `leopard_cli --record` on failing cases. *)

let parse_cell s =
  match String.split_on_char '.' s with
  | [ t; r; c ] -> (
    try
      Some
        (Leopard_trace.Cell.make ~table:(int_of_string t)
           ~row:(int_of_string r) ~col:(int_of_string c))
    with Failure _ -> None)
  | _ -> None

let run path cell width clients =
  match Leopard_trace.Codec.load_all ~path with
  | Error e | (exception Sys_error e) ->
    prerr_endline ("cannot load " ^ path ^ ": " ^ e);
    exit 2
  | Ok { c_traces = traces; _ } -> (
    match cell with
    | None ->
      print_string
        (Leopard_trace.Timeline.render ~max_width:width ~max_clients:clients
           traces)
    | Some spec -> (
      match parse_cell spec with
      | None ->
        prerr_endline ("bad cell (want table.row.col): " ^ spec);
        exit 2
      | Some cell ->
        print_string
          (Leopard_trace.Timeline.render_for_cell ~max_width:width cell traces)))

open Cmdliner

let path =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Trace file (leopard-trace v1).")

let cell =
  Arg.(
    value
    & opt (some string) None
    & info [ "cell" ] ~docv:"T.R.C"
        ~doc:"Show only traces touching this cell (table.row.col).")

let width =
  Arg.(value & opt int 100 & info [ "width" ] ~doc:"Timeline width in columns.")

let clients =
  Arg.(value & opt int 16 & info [ "clients" ] ~doc:"Maximum lanes to draw.")

let cmd =
  Cmd.v
    (Cmd.info "leopard-viz" ~doc:"render recorded traces as an ASCII timeline")
    Term.(const run $ path $ cell $ width $ clients)

let () = exit (Cmd.eval cmd)
