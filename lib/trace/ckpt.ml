(* Framed, fingerprinted checker checkpoints.

   File layout:

     leopard-check-checkpoint v1 <fingerprint>
     b <seq> <count>
     l <checksum> <escaped payload line>   x count
     e <seq>
     ... more frames ...

   (fields tab-separated).  Each frame is one complete snapshot; a
   killed writer leaves at most one torn frame at the tail, which the
   loader discards in favor of the previous complete frame.  Every
   suspicious byte degrades toward "fresh start", never toward trusting
   damaged state — the failure mode "corrupt checkpoint produced a wrong
   verdict" must not exist. *)

let magic = "leopard-check-checkpoint"
let version = "v1"

let checksum = Leopard_util.Fnv.hex

let fingerprint components =
  (* Length-prefix each component so ["ab";"c"] and ["a";"bc"] differ. *)
  checksum
    (String.concat "\x00"
       (List.map
          (fun c -> Printf.sprintf "%d:%s" (String.length c) c)
          components))

(* {2 Writing} *)

type writer = { oc : out_channel; mutable seq : int }

let writer ~path ~fingerprint =
  let oc = open_out path in
  Printf.fprintf oc "%s %s %s\n" magic version fingerprint;
  flush oc;
  { oc; seq = 0 }

let append w lines =
  Printf.fprintf w.oc "b\t%d\t%d\n" w.seq (List.length lines);
  List.iter
    (fun line ->
      let escaped = String.escaped line in
      Printf.fprintf w.oc "l\t%s\t%s\n" (checksum escaped) escaped)
    lines;
  Printf.fprintf w.oc "e\t%d\n" w.seq;
  flush w.oc;
  w.seq <- w.seq + 1

let close w = close_out_noerr w.oc

(* {2 Loading} *)

(* Parse one frame starting at the current position: begin marker,
   [count] checksummed lines, end marker with a matching sequence
   number.  Any deviation is damage — the caller stops scanning and
   falls back to the best frame seen so far. *)
let parse_frame ic first_line =
  match String.split_on_char '\t' first_line with
  | [ "b"; seq; count ] -> (
    match (int_of_string_opt seq, int_of_string_opt count) with
    | Some seq, Some count when count >= 0 -> (
      let rec lines n acc =
        if n = 0 then Ok (List.rev acc)
        else
          match input_line ic with
          | exception End_of_file -> Error "torn frame (truncated mid-frame)"
          | line -> (
            match String.split_on_char '\t' line with
            | "l" :: sum :: rest when rest <> [] -> (
              let escaped = String.concat "\t" rest in
              if not (String.equal sum (checksum escaped)) then
                Error "payload checksum mismatch"
              else
                match Scanf.unescaped escaped with
                | payload -> lines (n - 1) (payload :: acc)
                | exception Scanf.Scan_failure _ ->
                  Error "unescapable payload line")
            | _ -> Error "malformed payload line")
      in
      match lines count [] with
      | Error _ as e -> e
      | Ok payload -> (
        match input_line ic with
        | exception End_of_file -> Error "torn frame (missing end marker)"
        | line ->
          if String.equal line (Printf.sprintf "e\t%d" seq) then Ok payload
          else Error "bad frame end marker"))
    | _ -> Error "malformed frame header")
  | _ -> Error "malformed frame header"

let load ~path ~fingerprint =
  match open_in path with
  | exception Sys_error _ -> (None, None)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match input_line ic with
        | exception End_of_file ->
          ( None,
            Some
              (Printf.sprintf
                 "checkpoint %s: empty file; starting verification from \
                  scratch"
                 path) )
        | header -> (
          match String.split_on_char ' ' header with
          | [ m; v; fp ]
            when String.equal m magic && String.equal v version
                 && String.equal fp fingerprint ->
            let best = ref None in
            let frames = ref 0 in
            let damage = ref None in
            (try
               let rec loop () =
                 let line = input_line ic in
                 match parse_frame ic line with
                 | Ok payload ->
                   best := Some payload;
                   incr frames;
                   loop ()
                 | Error why -> damage := Some why
               in
               loop ()
             with End_of_file -> ());
            let warning =
              match !damage with
              | None -> None
              | Some why ->
                Some
                  (if !frames = 0 then
                     Printf.sprintf
                       "checkpoint %s: %s with no earlier complete frame; \
                        starting verification from scratch"
                       path why
                   else
                     Printf.sprintf
                       "checkpoint %s: %s; resuming from frame %d (the last \
                        that validates)"
                       path why (!frames - 1))
            in
            (!best, warning)
          | [ m; v; fp ]
            when String.equal m magic && String.equal v version
                 && not (String.equal fp fingerprint) ->
            ( None,
              Some
                (Printf.sprintf
                   "checkpoint %s: fingerprint mismatch (file %s, run %s) — \
                    written by a different run or configuration; starting \
                    verification from scratch"
                   path fp fingerprint) )
          | _ ->
            ( None,
              Some
                (Printf.sprintf
                   "checkpoint %s: unrecognized header; starting verification \
                    from scratch"
                   path) )))
