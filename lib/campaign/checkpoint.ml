(* Crash-safe campaign checkpoints.

   One header line binding the file to a grid (fingerprint + cell
   count), then one record line per completed cell, appended and flushed
   as cells finish.  The file is an optimization, never an authority: a
   resume may trust a record only if every byte of it checks out, and
   anything suspicious degrades to re-running cells — the failure mode
   "checkpoint corruption skipped a cell / crashed the sweep" must not
   exist.

   Robustness rules, in order:
   - missing file: fresh start, silent (first run, not damage);
   - unreadable header, wrong magic/version, fingerprint or cell-count
     mismatch: ignore the whole file with a one-line warning (it
     belongs to some other grid or some other era);
   - a corrupt record line (bad field count, bad number, checksum
     mismatch, out-of-range or duplicate index, failed unescape):
     keep the valid prefix, drop the line and everything after it, warn
     once.  A torn tail from a killed process loses at most the cell
     being written; the cells it names are simply re-run.

   Record fields are individually String.escaped (so no raw tabs or
   newlines survive) and tab-joined behind a per-record FNV-1a checksum
   of the payload.  Floats round-trip through Int64.bits_of_float so a
   resumed campaign reproduces its results DB byte-for-byte. *)

let magic = "leopard-campaign-checkpoint"
let version = "v1"

let checksum = Leopard_util.Fnv.hex

(* {2 Encoding} *)

let fbits f = Int64.to_string (Int64.bits_of_float f)

let encode_outcome (o : Runner.outcome) =
  match o with
  | Runner.Completed c ->
    let vtag, varg =
      match c.Runner.verdict with
      | Leopard.Checker.Verified -> ("V", "")
      | Leopard.Checker.Violation -> ("B", "")
      | Leopard.Checker.Inconclusive why -> ("I", why)
    in
    let d = c.Runner.deg in
    [
      "C"; vtag; varg; c.Runner.degradation_line;
      string_of_int c.Runner.bugs;
      string_of_int c.Runner.commits;
      string_of_int c.Runner.aborts;
      string_of_int d.Runner.restarts;
      string_of_int d.Runner.recovery_lost;
      string_of_int d.Runner.ambiguous;
      string_of_int d.Runner.lost_suffix;
      string_of_int d.Runner.failovers;
      string_of_int d.Runner.coord_ambiguous;
      string_of_int d.Runner.crashed_clients;
      string_of_int d.Runner.indeterminate;
      fbits c.Runner.p50_ns;
      fbits c.Runner.p99_ns;
      string_of_int c.Runner.sim_ns;
    ]
  | Runner.Crashed { exn_text; backtrace } -> [ "X"; exn_text; backtrace ]
  | Runner.Timeout { budget } -> [ "T"; string_of_int budget ]

let decode_outcome fields =
  let int s = int_of_string_opt s in
  let float_bits s =
    Option.map Int64.float_of_bits (Int64.of_string_opt s)
  in
  match fields with
  | [
   "C"; vtag; varg; degradation_line; bugs; commits; aborts; restarts;
   recovery_lost; ambiguous; lost_suffix; failovers; coord_ambiguous;
   crashed_clients; indeterminate; p50; p99; sim_ns;
  ] -> (
    let verdict =
      match vtag with
      | "V" -> Some Leopard.Checker.Verified
      | "B" -> Some Leopard.Checker.Violation
      | "I" -> Some (Leopard.Checker.Inconclusive varg)
      | _ -> None
    in
    match
      ( verdict, int bugs, int commits, int aborts, int restarts,
        int recovery_lost, int ambiguous, int lost_suffix, int failovers,
        int coord_ambiguous, int crashed_clients, int indeterminate,
        float_bits p50, float_bits p99, int sim_ns )
    with
    | ( Some verdict, Some bugs, Some commits, Some aborts, Some restarts,
        Some recovery_lost, Some ambiguous, Some lost_suffix,
        Some failovers, Some coord_ambiguous, Some crashed_clients,
        Some indeterminate, Some p50_ns, Some p99_ns, Some sim_ns ) ->
      Some
        (Runner.Completed
           {
             Runner.verdict;
             degradation_line;
             bugs;
             commits;
             aborts;
             deg =
               {
                 Runner.restarts;
                 recovery_lost;
                 ambiguous;
                 lost_suffix;
                 failovers;
                 coord_ambiguous;
                 crashed_clients;
                 indeterminate;
               };
             p50_ns;
             p99_ns;
             sim_ns;
           })
    | _ -> None)
  | [ "X"; exn_text; backtrace ] ->
    Some (Runner.Crashed { exn_text; backtrace })
  | [ "T"; budget ] ->
    Option.map (fun budget -> Runner.Timeout { budget }) (int budget)
  | _ -> None

(* {2 Writing} *)

let write_header oc ~fingerprint ~cells =
  Printf.fprintf oc "%s %s %s %d\n" magic version fingerprint cells;
  flush oc

let append oc ~index (outcome : Runner.outcome) =
  let payload =
    String.concat "\t" (List.map String.escaped (encode_outcome outcome))
  in
  Printf.fprintf oc "c\t%d\t%s\t%s\n" index (checksum payload) payload;
  flush oc

(* {2 Loading} *)

let parse_record ~cells ~seen line =
  match String.split_on_char '\t' line with
  | "c" :: index :: sum :: fields when fields <> [] -> (
    let payload = String.concat "\t" fields in
    match int_of_string_opt index with
    | None -> Error "unparseable cell index"
    | Some i when i < 0 || i >= cells ->
      Error (Printf.sprintf "cell index %d outside grid of %d" i cells)
    | Some i when seen.(i) -> Error (Printf.sprintf "duplicate cell %d" i)
    | Some i ->
      if not (String.equal sum (checksum payload)) then
        Error (Printf.sprintf "checksum mismatch on cell %d" i)
      else
        let unescaped =
          List.map
            (fun f ->
              match Scanf.unescaped f with
              | s -> Some s
              | exception Scanf.Scan_failure _ -> None)
            fields
        in
        if List.exists Option.is_none unescaped then
          Error (Printf.sprintf "unescapable field on cell %d" i)
        else begin
          match decode_outcome (List.filter_map Fun.id unescaped) with
          | Some outcome ->
            seen.(i) <- true;
            Ok (i, outcome)
          | None -> Error (Printf.sprintf "undecodable record for cell %d" i)
        end)
  | _ -> Error "unparseable record line"

let load ~path ~fingerprint ~cells =
  match open_in path with
  | exception Sys_error _ -> ([], None)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match input_line ic with
        | exception End_of_file ->
          ([], Some (Printf.sprintf "checkpoint %s: empty file; starting \
                                     from scratch" path))
        | header -> (
          match String.split_on_char ' ' header with
          | [ m; v; fp; n ]
            when String.equal m magic && String.equal v version
                 && String.equal fp fingerprint
                 && int_of_string_opt n = Some cells -> (
            let seen = Array.make cells false in
            let acc = ref [] in
            let warning = ref None in
            (try
               let lineno = ref 1 in
               let rec loop () =
                 let line = input_line ic in
                 incr lineno;
                 match parse_record ~cells ~seen line with
                 | Ok entry ->
                   acc := entry :: !acc;
                   loop ()
                 | Error why ->
                   warning :=
                     Some
                       (Printf.sprintf
                          "checkpoint %s: line %d: %s; keeping %d valid \
                           record(s), re-running the rest"
                          path !lineno why (List.length !acc))
               in
               loop ()
             with End_of_file -> ());
            match !warning with
            | Some _ as w -> (List.rev !acc, w)
            | None -> (List.rev !acc, None))
          | [ m; v; fp; _ ]
            when String.equal m magic && String.equal v version
                 && not (String.equal fp fingerprint) ->
            ( [],
              Some
                (Printf.sprintf
                   "checkpoint %s: grid fingerprint mismatch (file %s, grid \
                    %s); starting from scratch"
                   path fp fingerprint) )
          | _ ->
            ( [],
              Some
                (Printf.sprintf
                   "checkpoint %s: unrecognized header; starting from scratch"
                   path) )))
