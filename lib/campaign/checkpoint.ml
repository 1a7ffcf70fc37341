(* Crash-safe campaign checkpoints: one container frame per completed
   cell, holding the cell's index and its outcome record, appended and
   flushed as cells finish.  The container ([Leopard_trace.Ckpt]) owns
   the header, checksums and damage handling; this module owns the
   record and the checks only it can make — an index outside the grid,
   a cell already seen, a record that does not decode — each of which
   rejects the frame like damage: the valid prefix stays, the rest is
   re-run.  Floats round-trip through Int64.bits_of_float so a resumed
   campaign reproduces its results DB byte-for-byte. *)

module Ckpt = Leopard_trace.Ckpt

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

(* {2 The container} *)

(* The kind and the cell count keep a checker checkpoint, or another
   grid's, from ever being decoded as this grid's cells. *)
let fingerprint grid =
  Ckpt.fingerprint
    [ "campaign"; Grid.fingerprint grid; string_of_int (Grid.cell_count grid) ]

let writer ~path grid = Ckpt.writer ~path ~fingerprint:(fingerprint grid)

let append w ~index outcome =
  Ckpt.append w (string_of_int index :: encode_outcome outcome)

let load ~path grid =
  let cells = Grid.cell_count grid in
  let seen = Array.make cells false in
  let acc = ref [] in
  let accept = function
    | [] -> Error "empty record"
    | index :: fields -> (
      match int_of_string_opt index with
      | None -> Error "unparseable cell index"
      | Some i when i < 0 || i >= cells ->
        Error (Printf.sprintf "cell index %d outside grid of %d" i cells)
      | Some i when seen.(i) -> Error (Printf.sprintf "duplicate cell %d" i)
      | Some i -> (
        match decode_outcome fields with
        | None -> Error (Printf.sprintf "undecodable record for cell %d" i)
        | Some outcome ->
          seen.(i) <- true;
          acc := (i, outcome) :: !acc;
          Ok ()))
  in
  let warning = Ckpt.load ~path ~fingerprint:(fingerprint grid) accept in
  (List.rev !acc, warning)
