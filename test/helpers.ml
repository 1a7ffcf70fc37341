(* Shared helpers for the test suites. *)

module Cell = Leopard_trace.Cell
module Trace = Leopard_trace.Trace
module Interval = Leopard_util.Interval

let cell ?(table = 0) ?(col = 0) row = Cell.make ~table ~row ~col

let iv bef aft = Interval.make ~bef ~aft

let trace ?(client = 0) ~txn ~bef ~aft payload =
  { Trace.ts_bef = bef; ts_aft = aft; txn; client; payload }

let read ?client ?(locking = false) ~txn ~bef ~aft items =
  trace ?client ~txn ~bef ~aft
    (Trace.Read
       { items = List.map (fun (c, v) -> { Trace.cell = c; value = v }) items;
         locking })

let write ?client ~txn ~bef ~aft items =
  trace ?client ~txn ~bef ~aft
    (Trace.Write (List.map (fun (c, v) -> { Trace.cell = c; value = v }) items))

let commit ?client ~txn ~bef ~aft () = trace ?client ~txn ~bef ~aft Trace.Commit
let abort ?client ~txn ~bef ~aft () = trace ?client ~txn ~bef ~aft Trace.Abort

(* A fresh spec of the named catalog workload, as [-w NAME] builds it. *)
let workload name () =
  match Leopard_workload.Catalog.find name with
  | Some spec -> spec
  | None -> failwith ("no catalog workload " ^ name)

(* Drive a checker over traces (sorted) and return the report. *)
let check profile traces =
  let checker = Leopard.Checker.create profile in
  List.iter (Leopard.Checker.feed checker)
    (List.sort Trace.compare_by_bef traces);
  Leopard.Checker.finalize checker;
  Leopard.Checker.report checker

let bug_mechanisms (report : Leopard.Checker.report) =
  List.sort_uniq compare
    (List.map
       (fun (b : Leopard.Bug.t) -> Leopard.Bug.mechanism_to_string b.mechanism)
       report.bugs)

(* Run a workload on the engine and return the outcome. *)
let run_workload ?(clients = 8) ?(txns = 400) ?(seed = 42)
    ?(faults = Minidb.Fault.Set.empty) ~spec ~profile ~level () =
  let cfg =
    Leopard_harness.Run.config ~clients ~seed ~faults ~spec ~profile ~level
      ~stop:(Leopard_harness.Run.Txn_count txns) ()
  in
  Leopard_harness.Run.execute cfg

(* End-to-end: run a workload, verify with the given profile. *)
let run_and_check ?clients ?txns ?seed ?faults ~spec ~profile ~level
    verifier_profile =
  let outcome =
    run_workload ?clients ?txns ?seed ?faults ~spec ~profile ~level ()
  in
  let report =
    check verifier_profile (Leopard_harness.Run.all_traces_sorted outcome)
  in
  (outcome, report)

let qtest = QCheck_alcotest.to_alcotest

(* {2 Driving the built CLI} *)

let cli = Filename.concat ".." (Filename.concat "bin" "leopard_cli.exe")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Exit code and combined stdout/stderr of one CLI invocation. *)
let run_cli args =
  let out = Filename.temp_file "leopard_cli" ".out" in
  let code =
    Sys.command (Filename.quote_command cli ~stdout:out ~stderr:out args)
  in
  let text = read_file out in
  Sys.remove out;
  (code, text)

let contains text sub =
  let n = String.length text and m = String.length sub in
  let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
  go 0
