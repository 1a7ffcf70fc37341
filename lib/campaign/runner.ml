(* One campaign cell, run to a recorded outcome — never an escaped
   exception.

   The runner owns the three outcome classes the sweep distinguishes:

   - [Completed]: the run and its verification finished; the record
     carries the verdict, the degradation counters, and the latency
     profile (simulated nanoseconds, so the numbers are identical on
     every replay).
   - [Crashed]: anything raised out of the cell body — a planted
     self-test crash, an [assert] tripping inside a fault plane, a
     config constructor rejecting a preset.  The sweep records the
     exception and its backtrace and moves on; one broken cell must
     never abort a thousand-cell campaign.
   - [Timeout]: the per-cell step budget fired.  The budget counts
     transaction-program generations, so a cell that stops making
     progress is cut deterministically — the same step on every replay,
     unlike any wall-clock watchdog.

   A cell runs what its reproducer line says: the runner parses
   Grid.args through Leopard_harness.Flags, the CLI's own mapping from
   flags to config, and overrides only the workload spec (step budget;
   a planted crash when the class expects [crash]) and, when it expects
   [stall], the stop condition.  Every stream a cell draws flows from
   its derived seed; the runner itself reads no clock and no global
   RNG, so a cell's outcome is a pure function of the cell value. *)

module Run = Leopard_harness.Run
module Flags = Leopard_harness.Flags

type degradation = {
  restarts : int;
  recovery_lost : int;
  ambiguous : int;
  lost_suffix : int;
  failovers : int;
  coord_ambiguous : int;
  crashed_clients : int;
  indeterminate : int;
}

type completed = {
  verdict : Leopard.Checker.verdict;
  degradation_line : string;  (** {!Leopard.Report_pp.degradation_line} *)
  bugs : int;
  commits : int;
  aborts : int;
  deg : degradation;
  p50_ns : float;  (** median transaction-interval latency, simulated ns *)
  p99_ns : float;
  sim_ns : int;
}

type outcome =
  | Completed of completed
  | Crashed of { exn_text : string; backtrace : string }
  | Timeout of { budget : int }

type result = { cell : Grid.cell; outcome : outcome }

(* Raised by the budget wrapper; private to the runner, so a cell body
   cannot fake a timeout by raising it (it would still be caught here
   first, which is the behaviour we want anyway). *)
exception Step_limit of int

let default_budget ~txns =
  (* Generous: retries, aborts and multi-op programs all consume steps,
     but an honest cell generates a small multiple of [txns] programs.
     Only a cell that stopped converging on its stop condition hits
     this. *)
  (64 * txns) + 4096

(* Count every transaction-program generation against the budget.  The
   spec record is immutable; wrapping [next_txn] is the supported way to
   interpose (specs are freshly built per cell, so the closure's counter
   is cell-private and domain-safe). *)
let with_budget ~budget (spec : Leopard_workload.Spec.t) =
  let steps = ref 0 in
  {
    spec with
    Leopard_workload.Spec.next_txn =
      (fun rng ->
        incr steps;
        if !steps > budget then raise (Step_limit budget);
        spec.Leopard_workload.Spec.next_txn rng);
  }

(* A [crash] cell raises from its fifth transaction-program generation. *)
let with_planted_crash (spec : Leopard_workload.Spec.t) =
  let calls = ref 0 in
  {
    spec with
    Leopard_workload.Spec.next_txn =
      (fun rng ->
        incr calls;
        if !calls = 5 then failwith "selftest: planted cell crash";
        spec.Leopard_workload.Spec.next_txn rng);
  }

let degradation_of (d : Leopard.Checker.degradation) =
  {
    restarts = d.Leopard.Checker.restarts;
    recovery_lost = d.Leopard.Checker.recovery_lost_records;
    ambiguous = d.Leopard.Checker.ambiguous_commits;
    lost_suffix = d.Leopard.Checker.lost_suffix_commits;
    failovers = d.Leopard.Checker.failovers;
    coord_ambiguous = d.Leopard.Checker.coord_ambiguous_commits;
    crashed_clients = d.Leopard.Checker.crashed_clients;
    indeterminate = d.Leopard.Checker.indeterminate_txns;
  }

let latencies (outcome : Run.outcome) =
  let durations = ref [] in
  Array.iter
    (List.iter (fun (t : Leopard_trace.Trace.t) ->
         durations :=
           float_of_int (t.Leopard_trace.Trace.ts_aft - t.Leopard_trace.Trace.ts_bef)
           :: !durations))
    outcome.Run.client_traces;
  let ds = !durations in
  (Leopard_util.Stats.percentile ds 50.0, Leopard_util.Stats.percentile ds 99.0)

let completed_of ~(report : Leopard.Checker.report) (outcome : Run.outcome) =
  let p50_ns, p99_ns = latencies outcome in
  Completed
    {
      verdict = Leopard.Checker.verdict report;
      degradation_line =
        Leopard.Report_pp.degradation_line report.Leopard.Checker.degradation;
      bugs = report.Leopard.Checker.bugs_total;
      commits = outcome.Run.commits;
      aborts = outcome.Run.aborts;
      deg = degradation_of report.Leopard.Checker.degradation;
      p50_ns;
      p99_ns;
      sim_ns = outcome.Run.sim_duration_ns;
    }

type prepared = Grid.cell * (Flags.t, string) Stdlib.result

(* [Flags.parse] runs on the main domain only; pool workers [execute]. *)
let prepare cell = (cell, Flags.parse (Grid.args cell))

let execute ?step_budget ((cell, flags) : prepared) =
  let budget =
    match step_budget with
    | Some b -> b
    | None -> default_budget ~txns:cell.Grid.clazz.Grid.txns
  in
  Printexc.record_backtrace true;
  let outcome =
    try
      let config, il =
        match flags with
        | Error e -> invalid_arg ("Runner: " ^ e)
        | Ok flags -> (
          match Flags.config flags with
          | Ok built -> built
          | Error e ->
            invalid_arg
              ("Runner: " ^ Leopard_harness.Cli_validate.error_to_string e))
      in
      let spec, stop =
        match cell.Grid.clazz.Grid.expect with
        | Grid.Crash -> (with_planted_crash config.Run.spec, config.Run.stop)
        (* The hang cell must be stoppable only by the budget. *)
        | Grid.Stall -> (config.Run.spec, Run.Txn_count max_int)
        | Grid.Pass | Grid.Fail | Grid.Any ->
          (config.Run.spec, config.Run.stop)
      in
      let outcome =
        Run.execute { config with Run.spec = with_budget ~budget spec; stop }
      in
      let v = Leopard_harness.Session.of_outcome il outcome in
      completed_of ~report:v.Leopard_harness.Session.report outcome
    with
    | Step_limit budget -> Timeout { budget }
    | e ->
      let backtrace = Printexc.get_backtrace () in
      Crashed { exn_text = Printexc.to_string e; backtrace }
  in
  { cell; outcome }

let run ?step_budget cell = execute ?step_budget (prepare cell)

(* {2 Expectation} *)

type kind = K_verified | K_violation | K_inconclusive | K_crashed | K_timeout

let kind_of = function
  | Completed { verdict = Leopard.Checker.Verified; _ } -> K_verified
  | Completed { verdict = Leopard.Checker.Violation; _ } -> K_violation
  | Completed { verdict = Leopard.Checker.Inconclusive _; _ } ->
    K_inconclusive
  | Crashed _ -> K_crashed
  | Timeout _ -> K_timeout

let kind_to_string = function
  | K_verified -> "verified"
  | K_violation -> "violation"
  | K_inconclusive -> "inconclusive"
  | K_crashed -> "crashed"
  | K_timeout -> "timeout"

let expected (expect : Grid.expect) outcome =
  match (expect, kind_of outcome) with
  | Grid.Pass, (K_verified | K_inconclusive) -> true
  | Grid.Pass, (K_violation | K_crashed | K_timeout) -> false
  | Grid.Fail, K_violation -> true
  | Grid.Fail, (K_verified | K_inconclusive | K_crashed | K_timeout) -> false
  | Grid.Any, (K_verified | K_violation | K_inconclusive) -> true
  | Grid.Any, (K_crashed | K_timeout) -> false
  | Grid.Crash, K_crashed -> true
  | Grid.Crash, (K_verified | K_violation | K_inconclusive | K_timeout) ->
    false
  | Grid.Stall, K_timeout -> true
  | Grid.Stall, (K_verified | K_violation | K_inconclusive | K_crashed) ->
    false

let is_expected r = expected r.cell.Grid.clazz.Grid.expect r.outcome
