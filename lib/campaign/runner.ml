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

   Everything a cell draws flows from its derived seed (workload stream)
   and Grid.sub_seed (fault-plane streams); the runner itself reads no
   clock and no global RNG, so a cell's outcome is a pure function of
   the cell value. *)

module Run = Leopard_harness.Run

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

let with_planted_crash ~after (spec : Leopard_workload.Spec.t) =
  let calls = ref 0 in
  {
    spec with
    Leopard_workload.Spec.next_txn =
      (fun rng ->
        incr calls;
        if !calls = after then failwith "selftest: planted cell crash";
        spec.Leopard_workload.Spec.next_txn rng);
  }

let verifier_profile (clazz : Grid.clazz) =
  let name =
    Printf.sprintf "postgresql/%s"
      (Minidb.Isolation.level_to_string clazz.Grid.level)
  in
  match Leopard.Il_profile.find name with
  | Some il -> il
  | None -> invalid_arg ("Runner: no verifier profile " ^ name)

(* Build the Run.config for a cell.  Every constructor call here mirrors
   what bin/leopard_cli.ml builds for the flags Grid.cli_line renders —
   the pair must stay in lockstep or "reproduce with this line" lies. *)
let config_of_cell ~budget (cell : Grid.cell) =
  let c = cell.Grid.clazz in
  let spec =
    match Leopard_workload.Catalog.find c.Grid.workload with
    | Some s -> s
    | None -> invalid_arg ("Runner: unknown workload " ^ c.Grid.workload)
  in
  let spec =
    match c.Grid.plane with
    | Grid.Selftest_crash after -> with_planted_crash ~after spec
    | _ -> spec
  in
  let spec = with_budget ~budget spec in
  let env = Grid.sub_seed cell 1 in
  let stop =
    match c.Grid.plane with
    (* The hang cell must be stoppable only by the budget. *)
    | Grid.Selftest_hang -> Run.Txn_count max_int
    | _ -> Run.Txn_count c.Grid.txns
  in
  let profile = Minidb.Profile.postgresql in
  let level = c.Grid.level in
  let base ?faults ?chaos ?net ?wal ?crash_at ?wal_faults ?repl ?shard () =
    Run.config ?faults ?chaos ?net ?wal ?crash_at ?wal_faults ?repl ?shard
      ~clients:c.Grid.clients ~seed:cell.Grid.seed
      ~max_retries:c.Grid.max_retries ~spec ~profile ~level ~stop ()
  in
  match c.Grid.plane with
  | Grid.Baseline | Grid.Selftest_hang -> base ()
  | Grid.Selftest_crash _ -> base ()
  | Grid.Chaos { crash; drop; dup; delay } ->
    base
      ~chaos:
        (Leopard_harness.Chaos.config ~seed:env ~crash_prob:crash
           ~drop_prob:drop ~dup_prob:dup ~delay_prob:delay ())
      ()
  | Grid.Recovery { crash_at; torn; lost_fsync; dup_replay } ->
    base ~wal:true ~crash_at
      ~wal_faults:
        (Minidb.Wal.fault_cfg ~seed:env ~torn_tail_prob:torn
           ~lost_fsync_prob:lost_fsync ~dup_replay_prob:dup_replay ())
      ()
  | Grid.Net { drop; dup; reset; delay } ->
    base
      ~net:
        (Run.net_config
           ~fault:
             (Leopard_net.Faulty_link.config ~seed:env ~drop_prob:drop
                ~dup_prob:dup ~reset_prob:reset ~delay_prob:delay ())
           ())
      ()
  | Grid.Repl { followers; sync; drop; dup; hop_ns; failover_at } ->
    let cluster =
      Leopard_replication.Cluster.config ~followers
        ~ack_mode:
          (if sync then Leopard_replication.Cluster.Sync
           else Leopard_replication.Cluster.Async)
        ~hop_ns
        ~link:
          (Leopard_net.Faulty_link.config ~seed:env ~drop_prob:drop
             ~dup_prob:dup ())
        ~seed:env ()
    in
    base ~repl:(Run.repl_config ~failover_at cluster) ()
  | Grid.Shard { shards; drop; hop_ns; coord_crash_at } ->
    let group =
      Leopard_shard.Group.config ~shards ~hop_ns
        ~link:(Leopard_net.Faulty_link.config ~seed:env ~drop_prob:drop ())
        ()
    in
    base ~shard:(Run.shard_config ~coord_crash_at group) ()
  | Grid.Stacked { shards; per_shard; hop_ns; failover_at } ->
    let group = Leopard_shard.Group.config ~shards ~hop_ns () in
    let stack =
      Leopard_compose.Stack.config ~followers:per_shard
        ~seed:(Grid.sub_seed cell 2) ()
    in
    base
      ~shard:
        (Run.shard_config ~stack
           ~shard_failover_at:failover_at group)
      ()
  | Grid.Engine_fault faults ->
    base ~faults:(Minidb.Fault.Set.of_list faults) ()

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

let run ?step_budget (cell : Grid.cell) =
  let budget =
    match step_budget with
    | Some b -> b
    | None -> default_budget ~txns:cell.Grid.clazz.Grid.txns
  in
  Printexc.record_backtrace true;
  let outcome =
    try
      let config = config_of_cell ~budget cell in
      let il = verifier_profile cell.Grid.clazz in
      let outcome = Run.execute config in
      let v = Leopard_harness.Session.of_outcome il outcome in
      completed_of ~report:v.Leopard_harness.Session.report outcome
    with
    | Step_limit budget -> Timeout { budget }
    | e ->
      let backtrace = Printexc.get_backtrace () in
      Crashed { exn_text = Printexc.to_string e; backtrace }
  in
  { cell; outcome }

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
