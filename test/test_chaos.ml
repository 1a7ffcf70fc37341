(* Chaos-tolerant collection: seeded fault injection on the tracer path,
   graceful degradation on the verification side.

   The invariants under test:
   - chaos is deterministic: the same seed replays the same faults;
   - an all-zero chaos config is a true no-op (byte-identical traces);
   - a crashed client neither wedges the online pipeline nor produces a
     false alarm — the verdict degrades to Inconclusive;
   - indeterminate transactions are excluded from obligations, their
     observed values counted as inconclusive reads, not violations;
   - duplicate deliveries are deduplicated, not double-counted. *)

module Chaos = Leopard_harness.Chaos
module Run = Leopard_harness.Run
module Online = Leopard_harness.Online
module Checker = Leopard.Checker
module Trace = Leopard_trace.Trace
module Codec = Leopard_trace.Codec

let spec () = Leopard_workload.Smallbank.spec ()

let run_with ?chaos ?(max_retries = 0) ?(clients = 6) ?(txns = 200)
    ?(seed = 7) () =
  let cfg =
    Run.config ~clients ~seed ?chaos ~max_retries ~spec:(spec ())
      ~profile:Minidb.Profile.postgresql
      ~level:Minidb.Isolation.Snapshot_isolation
      ~stop:(Run.Txn_count txns) ()
  in
  Run.execute cfg

let lines outcome =
  List.map Codec.to_line (Run.all_traces_sorted outcome)

let chaotic_config =
  Chaos.config ~seed:3 ~crash_prob:0.004 ~drop_prob:0.02 ~dup_prob:0.02
    ~delay_prob:0.05 ~max_delay_ns:300_000 ~clock_skew_ns:2_000 ()

let test_zero_config_is_identity () =
  let plain = run_with () in
  let nulled = run_with ~chaos:(Chaos.config ()) () in
  Alcotest.(check bool) "config is disabled" true
    (Chaos.is_disabled (Chaos.config ()));
  Alcotest.(check (list string)) "byte-identical traces" (lines plain)
    (lines nulled);
  Alcotest.(check int) "same commits" plain.Run.commits nulled.Run.commits;
  Alcotest.(check int) "same aborts" plain.Run.aborts nulled.Run.aborts;
  Alcotest.(check (list int)) "nobody crashed" [] nulled.Run.crashed_clients;
  Alcotest.(check int) "nothing dropped" 0 nulled.Run.chaos_dropped

let test_same_seed_same_faults () =
  let a = run_with ~chaos:chaotic_config () in
  let b = run_with ~chaos:chaotic_config () in
  Alcotest.(check (list string)) "identical collected traces" (lines a)
    (lines b);
  Alcotest.(check (list int)) "same crashed clients" a.Run.crashed_clients
    b.Run.crashed_clients;
  Alcotest.(check (list int)) "same indeterminate txns"
    a.Run.indeterminate_txns b.Run.indeterminate_txns;
  Alcotest.(check int) "same drops" a.Run.chaos_dropped b.Run.chaos_dropped;
  Alcotest.(check int) "same dups" a.Run.chaos_duplicated
    b.Run.chaos_duplicated;
  Alcotest.(check int) "same delays" a.Run.chaos_delayed b.Run.chaos_delayed

(* Crash-heavy online run: every client eventually dies.  The pipeline
   must still terminate (Closed_crashed releases the watermark), the
   checker must not hallucinate violations on a correct engine, and the
   verdict must degrade to Inconclusive. *)
let test_crashed_clients_online_inconclusive () =
  let cfg =
    Run.config ~clients:6 ~seed:11
      ~chaos:(Chaos.config ~seed:5 ~crash_prob:0.01 ())
      ~spec:(spec ()) ~profile:Minidb.Profile.postgresql
      ~level:Minidb.Isolation.Snapshot_isolation
      ~stop:(Run.Txn_count 300) ()
  in
  let res = Online.run ~max_stall_ns:2_000_000 ~il:Leopard.Il_profile.postgresql_si cfg in
  let report = res.Online.report in
  Alcotest.(check bool) "some client crashed" true
    (res.Online.outcome.Run.crashed_clients <> []);
  Alcotest.(check int) "no false violations" 0 report.Checker.bugs_total;
  Alcotest.(check int) "crashes recorded in degradation"
    (List.length res.Online.outcome.Run.crashed_clients)
    report.Checker.degradation.Checker.crashed_clients;
  match Checker.verdict report with
  | Checker.Inconclusive _ -> ()
  | Checker.Verified -> Alcotest.fail "degraded run claimed Verified"
  | Checker.Violation -> Alcotest.fail "degraded run claimed Violation"

(* Full chaos online: lossy, duplicated, delayed, skewed AND crashing —
   still terminates, still no false alarms, still Inconclusive. *)
let test_full_chaos_online_no_false_alarms () =
  let cfg =
    Run.config ~clients:8 ~seed:13 ~chaos:chaotic_config ~spec:(spec ())
      ~profile:Minidb.Profile.postgresql
      ~level:Minidb.Isolation.Snapshot_isolation
      ~stop:(Run.Txn_count 400) ()
  in
  let res = Online.run ~max_stall_ns:2_000_000 ~il:Leopard.Il_profile.postgresql_si cfg in
  let report = res.Online.report in
  Alcotest.(check int) "no false violations" 0 report.Checker.bugs_total;
  Alcotest.(check bool) "degradation recorded" false
    (Checker.degradation_free report.Checker.degradation);
  (match Checker.verdict report with
  | Checker.Inconclusive reason ->
    Alcotest.(check bool) "reason is human-readable" true
      (String.length reason > 0)
  | Checker.Verified | Checker.Violation ->
    Alcotest.fail "expected Inconclusive");
  (* the monitor's loss accounting reaches the report *)
  Alcotest.(check bool) "losses counted" true
    (report.Checker.degradation.Checker.lost_traces
     >= res.Online.outcome.Run.chaos_dropped)

(* Chaos must not mask real bugs: a faulty engine under a lossless
   crash-free chaos config (skew only) still gets caught. *)
let test_chaos_does_not_mask_violations () =
  let faults =
    Minidb.Fault.Set.add Minidb.Fault.No_fuw Minidb.Fault.Set.empty
  in
  let cfg =
    Run.config ~clients:8 ~seed:42 ~faults
      ~chaos:(Chaos.config ~seed:2 ~clock_skew_ns:500 ())
      ~spec:(Leopard_workload.Blindw.spec Leopard_workload.Blindw.RW)
      ~profile:Minidb.Profile.postgresql
      ~level:Minidb.Isolation.Snapshot_isolation
      ~stop:(Run.Txn_count 600) ()
  in
  let res = Online.run ~il:Leopard.Il_profile.postgresql_si cfg in
  Alcotest.(check bool) "violations still found" true
    (res.Online.report.Checker.bugs_total > 0);
  match Checker.verdict res.Online.report with
  | Checker.Violation -> ()
  | Checker.Verified | Checker.Inconclusive _ ->
    Alcotest.fail "expected Violation to dominate the verdict"

let test_retries_rerun_aborted_txns () =
  (* write-heavy + SI first-updater-wins produces engine aborts *)
  let run ~max_retries =
    let cfg =
      Run.config ~clients:8 ~seed:21 ~max_retries
        ~spec:(Leopard_workload.Blindw.spec Leopard_workload.Blindw.W)
        ~profile:Minidb.Profile.postgresql
        ~level:Minidb.Isolation.Snapshot_isolation
        ~stop:(Run.Txn_count 400) ()
    in
    Run.execute cfg
  in
  let without = run ~max_retries:0 in
  let with_r = run ~max_retries:3 in
  Alcotest.(check int) "no retries by default" 0 without.Run.retries;
  Alcotest.(check bool) "aborts exist to retry" true (with_r.Run.aborts > 0);
  Alcotest.(check bool) "retries happened" true (with_r.Run.retries > 0);
  (* retried histories stay verifiable *)
  let report =
    Helpers.check Leopard.Il_profile.postgresql_si
      (Run.all_traces_sorted with_r)
  in
  Alcotest.(check int) "retried run verifies clean" 0
    report.Checker.bugs_total

(* Every engine abort reason is retried under ~max_retries, not only
   first-updater-wins: deadlock victims (locking profiles) and certifier
   conflicts (SSI) re-run the same transaction program too. *)
let retry_scenario ~spec ~profile ~level ~max_retries =
  let cfg =
    Run.config ~clients:8 ~seed:21 ~max_retries ~spec ~profile ~level
      ~stop:(Run.Txn_count 400) ()
  in
  Run.execute cfg

let test_retries_cover_all_abort_reasons () =
  let cases =
    [
      ( "fuw victim",
        Leopard_workload.Blindw.spec Leopard_workload.Blindw.W,
        Minidb.Profile.postgresql,
        Minidb.Isolation.Snapshot_isolation,
        fun o -> o.Run.aborts_fuw );
      ( "certifier victim",
        Leopard_workload.Blindw.spec Leopard_workload.Blindw.RW,
        Minidb.Profile.cockroachdb,
        Minidb.Isolation.Serializable,
        fun o -> o.Run.aborts_certifier );
      ( "deadlock victim",
        (* few rows + multi-row blind writes in random order: classic
           lock-order cycles under 2PL *)
        Leopard_workload.Blindw.spec ~rows:50 Leopard_workload.Blindw.W,
        Minidb.Profile.innodb,
        Minidb.Isolation.Repeatable_read,
        fun o -> o.Run.aborts_deadlock );
    ]
  in
  List.iter
    (fun (name, spec, profile, level, count) ->
      let plain = retry_scenario ~spec ~profile ~level ~max_retries:0 in
      Alcotest.(check bool)
        (name ^ " aborts occur")
        true (count plain > 0);
      Alcotest.(check int) (name ^ " no retries at cap 0") 0 plain.Run.retries;
      let retried = retry_scenario ~spec ~profile ~level ~max_retries:3 in
      Alcotest.(check bool)
        (name ^ " is re-run")
        true
        (count retried > 0 && retried.Run.retries > 0))
    cases

let test_backoff_is_bounded () =
  let base = 50_000.0 in
  (* doubles per attempt ... *)
  Alcotest.(check (float 0.0)) "first retry" base
    (Run.backoff_mean_ns ~retry_backoff_ns:base ~tries:0);
  Alcotest.(check (float 0.0)) "second retry" (base *. 2.0)
    (Run.backoff_mean_ns ~retry_backoff_ns:base ~tries:1);
  let prev = ref 0.0 in
  for tries = 0 to 20 do
    let b = Run.backoff_mean_ns ~retry_backoff_ns:base ~tries in
    Alcotest.(check bool) "monotone non-decreasing" true (b >= !prev);
    prev := b
  done;
  (* ... and caps at 32x, however many attempts pile up *)
  Alcotest.(check (float 0.0)) "capped at 32x" (base *. 32.0)
    (Run.backoff_mean_ns ~retry_backoff_ns:base ~tries:1000)

(* Checker-level semantics of indeterminate transactions: a read that
   observed a crashed transaction's write is inconclusive, not a bug —
   whether the crash is declared before or after the traces arrive. *)
let cellx = Helpers.cell 0

let indeterminate_history =
  [
    Helpers.write ~client:0 ~txn:1 ~bef:10 ~aft:20 [ (cellx, 1) ];
    (* client 0 crashed here: no Commit/Abort for txn 1 ever arrives *)
    Helpers.read ~client:1 ~txn:2 ~bef:30 ~aft:40 [ (cellx, 1) ];
    Helpers.commit ~client:1 ~txn:2 ~bef:50 ~aft:60 ();
  ]

let check_indeterminate ~mark_first =
  let checker = Checker.create Leopard.Il_profile.postgresql_si in
  if mark_first then Checker.mark checker ~txn:1 Checker.Crashed;
  List.iter (Checker.feed checker) indeterminate_history;
  if not mark_first then Checker.mark checker ~txn:1 Checker.Crashed;
  Checker.note_crashed_clients checker 1;
  Checker.finalize checker;
  Checker.report checker

let test_indeterminate_read_is_inconclusive () =
  List.iter
    (fun mark_first ->
      let report = check_indeterminate ~mark_first in
      Alcotest.(check int) "not a violation" 0 report.Checker.bugs_total;
      (* the online monitor always marks before the dependent traces are
         dispatched (mark_first); only then is the observed value still
         pending and classified as inconclusive.  A late mark must at
         least never turn the read into a false alarm. *)
      if mark_first then
        Alcotest.(check int) "counted as inconclusive" 1
          report.Checker.degradation.Checker.inconclusive_reads;
      Alcotest.(check int) "txn recorded as indeterminate" 1
        report.Checker.degradation.Checker.indeterminate_txns;
      match Checker.verdict report with
      | Checker.Inconclusive _ -> ()
      | Checker.Verified | Checker.Violation ->
        Alcotest.fail "expected Inconclusive")
    [ true; false ]

let test_duplicate_traces_deduplicated () =
  let w = Helpers.write ~client:0 ~txn:1 ~bef:10 ~aft:20 [ (cellx, 1) ] in
  let c = Helpers.commit ~client:0 ~txn:1 ~bef:30 ~aft:40 () in
  let checker = Checker.create Leopard.Il_profile.postgresql_si in
  List.iter (Checker.feed checker) [ w; w; c; c ];
  Checker.finalize checker;
  let report = Checker.report checker in
  Alcotest.(check int) "duplicates dropped" 2
    report.Checker.degradation.Checker.dup_traces_dropped;
  Alcotest.(check int) "one commit" 1 report.Checker.committed;
  Alcotest.(check int) "no violations" 0 report.Checker.bugs_total

let suite =
  [
    Alcotest.test_case "zero config is identity" `Quick
      test_zero_config_is_identity;
    Alcotest.test_case "same seed, same faults" `Quick
      test_same_seed_same_faults;
    Alcotest.test_case "crashed clients: online run inconclusive" `Quick
      test_crashed_clients_online_inconclusive;
    Alcotest.test_case "full chaos: no false alarms" `Quick
      test_full_chaos_online_no_false_alarms;
    Alcotest.test_case "chaos does not mask violations" `Quick
      test_chaos_does_not_mask_violations;
    Alcotest.test_case "retries re-run aborted txns" `Quick
      test_retries_rerun_aborted_txns;
    Alcotest.test_case "retries cover all abort reasons" `Quick
      test_retries_cover_all_abort_reasons;
    Alcotest.test_case "retry backoff is bounded" `Quick
      test_backoff_is_bounded;
    Alcotest.test_case "indeterminate read is inconclusive" `Quick
      test_indeterminate_read_is_inconclusive;
    Alcotest.test_case "duplicate traces deduplicated" `Quick
      test_duplicate_traces_deduplicated;
  ]
