(* Crash–recovery: WAL replay identity, durability faults, and
   cross-restart verification.

   The acceptance bar (ISSUE 2): with all fault probabilities zero a
   crash–restart run recovers byte-identically and the multi-epoch
   verdict is Verified; with each injected durability fault the CR
   verifier reports a Violation at the tuned seed — and never a false
   Verified at any seed. *)

module Run = Leopard_harness.Run
module Checker = Leopard.Checker
module Wal = Minidb.Wal
module Cell = Leopard_trace.Cell

let cell row = Helpers.cell row

let record ?(client = 0) ~txn ~start_ts ~commit_ts writes =
  {
    Wal.txn;
    client;
    start_ts;
    commit_ts;
    writes =
      List.map
        (fun (c, value, cts) ->
          { Wal.cell = c; value; write_op = txn * 10; commit_ts = cts })
        writes;
  }

(* ------------------------------------------------------------------ *)
(* Wal unit behaviour *)

let test_faultfree_crash_returns_all () =
  let wal = Wal.create () in
  let recs =
    List.init 5 (fun i ->
        record ~txn:i ~start_ts:(i * 10) ~commit_ts:((i * 10) + 5)
          [ (cell i, i, (i * 10) + 5) ])
  in
  List.iter (Wal.append wal) recs;
  Alcotest.(check int) "appended" 5 (Wal.appended wal);
  let replay, damage = Wal.crash wal in
  Alcotest.(check bool) "no damage" true (Wal.no_damage damage);
  Alcotest.(check int) "damaged_records is zero" 0
    (Wal.damaged_records damage);
  Alcotest.(check int) "all records replayed" 5 (List.length replay);
  Alcotest.(check (list int))
    "replay preserves append order" [ 0; 1; 2; 3; 4 ]
    (List.map (fun (r : Wal.record) -> r.txn) replay);
  Alcotest.(check int) "durable log survives" 5 (Wal.size wal)

let all_probs_cfg seed =
  Wal.fault_cfg ~seed ~torn_tail_prob:0.5 ~lost_fsync_prob:0.5
    ~reordered_flush_prob:0.5 ~dup_replay_prob:0.5 ()

let crash_with_faults seed =
  let wal = Wal.create ~faults:(all_probs_cfg seed) () in
  for i = 0 to 19 do
    (* two writers alternating over 4 hot cells, so dup-replay always
       has a superseded candidate *)
    Wal.append wal
      (record ~txn:i ~start_ts:(i * 10)
         ~commit_ts:((i * 10) + 5)
         [ (cell (i mod 4), i, (i * 10) + 5) ])
  done;
  Wal.crash wal

let test_same_seed_same_damage () =
  let r1, d1 = crash_with_faults 7 in
  let r2, d2 = crash_with_faults 7 in
  Alcotest.(check bool) "identical damage" true (d1 = d2);
  Alcotest.(check bool) "identical replay lists" true (r1 = r2)

let test_zero_probs_are_noop () =
  (* the all-zero config must behave exactly like no fault model *)
  let wal = Wal.create ~faults:(Wal.fault_cfg ~seed:99 ()) () in
  for i = 0 to 9 do
    Wal.append wal
      (record ~txn:i ~start_ts:i ~commit_ts:(i + 1) [ (cell 0, i, i + 1) ])
  done;
  let replay, damage = Wal.crash wal in
  Alcotest.(check bool) "disabled cfg" true
    (Wal.faults_disabled (Wal.fault_cfg ~seed:99 ()));
  Alcotest.(check bool) "no damage" true (Wal.no_damage damage);
  Alcotest.(check int) "nothing dropped" 10 (List.length replay)

let test_fault_string_round_trip () =
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Wal.fault_to_string f ^ " round-trips")
        true
        (Wal.fault_of_string (Wal.fault_to_string f) = Some f);
      Alcotest.(check string)
        (Wal.fault_to_string f ^ " is a CR fault")
        "CR" (Wal.expected_mechanism f))
    [ Wal.Torn_tail; Wal.Lost_fsync; Wal.Reordered_flush; Wal.Dup_replay ]

(* ------------------------------------------------------------------ *)
(* Recovery replay unit behaviour *)

let test_replay_rebuilds_chains () =
  let records =
    [
      record ~txn:1 ~start_ts:10 ~commit_ts:20 [ (cell 0, 11, 20) ];
      record ~txn:2 ~start_ts:30 ~commit_ts:40
        [ (cell 0, 22, 40); (cell 1, 23, 41) ];
    ]
  in
  let store, summary =
    Minidb.Recovery.replay
      ~initial:[ (cell 0, 0); (cell 1, 0) ]
      ~records
      ~fresh_ts:(fun () -> Alcotest.fail "no duplicates to restamp")
      ~damage:
        {
          Wal.torn_records = 0;
          lost_records = 0;
          reordered_records = 0;
          duplicated_records = 0;
          lost_writes = 0;
        }
  in
  Alcotest.(check int) "records replayed" 2 summary.Minidb.Recovery.replayed;
  Alcotest.(check int) "versions installed" 3
    summary.Minidb.Recovery.versions_installed;
  let chains = Minidb.Version_store.snapshot_committed store in
  Alcotest.(check int) "two cells" 2 (List.length chains);
  let newest c =
    match List.assoc c chains with
    | v :: _ -> v.Minidb.Version_store.value
    | [] -> -1
  in
  Alcotest.(check int) "cell 0 newest is txn 2's write" 22 (newest (cell 0));
  Alcotest.(check int) "cell 1 newest is txn 2's write" 23 (newest (cell 1))

let test_dup_replay_restamps_on_top () =
  let superseded =
    record ~txn:1 ~start_ts:10 ~commit_ts:20 [ (cell 0, 11, 20) ]
  in
  let newer = record ~txn:2 ~start_ts:30 ~commit_ts:40 [ (cell 0, 22, 40) ] in
  let store, summary =
    Minidb.Recovery.replay ~initial:[ (cell 0, 0) ]
      ~records:[ superseded; newer; superseded ]
      ~fresh_ts:(fun () -> 1000)
      ~damage:
        {
          Wal.torn_records = 0;
          lost_records = 0;
          reordered_records = 0;
          duplicated_records = 1;
          lost_writes = 0;
        }
  in
  Alcotest.(check int) "one duplicate" 1 summary.Minidb.Recovery.duplicated;
  match Minidb.Version_store.snapshot_committed store with
  | [ (_, newest :: _) ] ->
    Alcotest.(check int)
      "resurrected value on top" 11 newest.Minidb.Version_store.value;
    Alcotest.(check int)
      "restamped at recovery time" 1000 newest.Minidb.Version_store.commit_ts
  | _ -> Alcotest.fail "expected one cell with versions"

(* ------------------------------------------------------------------ *)
(* End-to-end crash–restart runs *)

let pg = Minidb.Profile.postgresql
let si = Minidb.Isolation.Snapshot_isolation
let il_si = Leopard.Il_profile.postgresql_si

let crash_run ?(spec = Leopard_workload.Smallbank.spec ()) ?(seed = 42)
    ?(crash_at = [ 3_000_000 ]) ?wal_faults () =
  let cfg =
    Run.config ~clients:8 ~seed ~max_retries:3 ~wal:true ~crash_at ?wal_faults
      ~spec ~profile:pg ~level:si ~stop:(Run.Txn_count 800) ()
  in
  Run.execute cfg

(* Offline verification of a (possibly multi-epoch) outcome, exactly as
   the CLI's offline path does it. *)
let verify_outcome (outcome : Run.outcome) =
  let checker = Checker.create il_si in
  List.iter
    (fun (e : Leopard_trace.Codec.epoch_mark) ->
      Checker.note_restart checker ~at:e.at ~replayed:e.replayed
        ~damaged:e.damaged)
    outcome.Run.epochs;
  List.iter (Checker.feed checker) (Run.all_traces_sorted outcome);
  Checker.finalize checker;
  Checker.report checker

let test_byte_identical_recovery () =
  (* Run A: WAL on, never crashes.  Run B: same seed, crash scheduled
     past the natural end of the run, so recovery replays the complete
     log over the same history.  The recovered committed image must be
     byte-identical to A's final committed image. *)
  let run_a = crash_run ~crash_at:[] () in
  let run_b = crash_run ~crash_at:[ 1_000_000_000 ] () in
  Alcotest.(check int) "same commits" run_a.Run.commits run_b.Run.commits;
  Alcotest.(check int) "b restarted once" 1 run_b.Run.restarts;
  Alcotest.(check int) "no damage" 0 run_b.Run.wal_damaged;
  Alcotest.(check bool)
    "recovered committed state is byte-identical" true
    (run_a.Run.snapshot () = run_b.Run.snapshot ());
  match verify_outcome run_b |> Checker.verdict with
  | Checker.Verified -> ()
  | Checker.Violation -> Alcotest.fail "clean recovery reported a violation"
  | Checker.Inconclusive r -> Alcotest.fail ("unexpectedly inconclusive: " ^ r)

let test_clean_midrun_crash_verifies () =
  let outcome = crash_run () in
  Alcotest.(check int) "one restart" 1 outcome.Run.restarts;
  Alcotest.(check bool)
    "crash killed in-flight txns" true
    (outcome.Run.aborts_crash > 0);
  Alcotest.(check bool)
    "clients kept running after restart" true
    (outcome.Run.commits > 400);
  let report = verify_outcome outcome in
  Alcotest.(check int) "no violations" 0 report.Checker.bugs_total;
  (match Checker.verdict report with
  | Checker.Verified -> ()
  | Checker.Violation -> Alcotest.fail "clean crash–restart run failed"
  | Checker.Inconclusive r ->
    Alcotest.fail ("clean restart must stay conclusive: " ^ r));
  Alcotest.(check int) "restart recorded in degradation" 1
    report.Checker.degradation.Checker.restarts

let test_crash_run_is_deterministic () =
  let faults = Wal.fault_cfg ~seed:3 ~lost_fsync_prob:0.7 () in
  let a = crash_run ~wal_faults:faults () in
  let b = crash_run ~wal_faults:faults () in
  Alcotest.(check int) "same damage" a.Run.wal_damaged b.Run.wal_damaged;
  Alcotest.(check bool) "same epoch marks" true (a.Run.epochs = b.Run.epochs);
  Alcotest.(check bool)
    "same traces" true
    (Run.all_traces_sorted a = Run.all_traces_sorted b)

let test_wal_never_perturbs_workload () =
  (* enabling the WAL (and its private fault stream) must not move a
     single workload RNG draw: the traces are byte-identical *)
  let plain =
    Run.config ~clients:8 ~seed:42 ~max_retries:3
      ~spec:(Leopard_workload.Smallbank.spec ())
      ~profile:pg ~level:si ~stop:(Run.Txn_count 800) ()
  in
  let walled =
    Run.config ~clients:8 ~seed:42 ~max_retries:3 ~wal:true
      ~wal_faults:(Wal.fault_cfg ~seed:5 ~torn_tail_prob:1.0 ())
      ~spec:(Leopard_workload.Smallbank.spec ())
      ~profile:pg ~level:si ~stop:(Run.Txn_count 800) ()
  in
  let a = Run.execute plain and b = Run.execute walled in
  Alcotest.(check bool)
    "identical traces with and without wal" true
    (Run.all_traces_sorted a = Run.all_traces_sorted b);
  Alcotest.(check bool) "wal actually logged" true (b.Run.wal_appended > 0)

(* ------------------------------------------------------------------ *)
(* Each durability fault plants a violation the CR verifier finds.
   Workload/seed per fault are tuned so the post-crash read that trips
   over the damage actually occurs before the damaged cell is
   overwritten; the never-false-Verified sweep below is seed-blind. *)

let ycsb = Leopard_workload.Ycsb.spec ~theta:0.8 ()

let fault_cases =
  [
    ( "torn-tail",
      Wal.fault_cfg ~torn_tail_prob:1.0 (),
      Leopard_workload.Smallbank.spec (),
      1 );
    ( "lost-fsync",
      Wal.fault_cfg ~lost_fsync_prob:1.0 ~lost_fsync_window:8 (),
      ycsb,
      2 );
    ( "reordered-flush",
      Wal.fault_cfg ~reordered_flush_prob:1.0 (),
      Leopard_workload.Smallbank.spec (),
      7 );
    ("dup-replay", Wal.fault_cfg ~dup_replay_prob:1.0 (), ycsb, 42);
  ]

let test_fault_found (name, faults, spec, seed) () =
  let outcome = crash_run ~spec ~seed ~wal_faults:faults () in
  Alcotest.(check bool)
    (name ^ " damaged the log")
    true
    (outcome.Run.wal_damaged > 0);
  let report = verify_outcome outcome in
  Alcotest.(check bool)
    (name ^ " violation found")
    true
    (report.Checker.bugs_total > 0);
  Alcotest.(check bool)
    (name ^ " caught by the CR verifier")
    true
    (List.mem "CR" (Helpers.bug_mechanisms report));
  match Checker.verdict report with
  | Checker.Violation -> ()
  | Checker.Verified | Checker.Inconclusive _ ->
    Alcotest.fail (name ^ ": expected a Violation verdict")

let test_never_false_verified () =
  (* seed-blind sweep: whatever the damage pattern, a damaged recovery
     must never yield Verified — at worst Inconclusive *)
  List.iter
    (fun (name, faults, spec, _) ->
      List.iter
        (fun seed ->
          let outcome = crash_run ~spec ~seed ~wal_faults:faults () in
          if outcome.Run.wal_damaged > 0 then
            match verify_outcome outcome |> Checker.verdict with
            | Checker.Verified ->
              Alcotest.fail
                (Printf.sprintf "%s seed %d: damaged recovery verified" name
                   seed)
            | Checker.Violation | Checker.Inconclusive _ -> ())
        [ 1; 2; 3 ])
    fault_cases

(* ------------------------------------------------------------------ *)
(* Checker-level note_restart semantics *)

let simple_history =
  [
    Helpers.write ~client:0 ~txn:1 ~bef:10 ~aft:20 [ (cell 0, 1) ];
    Helpers.commit ~client:0 ~txn:1 ~bef:30 ~aft:40 ();
  ]

let verdict_after_restart ~damaged =
  let checker = Checker.create il_si in
  Checker.note_restart checker ~at:5 ~replayed:3 ~damaged;
  List.iter (Checker.feed checker) simple_history;
  Checker.finalize checker;
  Checker.verdict (Checker.report checker)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_note_restart_semantics () =
  (match verdict_after_restart ~damaged:0 with
  | Checker.Verified -> ()
  | _ -> Alcotest.fail "clean restart must stay Verified");
  (match verdict_after_restart ~damaged:2 with
  | Checker.Inconclusive reason ->
    Alcotest.(check bool)
      "reason names the wal" true (contains_sub reason "wal")
  | Checker.Verified -> Alcotest.fail "damaged recovery verified"
  | Checker.Violation -> Alcotest.fail "no violation exists here");
  match
    let checker = Checker.create il_si in
    Checker.note_restart checker ~at:0 ~replayed:0 ~damaged:(-1)
  with
  | () -> Alcotest.fail "negative damage must be rejected"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "fault-free crash replays everything" `Quick
      test_faultfree_crash_returns_all;
    Alcotest.test_case "same seed, same damage" `Quick
      test_same_seed_same_damage;
    Alcotest.test_case "zero probabilities are a no-op" `Quick
      test_zero_probs_are_noop;
    Alcotest.test_case "fault names round-trip" `Quick
      test_fault_string_round_trip;
    Alcotest.test_case "replay rebuilds committed chains" `Quick
      test_replay_rebuilds_chains;
    Alcotest.test_case "dup replay restamps on top" `Quick
      test_dup_replay_restamps_on_top;
    Alcotest.test_case "recovery is byte-identical" `Quick
      test_byte_identical_recovery;
    Alcotest.test_case "clean mid-run crash verifies" `Quick
      test_clean_midrun_crash_verifies;
    Alcotest.test_case "crash runs are deterministic" `Quick
      test_crash_run_is_deterministic;
    Alcotest.test_case "wal never perturbs the workload" `Quick
      test_wal_never_perturbs_workload;
    Alcotest.test_case "never false-verified under damage" `Slow
      test_never_false_verified;
    Alcotest.test_case "note_restart semantics" `Quick
      test_note_restart_semantics;
  ]
  @ List.map
      (fun case ->
        let name, _, _, _ = case in
        Alcotest.test_case
          (Printf.sprintf "%s fault is found" name)
          `Quick (test_fault_found case))
      fault_cases
