(* The replication fault plane: a primary/follower cluster whose log
   ships over the same faulty wire as client traffic, a seeded failover
   orchestrator, and checker soundness across leader changes.

   The invariants under test:
   - a disabled replication environment (no link faults, hops,
     partitions, or follower reads) is byte-identical to the
     single-node path on the same seed, in both ack modes;
   - the same replication seed replays the same faults, stats and
     traces;
   - environmental replication faults (partitions, failovers with an
     honestly-reported lost suffix, gate timeouts) never produce a
     false Violation — the verdict degrades to Inconclusive instead;
   - the planted faults make the cluster *lie*, and each lie is caught
     as a definite Violation with the advertised mechanism:
     Promote_lagging / Lose_acked_window hide lost acked commits (CR),
     Split_brain leaves two unfenced timelines committing (FUW);
   - honest follower reads are byte-identical to primary reads;
     Stale_follower_read serves behind the snapshot and is caught;
   - [Checker.note_failover]: lost commits are never resolvable, a
     lossless failover does not degrade the verdict, and "lost beats
     ambiguous". *)

module Run = Leopard_harness.Run
module Validate = Leopard_harness.Cli_validate
module Repl = Leopard_replication
module Cluster = Repl.Cluster
module Repl_fault = Repl.Repl_fault
module Link = Leopard_net.Faulty_link
module Checker = Leopard.Checker
module Trace = Leopard_trace.Trace
module Codec = Leopard_trace.Codec

let spec () = Leopard_workload.Smallbank.spec ()
let si = Leopard.Il_profile.postgresql_si
let x = Helpers.cell 0
let y = Helpers.cell 1

(* Read-modify-write over four hot cells: any two transactions that
   commit concurrent writes to the same cell are an FUW violation the
   engine itself would normally prevent — exactly what a second unfenced
   timeline or a stale replica snapshot lets slip through.  (Smallbank's
   1000 uniform accounts make such collisions too rare to observe.) *)
let hot_spec = Helpers.workload "hot-rmw"

let run_with ?repl ?spec:(mk = spec) ?(clients = 6) ?(txns = 200) ?(seed = 7)
    () =
  let cfg =
    Run.config ~clients ~seed ?repl ~spec:(mk ())
      ~profile:Minidb.Profile.postgresql
      ~level:Minidb.Isolation.Snapshot_isolation
      ~stop:(Run.Txn_count txns) ()
  in
  Run.execute cfg

let lines outcome = List.map Codec.to_line (Run.all_traces_sorted outcome)

let repl_stats outcome =
  match outcome.Run.repl with
  | Some s -> s
  | None -> Alcotest.fail "replicated run must report repl stats"

(* Offline verification exactly as the CLI does it: every mark through
   [Marks.apply] (failover marks last, so lost beats ambiguous), then
   the traces in timestamp order. *)
let check_outcome outcome =
  let checker = Checker.create si in
  Leopard_harness.Marks.(apply checker (of_outcome outcome));
  List.iter (Checker.feed checker) (Run.all_traces_sorted outcome);
  Checker.finalize checker;
  Checker.report checker

(* The orchestrator takes absolute simulation instants; derive them
   from an unreplicated probe run of the same shape so the windows land
   mid-run regardless of workload-latency defaults. *)
let probe_duration ?spec ~clients ~txns ~seed () =
  (run_with ?spec ~clients ~txns ~seed ()).Run.sim_duration_ns

(* --- zero-fault replication: byte identity --- *)

let identity_case ack () =
  let plain = run_with () in
  let repl =
    Run.repl_config (Cluster.config ~followers:2 ~ack_mode:ack ())
  in
  let replicated = run_with ~repl () in
  Alcotest.(check (list string))
    "byte-identical traces" (lines plain) (lines replicated);
  Alcotest.(check int) "same commits" plain.Run.commits
    replicated.Run.commits;
  Alcotest.(check int) "same aborts" plain.Run.aborts replicated.Run.aborts;
  Alcotest.(check bool) "no leader marks" true (replicated.Run.leaders = []);
  Alcotest.(check bool) "no ambiguous commits" true
    (replicated.Run.repl_ambiguous = []);
  let s = repl_stats replicated in
  Alcotest.(check int) "no resends" 0 s.Cluster.resends;
  Alcotest.(check int) "no partition drops" 0 s.Cluster.partition_drops;
  Alcotest.(check int) "no gate timeouts" 0 s.Cluster.gate_timeouts;
  Alcotest.(check int) "no failovers" 0 s.Cluster.failovers;
  Alcotest.(check int) "no follower reads" 0 s.Cluster.follower_reads;
  Alcotest.(check int) "every entry fully acked" s.Cluster.log_length
    s.Cluster.min_acked;
  Alcotest.(check int) "log holds every commit" replicated.Run.commits
    s.Cluster.log_length

let test_disabled_sync_is_identity = identity_case Cluster.Sync
let test_disabled_async_is_identity = identity_case Cluster.Async

let test_identity_sweep () =
  (* the acceptance bar: 50 seeds, both ack modes, byte-for-byte *)
  for seed = 1 to 50 do
    let plain = lines (run_with ~clients:4 ~txns:40 ~seed ()) in
    List.iter
      (fun ack ->
        let repl =
          Run.repl_config (Cluster.config ~followers:1 ~ack_mode:ack ())
        in
        let replicated =
          lines (run_with ~repl ~clients:4 ~txns:40 ~seed ())
        in
        if plain <> replicated then
          Alcotest.failf "seed %d (%s): replicated run diverged" seed
            (Cluster.ack_mode_to_string ack))
      [ Cluster.Sync; Cluster.Async ]
  done

(* --- determinism under replication faults --- *)

let faulty_repl ?(seed = 11) () =
  Run.repl_config
    (Cluster.config ~followers:2 ~ack_mode:Cluster.Sync ~hop_ns:20_000
       ~link:
         (Link.config ~seed ~delay_prob:0.1 ~drop_prob:0.1 ~dup_prob:0.05
            ~reorder_prob:0.05 ())
       ())

let test_same_seed_same_faults () =
  let a = run_with ~repl:(faulty_repl ()) () in
  let b = run_with ~repl:(faulty_repl ()) () in
  Alcotest.(check (list string)) "identical traces" (lines a) (lines b);
  Alcotest.(check bool) "identical repl stats" true
    (repl_stats a = repl_stats b);
  Alcotest.(check bool) "identical ambiguity" true
    (a.Run.repl_ambiguous = b.Run.repl_ambiguous);
  Alcotest.(check bool) "identical leader marks" true
    (a.Run.leaders = b.Run.leaders);
  let s = repl_stats a in
  Alcotest.(check bool) "faults actually injected" true
    (s.Cluster.link_dropped > 0 && s.Cluster.resends > 0)

(* --- environmental faults never fabricate violations --- *)

let test_failover_sweep_no_false_violation () =
  (* partitions isolating the primary, partition-triggered promotion,
     sync gates timing out: everything here is environmental, so the
     checker may say Inconclusive but never Violation *)
  let seen_failovers = ref 0 and seen_lost = ref 0 in
  let seen_ambiguous = ref 0 in
  for seed = 1 to 50 do
    let d = probe_duration ~clients:4 ~txns:60 ~seed () in
    let cluster =
      Cluster.config ~followers:2 ~ack_mode:Cluster.Sync ~hop_ns:(d / 100)
        ~gate_timeout_ns:(d / 10)
        ~partitions:
          [ { Cluster.follower = -1; from_ns = d / 3; until_ns = 2 * d / 3 } ]
        ()
    in
    let repl =
      Run.repl_config ~promote_on_partition:true
        ~election_timeout_ns:(d / 20) cluster
    in
    let outcome = run_with ~repl ~clients:4 ~txns:60 ~seed () in
    seen_failovers := !seen_failovers + (repl_stats outcome).Cluster.failovers;
    List.iter
      (fun (m : Codec.leader_mark) ->
        seen_lost := !seen_lost + List.length m.Codec.lost)
      outcome.Run.leaders;
    seen_ambiguous :=
      !seen_ambiguous + List.length outcome.Run.repl_ambiguous;
    let r = check_outcome outcome in
    if r.Checker.bugs_total > 0 then
      Alcotest.failf "seed %d: false violation under honest failover" seed
  done;
  Alcotest.(check bool) "sweep actually promoted followers" true
    (!seen_failovers > 0);
  Alcotest.(check bool) "sweep exercised loss or ambiguity" true
    (!seen_lost > 0 || !seen_ambiguous > 0)

let test_honest_lost_suffix_is_inconclusive () =
  (* async mode with a slow hop: a mid-run promotion truncates in-flight
     acked commits, but the cluster reports them — Inconclusive with the
     loss on the books, not a Violation *)
  let found = ref false in
  let seed = ref 1 in
  while (not !found) && !seed <= 20 do
    let d = probe_duration ~clients:4 ~txns:60 ~seed:!seed () in
    let cluster =
      Cluster.config ~followers:1 ~ack_mode:Cluster.Async ~hop_ns:(d / 4) ()
    in
    let repl = Run.repl_config ~failover_at:[ d / 2 ] cluster in
    let outcome = run_with ~repl ~clients:4 ~txns:60 ~seed:!seed () in
    let lost =
      List.concat_map (fun (m : Codec.leader_mark) -> m.Codec.lost)
        outcome.Run.leaders
    in
    if lost <> [] then begin
      found := true;
      let r = check_outcome outcome in
      Alcotest.(check int) "no bugs" 0 r.Checker.bugs_total;
      Alcotest.(check bool) "failover counted" true
        (r.Checker.degradation.Checker.failovers >= 1);
      Alcotest.(check int) "loss counted" (List.length lost)
        r.Checker.degradation.Checker.lost_suffix_commits;
      match Checker.verdict r with
      | Checker.Inconclusive _ -> ()
      | Checker.Verified -> Alcotest.fail "lost commits cannot verify"
      | Checker.Violation -> Alcotest.fail "honest loss is not a violation"
    end;
    incr seed
  done;
  Alcotest.(check bool) "a seed lost acked commits" true !found

(* --- planted faults are caught with the advertised mechanism --- *)

(* Search a bounded seed range for a run where the planted lie left an
   observable contradiction, and assert the checker proves it with the
   fault's expected mechanism.  The lie itself must also be checked: the
   claim-clean faults report an empty lost list even when the promotion
   truncated commits. *)
let find_violation ?spec ~mechanism ~configure () =
  let found = ref None in
  let seed = ref 1 in
  while Option.is_none !found && !seed <= 30 do
    let d = probe_duration ?spec ~clients:4 ~txns:80 ~seed:!seed () in
    let outcome =
      run_with ?spec ~repl:(configure d) ~clients:4 ~txns:80 ~seed:!seed ()
    in
    let r = check_outcome outcome in
    if
      r.Checker.bugs_total > 0
      && List.mem mechanism (Helpers.bug_mechanisms r)
    then found := Some (outcome, r);
    incr seed
  done;
  match !found with
  | Some pair -> pair
  | None ->
    Alcotest.failf "no seed in 1..30 produced a %s violation" mechanism

let test_promote_lagging_detected () =
  let configure d =
    Run.repl_config ~failover_at:[ d / 2 ]
      (Cluster.config ~followers:2 ~ack_mode:Cluster.Async ~hop_ns:(d / 100)
         ~partitions:[ { Cluster.follower = 1; from_ns = 1; until_ns = d } ]
         ~faults:[ Repl_fault.Promote_lagging ] ())
  in
  let outcome, r = find_violation ~mechanism:"CR" ~configure () in
  Alcotest.(check bool) "verdict Violation" true
    (Checker.verdict r = Checker.Violation);
  (* the lie: the promotion dropped acked commits but claimed clean *)
  Alcotest.(check bool) "failover happened" true
    (outcome.Run.leaders <> []);
  List.iter
    (fun (m : Codec.leader_mark) ->
      Alcotest.(check bool) "lost suffix hidden" true (m.Codec.lost = []))
    outcome.Run.leaders

let test_lose_acked_window_detected () =
  let configure d =
    Run.repl_config ~failover_at:[ d / 2 ]
      (Cluster.config ~followers:1 ~ack_mode:Cluster.Async ~hop_ns:(d / 4)
         ~faults:[ Repl_fault.Lose_acked_window ] ())
  in
  let outcome, r = find_violation ~mechanism:"CR" ~configure () in
  Alcotest.(check bool) "verdict Violation" true
    (Checker.verdict r = Checker.Violation);
  List.iter
    (fun (m : Codec.leader_mark) ->
      Alcotest.(check bool) "lost suffix hidden" true (m.Codec.lost = []))
    outcome.Run.leaders

let test_split_brain_detected () =
  (* the deposed brain keeps committing in-flight transactions unfenced:
     a cross-timeline pair writing the same hot cell both commit — the
     two engines are each locally correct, only the traces can tell *)
  let configure d =
    Run.repl_config ~failover_at:[ d / 2 ] ~split_brain_ns:(d / 3)
      (Cluster.config ~followers:2 ~ack_mode:Cluster.Async
         ~faults:[ Repl_fault.Split_brain ] ())
  in
  let _outcome, r =
    find_violation ~spec:hot_spec ~mechanism:"FUW" ~configure ()
  in
  Alcotest.(check bool) "verdict Violation" true
    (Checker.verdict r = Checker.Violation)

(* --- follower reads --- *)

let test_honest_follower_reads_sound () =
  (* with followers applying synchronously, a routed read serves the
     exact committed snapshot: values identical, never a violation *)
  let seen_reads = ref 0 in
  for seed = 1 to 10 do
    let repl =
      Run.repl_config
        (Cluster.config ~followers:2 ~follower_read_prob:0.5 ())
    in
    let outcome = run_with ~repl ~clients:4 ~txns:60 ~seed () in
    let s = repl_stats outcome in
    seen_reads := !seen_reads + s.Cluster.follower_reads;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: no stale serves" seed)
      0 s.Cluster.stale_serves;
    let r = check_outcome outcome in
    if r.Checker.bugs_total > 0 then
      Alcotest.failf "seed %d: honest follower read violated" seed
  done;
  Alcotest.(check bool) "reads actually routed to followers" true
    (!seen_reads > 0)

let test_stale_follower_read_detected () =
  (* each transaction opens with a routable read; a stale serve hands it
     a hot-cell value already overwritten before the transaction began *)
  let seen_stale = ref 0 in
  let configure d =
    Run.repl_config
      (Cluster.config ~followers:2 ~ack_mode:Cluster.Async ~hop_ns:(d / 10)
         ~follower_read_prob:0.8 ~staleness_bound_ns:d
         ~faults:[ Repl_fault.Stale_follower_read ] ())
  in
  let found = ref false in
  let seed = ref 1 in
  while (not !found) && !seed <= 30 do
    let d = probe_duration ~spec:hot_spec ~clients:4 ~txns:80 ~seed:!seed () in
    let outcome =
      run_with ~spec:hot_spec ~repl:(configure d) ~clients:4 ~txns:80
        ~seed:!seed ()
    in
    seen_stale := !seen_stale + (repl_stats outcome).Cluster.stale_serves;
    let r = check_outcome outcome in
    if r.Checker.bugs_total > 0 then found := true;
    incr seed
  done;
  Alcotest.(check bool) "stale serves actually happened" true
    (!seen_stale > 0);
  Alcotest.(check bool) "a stale read was caught as a violation" true !found

(* --- checker-level note_failover semantics (hand-crafted traces) --- *)

let check_with_failover ?(ambiguous = []) ~lost traces =
  let checker = Checker.create si in
  List.iter (fun txn -> Checker.mark checker ~txn Checker.Wire) ambiguous;
  Checker.note_failover checker ~at:50 ~epoch:2 ~lost;
  List.iter (Checker.feed checker) (List.sort Trace.compare_by_bef traces);
  Checker.finalize checker;
  Checker.report checker

let test_lost_commit_never_resolves () =
  (* a later committed read observes the lost write: without the leader
     mark this resolves (proves) the commit; with it, the surviving
     timeline provably lacks txn 1, so the observation stays
     inconclusive and never becomes evidence either way *)
  let traces =
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.commit ~txn:1 ~bef:30 ~aft:40 ();
      Helpers.read ~txn:2 ~bef:100 ~aft:110 [ (x, 100) ];
      Helpers.commit ~txn:2 ~bef:120 ~aft:130 ();
    ]
  in
  let r = check_with_failover ~lost:[ 1 ] traces in
  Alcotest.(check int) "no bugs" 0 r.Checker.bugs_total;
  Alcotest.(check int) "loss counted" 1
    r.Checker.degradation.Checker.lost_suffix_commits;
  Alcotest.(check int) "failover counted" 1
    r.Checker.degradation.Checker.failovers;
  match Checker.verdict r with
  | Checker.Inconclusive _ -> ()
  | Checker.Verified | Checker.Violation ->
    Alcotest.fail "a lost commit must degrade the verdict"

let test_read_missing_lost_commit_not_violation () =
  (* the other side of the same coin: a read NOT observing the lost
     write is equally consistent with the truncated timeline *)
  let traces =
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.commit ~txn:1 ~bef:30 ~aft:40 ();
      Helpers.read ~txn:2 ~bef:100 ~aft:110 [ (x, 0) ];
      Helpers.commit ~txn:2 ~bef:120 ~aft:130 ();
    ]
  in
  let r = check_with_failover ~lost:[ 1 ] traces in
  Alcotest.(check int) "no bugs" 0 r.Checker.bugs_total

let test_lossless_failover_verifies () =
  let traces =
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.commit ~txn:1 ~bef:30 ~aft:40 ();
      Helpers.read ~txn:2 ~bef:100 ~aft:110 [ (x, 100); (y, 0) ];
      Helpers.commit ~txn:2 ~bef:120 ~aft:130 ();
    ]
  in
  let r = check_with_failover ~lost:[] traces in
  Alcotest.(check int) "no bugs" 0 r.Checker.bugs_total;
  Alcotest.(check int) "failover on the books" 1
    r.Checker.degradation.Checker.failovers;
  Alcotest.(check bool) "clean multi-leader trace verifies" true
    (Checker.verdict r = Checker.Verified)

let test_lost_beats_ambiguous () =
  (* txn 1 is both ambiguous (gate timeout) and in the lost suffix: the
     leader mark wins, so the observing read must NOT promote it to
     definitely-committed *)
  let traces =
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.read ~txn:2 ~bef:100 ~aft:110 [ (x, 100) ];
      Helpers.commit ~txn:2 ~bef:120 ~aft:130 ();
    ]
  in
  let r = check_with_failover ~ambiguous:[ 1 ] ~lost:[ 1 ] traces in
  Alcotest.(check int) "no bugs" 0 r.Checker.bugs_total;
  Alcotest.(check int) "nothing resolved" 0 r.Checker.resolved_ambiguous;
  match Checker.verdict r with
  | Checker.Inconclusive _ -> ()
  | Checker.Verified | Checker.Violation ->
    Alcotest.fail "a lost commit must stay unresolvable"

let test_note_failover_validation () =
  let checker = Checker.create si in
  (match Checker.note_failover checker ~at:(-1) ~epoch:2 ~lost:[] with
  | () -> Alcotest.fail "negative instant must be rejected"
  | exception Invalid_argument _ -> ());
  match Checker.note_failover checker ~at:10 ~epoch:0 ~lost:[] with
  | () -> Alcotest.fail "epoch 0 must be rejected"
  | exception Invalid_argument _ -> ()

(* --- CLI window validator --- *)

let test_window_validator () =
  let flag = "--repl-partition" in
  Alcotest.(check bool) "valid window accepted" true
    (Validate.window ~flag (0, 10) = None);
  Alcotest.(check bool) "negative start rejected" true
    (Option.is_some (Validate.window ~flag (-1, 10)));
  Alcotest.(check bool) "empty window rejected" true
    (Option.is_some (Validate.window ~flag (10, 10)));
  Alcotest.(check bool) "backwards window rejected" true
    (Option.is_some (Validate.window ~flag (10, 5)))

let suite =
  [
    Alcotest.test_case "disabled repl is identity (sync)" `Quick
      test_disabled_sync_is_identity;
    Alcotest.test_case "disabled repl is identity (async)" `Quick
      test_disabled_async_is_identity;
    Alcotest.test_case "50-seed identity sweep" `Slow test_identity_sweep;
    Alcotest.test_case "same seed same faults" `Quick
      test_same_seed_same_faults;
    Alcotest.test_case "failover sweep: no false violations" `Slow
      test_failover_sweep_no_false_violation;
    Alcotest.test_case "honest lost suffix is inconclusive" `Quick
      test_honest_lost_suffix_is_inconclusive;
    Alcotest.test_case "promote-lagging caught (CR)" `Quick
      test_promote_lagging_detected;
    Alcotest.test_case "lose-acked-window caught (CR)" `Quick
      test_lose_acked_window_detected;
    Alcotest.test_case "split-brain caught (FUW)" `Quick
      test_split_brain_detected;
    Alcotest.test_case "honest follower reads sound" `Quick
      test_honest_follower_reads_sound;
    Alcotest.test_case "stale follower read caught" `Quick
      test_stale_follower_read_detected;
    Alcotest.test_case "lost commit never resolves" `Quick
      test_lost_commit_never_resolves;
    Alcotest.test_case "missing lost commit is not a violation" `Quick
      test_read_missing_lost_commit_not_violation;
    Alcotest.test_case "lossless failover verifies" `Quick
      test_lossless_failover_verifies;
    Alcotest.test_case "lost beats ambiguous" `Quick test_lost_beats_ambiguous;
    Alcotest.test_case "note_failover validation" `Quick
      test_note_failover_validation;
    Alcotest.test_case "window validator" `Quick test_window_validator;
  ]
