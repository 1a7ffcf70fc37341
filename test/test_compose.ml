(* Stacked fault planes: every shard of a 2PC group runs as a full
   minidb — its own WAL behind the store and its own primary/follower
   replica set — with composed crash/failover injection.

   The invariants under test:
   - a zero-fault stacked run (shards + per-shard replicas + per-shard
     WALs, nothing faulty) is byte-identical to the unsharded,
     unreplicated path on the same seed;
   - the same seed replays the same stacked faults, stats and traces;
   - composed honest faults — coordinator crashes, participant crashes
     with WAL damage, engine restart epochs, per-shard failovers over a
     faulty replication link — never produce a false Violation;
   - an honest per-shard failover is lossless at the group level (the
     coordinator's decision log backfills the truncated suffix), so it
     neither degrades the verdict nor fabricates one;
   - the planted lies are caught as definite CR violations on the
     global trace: [Repl_fault.Promote_lagging] inside one shard's
     replica set (the failed-over shard claims a clean rebuild over a
     hole), and [Shard_fault.Fractured_commit] on a just-failed-over
     primary (the rebuilt log splices out a committed cross-shard
     slice);
   - the cross-plane degradation precedence matrix holds: the loss
     channel beats both ambiguity channels, the two ambiguity channels
     partition by first mark, and none of it masks a provable
     violation;
   - [Stack.config], [Run.shard_config] and the CLI-level
     [Cli_validate.composition] matrix reject the nonsense shapes. *)

module Run = Leopard_harness.Run
module Validate = Leopard_harness.Cli_validate
module Group = Leopard_shard.Group
module Shard_fault = Leopard_shard.Shard_fault
module Stack = Leopard_compose.Stack
module Repl_fault = Leopard_replication.Repl_fault
module Link = Leopard_net.Faulty_link
module Wal = Minidb.Wal
module Checker = Leopard.Checker
module Codec = Leopard_trace.Codec

let si = Leopard.Il_profile.postgresql_si
let x = Helpers.cell 0

(* Hot-row read-modify-write with a heavy cross-shard share: committed
   writes land on both shards of a 2-shard ring and later reads collide
   with them, so a shard that silently loses a committed record leaves
   observable contradictions. *)
let cross_spec = Helpers.workload "cross-rmw"

let run_with ?shard ?(crash_at = []) ?(clients = 4) ?(txns = 80) ?(seed = 7)
    () =
  let cfg =
    Run.config ~clients ~seed ?shard ~crash_at ~spec:(cross_spec ())
      ~profile:Minidb.Profile.postgresql
      ~level:Minidb.Isolation.Snapshot_isolation ~stop:(Run.Txn_count txns) ()
  in
  Run.execute cfg

let lines outcome = List.map Codec.to_line (Run.all_traces_sorted outcome)

let repl_stats outcome =
  match outcome.Run.shard_repl with
  | Some s -> s
  | None -> Alcotest.fail "stacked run must report shard-repl stats"

(* Offline verification exactly as the CLI does it: every mark through
   [Marks.apply], then the traces in timestamp order. *)
let check_outcome outcome =
  let checker = Checker.create si in
  Leopard_harness.Marks.(apply checker (of_outcome outcome));
  List.iter (Checker.feed checker) (Run.all_traces_sorted outcome);
  Checker.finalize checker;
  Checker.report checker

let probe_duration ~clients ~txns ~seed () =
  (run_with ~clients ~txns ~seed ()).Run.sim_duration_ns

(* --- zero-fault stacking: byte identity --- *)

let zero_stack ?(followers = 2) () =
  (* replicas per shard over a disabled link with no hop: the clusters
     take their synchronous fast path — no events, no RNG draws *)
  Stack.config ~followers ()

let test_disabled_stack_is_identity () =
  let plain = run_with () in
  let shard =
    Run.shard_config ~stack:(zero_stack ())
      (Group.config ~shards:3 ~wal_faults:(Wal.fault_cfg ()) ())
  in
  let stacked = run_with ~shard () in
  Alcotest.(check (list string))
    "byte-identical traces" (lines plain) (lines stacked);
  Alcotest.(check int) "same commits" plain.Run.commits stacked.Run.commits;
  Alcotest.(check int) "same aborts" plain.Run.aborts stacked.Run.aborts;
  let sr = repl_stats stacked in
  Alcotest.(check int) "three shards replicated" 3 sr.Stack.shards;
  Alcotest.(check int) "two replicas per shard" 2 sr.Stack.followers_per_shard;
  Alcotest.(check bool) "decision feed really forwarded" true
    (sr.Stack.forwarded > 0);
  Alcotest.(check int) "synchronous fast path: no appends" 0
    sr.Stack.appends_sent;
  Alcotest.(check int) "no failovers" 0 sr.Stack.failovers;
  Alcotest.(check int) "no claimed-clean rebuilds" 0 sr.Stack.claimed_clean;
  Alcotest.(check int) "no leader marks" 0 (List.length stacked.Run.leaders);
  Alcotest.(check int) "replica logs mirror the decision feed"
    sr.Stack.forwarded sr.Stack.log_entries

let test_identity_sweep () =
  (* the acceptance bar: 50 seeds, byte-for-byte, with every layer of
     the stack (participant WALs and per-shard replicas) enabled *)
  for seed = 1 to 50 do
    let plain = lines (run_with ~txns:40 ~seed ()) in
    let shard =
      Run.shard_config ~stack:(zero_stack ~followers:1 ())
        (Group.config ~shards:2 ~wal_faults:(Wal.fault_cfg ()) ())
    in
    let stacked = lines (run_with ~shard ~txns:40 ~seed ()) in
    if plain <> stacked then
      Alcotest.failf "seed %d: stacked run diverged" seed
  done

(* --- determinism under stacked faults --- *)

let faulty_stack ~d ~seed () =
  Stack.config ~followers:2 ~hop_ns:(d / 200)
    ~link:(Link.config ~seed ~drop_prob:0.2 ~dup_prob:0.05 ~delay_prob:0.1 ())
    ~retransmit_ns:(d / 100) ~seed ()

let test_same_seed_same_faults () =
  let d = probe_duration ~clients:4 ~txns:80 ~seed:11 () in
  let mk () =
    let shard =
      Run.shard_config
        ~stack:(faulty_stack ~d ~seed:11 ())
        ~shard_failover_at:[ (d / 2, 0); (2 * d / 3, 1) ]
        ~part_crash_at:[ (d / 3, 1) ]
        (Group.config ~shards:2 ~hop_ns:(d / 500)
           ~prepare_timeout_ns:(d / 10) ~retransmit_ns:(d / 100)
           ~wal_faults:(Wal.fault_cfg ~seed:11 ~torn_tail_prob:0.4 ())
           ())
    in
    run_with ~shard ~txns:80 ~seed:11 ()
  in
  let a = mk () and b = mk () in
  Alcotest.(check (list string)) "identical traces" (lines a) (lines b);
  Alcotest.(check bool) "identical stack stats" true
    (repl_stats a = repl_stats b);
  Alcotest.(check bool) "identical leader marks" true
    (a.Run.leaders = b.Run.leaders);
  Alcotest.(check bool) "failovers really fired" true
    ((repl_stats a).Stack.failovers > 0)

(* --- composed honest faults never fabricate violations --- *)

let test_stacked_sweep_no_false_violation () =
  (* every honest channel at once: engine crash epoch (WAL replay),
     coordinator crash, participant crash with a damaged participant
     WAL, per-shard failovers over a faulty replication link *)
  let seen_failovers = ref 0 and seen_truncated = ref 0 in
  for seed = 1 to 50 do
    let d = probe_duration ~clients:4 ~txns:60 ~seed () in
    let shard =
      Run.shard_config
        ~stack:
          (Stack.config ~followers:2 ~hop_ns:(d / 100)
             ~link:(Link.config ~seed ~drop_prob:0.3 ~dup_prob:0.05 ())
             ~retransmit_ns:(d / 50) ~seed ())
        ~shard_failover_at:[ (d / 2, 0); (3 * d / 4, 1) ]
        ~coord_crash_at:[ d / 3 ]
        ~part_crash_at:[ (2 * d / 3, seed mod 2) ]
        (Group.config ~shards:2 ~hop_ns:(d / 500)
           ~prepare_timeout_ns:(d / 10) ~retransmit_ns:(d / 100)
           ~wal_faults:
             (Wal.fault_cfg ~seed ~torn_tail_prob:0.3 ~lost_fsync_prob:0.3
                ~reordered_flush_prob:0.2 ~dup_replay_prob:0.2 ())
           ())
    in
    let outcome = run_with ~shard ~crash_at:[ d / 4 ] ~txns:60 ~seed () in
    let sr = repl_stats outcome in
    seen_failovers := !seen_failovers + sr.Stack.failovers;
    (match outcome.Run.shard with
    | Some s -> seen_truncated := !seen_truncated + s.Group.wal_truncated_records
    | None -> ());
    Alcotest.(check int)
      (Printf.sprintf "seed %d: no claimed-clean rebuilds when honest" seed)
      0 sr.Stack.claimed_clean;
    let r = check_outcome outcome in
    if r.Checker.bugs_total > 0 then
      Alcotest.failf "seed %d: false violation under honest stacked chaos"
        seed
  done;
  Alcotest.(check bool) "sweep actually failed shards over" true
    (!seen_failovers > 0)

let test_honest_stack_failover_not_violation () =
  (* the hardest honest case: the replica sets never receive a single
     append (total drop), so a failover rebuilds the shard from an
     empty survivor prefix — the coordinator's decision log must
     backfill everything, losslessly *)
  let d = probe_duration ~clients:4 ~txns:80 ~seed:3 () in
  let shard =
    Run.shard_config
      ~stack:
        (Stack.config ~followers:2 ~hop_ns:(d / 100)
           ~link:(Link.config ~seed:3 ~drop_prob:1.0 ())
           ~retransmit_ns:(d / 50) ~seed:3 ())
      ~shard_failover_at:[ (d / 2, 0) ]
      (Group.config ~shards:2 ())
  in
  let outcome = run_with ~shard ~txns:80 ~seed:3 () in
  let sr = repl_stats outcome in
  Alcotest.(check int) "one failover" 1 sr.Stack.failovers;
  Alcotest.(check int) "nothing claimed clean" 0 sr.Stack.claimed_clean;
  (* the group-level leader mark is truthfully lossless: whatever the
     cluster lost, the coordinator re-ships *)
  List.iter
    (fun (m : Codec.leader_mark) ->
      Alcotest.(check (list int)) "leader mark lossless" [] m.Codec.lost)
    outcome.Run.leaders;
  Alcotest.(check int) "one leader mark" 1 (List.length outcome.Run.leaders);
  let r = check_outcome outcome in
  Alcotest.(check int) "no bugs" 0 r.Checker.bugs_total;
  Alcotest.(check int) "loss channel untouched" 0
    r.Checker.degradation.Checker.lost_suffix_commits

(* --- planted lies are caught on the global trace --- *)

let find_violation ~mechanism ~configure () =
  let found = ref None in
  let seed = ref 1 in
  while Option.is_none !found && !seed <= 30 do
    let d = probe_duration ~clients:4 ~txns:80 ~seed:!seed () in
    let outcome = run_with ~shard:(configure ~d ~seed:!seed) ~txns:80 ~seed:!seed () in
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

let test_promote_lagging_in_shard_detected () =
  (* one shard's replica set elects a straggler that never applied a
     thing, yet the rebuilt shard claims it is clean through the
     pre-failover cursor: the coordinator never re-ships the hole and
     committed writes silently vanish from that shard's routed reads *)
  let configure ~d ~seed =
    Run.shard_config
      ~stack:
        (Stack.config ~followers:2 ~hop_ns:(d / 100)
           ~link:(Link.config ~seed ~drop_prob:1.0 ())
           ~retransmit_ns:(d / 50)
           ~faults:[ Repl_fault.Promote_lagging ]
           ~seed ())
      ~shard_failover_at:[ (d / 2, 0) ]
      (Group.config ~shards:2 ())
  in
  let outcome, r = find_violation ~mechanism:"CR" ~configure () in
  Alcotest.(check bool) "verdict Violation" true
    (Checker.verdict r = Checker.Violation);
  Alcotest.(check bool) "a rebuild really claimed clean" true
    ((repl_stats outcome).Stack.claimed_clean > 0);
  (* the lie is silent on the trace: the leader mark still says nothing
     was lost — conviction comes from the reads alone *)
  List.iter
    (fun (m : Codec.leader_mark) ->
      Alcotest.(check (list int)) "lying mark admits nothing" [] m.Codec.lost)
    outcome.Run.leaders

let test_fractured_on_failover_detected () =
  (* the failed-over primary rebuilds from a genuine survivor prefix,
     but its fractured decision log splices out the newest committed
     cross-shard record while still claiming the full prefix *)
  let configure ~d ~seed =
    Run.shard_config
      ~stack:
        (Stack.config ~followers:2 ~hop_ns:(d / 100)
           ~link:(Link.config ~seed ~drop_prob:0.3 ())
           ~retransmit_ns:(d / 50) ~seed ())
      ~shard_failover_at:[ (d / 2, 0); (2 * d / 3, 1) ]
      (Group.config ~shards:2 ~faults:[ Shard_fault.Fractured_commit ] ())
  in
  let outcome, r = find_violation ~mechanism:"CR" ~configure () in
  Alcotest.(check bool) "verdict Violation" true
    (Checker.verdict r = Checker.Violation);
  Alcotest.(check bool) "a slice really was fractured" true
    (match outcome.Run.shard with
    | Some s -> s.Group.fractured > 0
    | None -> false)

let test_participant_wal_damage_stays_honest () =
  (* a participant crash tears its own WAL tail: recovery truncates to
     the clean prefix and the coordinator re-ships the gap — damage is
     catch-up lag, never a wrong serve and never a false Violation *)
  let seen_truncated = ref 0 in
  for seed = 1 to 15 do
    let d = probe_duration ~clients:4 ~txns:60 ~seed () in
    let shard =
      Run.shard_config
        ~part_crash_at:[ (d / 3, 0); (d / 2, 1); (2 * d / 3, 0) ]
        (Group.config ~shards:2
           ~wal_faults:
             (Wal.fault_cfg ~seed ~torn_tail_prob:0.5 ~lost_fsync_prob:0.5
                ~reordered_flush_prob:0.3 ~dup_replay_prob:0.3 ())
           ())
    in
    let outcome = run_with ~shard ~txns:60 ~seed () in
    (match outcome.Run.shard with
    | Some s ->
      seen_truncated := !seen_truncated + s.Group.wal_truncated_records;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: restarts really rebuilt" seed)
        true (s.Group.participant_rebuilds >= 3)
    | None -> Alcotest.fail "sharded run must report shard stats");
    let r = check_outcome outcome in
    if r.Checker.bugs_total > 0 then
      Alcotest.failf "seed %d: false violation from honest WAL damage" seed
  done;
  Alcotest.(check bool) "sweep actually truncated damaged tails" true
    (!seen_truncated > 0)

(* --- cross-plane degradation precedence matrix --- *)

(* Feed order is the CLI's: ambiguity marks first, failover marks
   second, traces last.  For every pair of channels claiming the same
   commit the documented winner owns it, the loser's counter stays at
   zero, and a resolving observation never resurrects a lost commit. *)
let degradation_of ~marks =
  let checker = Checker.create si in
  List.iter (fun mark -> mark checker) marks;
  List.iter (Checker.feed checker)
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.read ~txn:2 ~bef:100 ~aft:110 [ (x, 100) ];
      Helpers.commit ~txn:2 ~bef:120 ~aft:130 ();
    ];
  Checker.finalize checker;
  let r = Checker.report checker in
  Alcotest.(check int) "precedence never fabricates a bug" 0
    r.Checker.bugs_total;
  r.Checker.degradation

let crash c = Checker.mark c ~txn:1 Checker.Crashed
let wire c = Checker.mark c ~txn:1 Checker.Wire
let coord c = Checker.mark c ~txn:1 Checker.Coord
let lost c = Checker.note_failover c ~at:50 ~epoch:2 ~lost:[ 1 ]

let test_precedence_matrix () =
  let check_counts name ~marks ?(inconclusive = 0) ?(indeterminate = 0)
      ~wire:w ~coord:co ~lost:l () =
    let d = degradation_of ~marks in
    Alcotest.(check int) (name ^ ": wire channel") w
      d.Checker.ambiguous_commits;
    Alcotest.(check int) (name ^ ": coordinator channel") co
      d.Checker.coord_ambiguous_commits;
    Alcotest.(check int) (name ^ ": loss channel") l
      d.Checker.lost_suffix_commits;
    Alcotest.(check int) (name ^ ": inconclusive reads") inconclusive
      d.Checker.inconclusive_reads;
    Alcotest.(check int) (name ^ ": indeterminate txns") indeterminate
      d.Checker.indeterminate_txns
  in
  (* ambiguity channels partition by first mark — and both resolve on
     the committed observation, so the surviving counters are zero *)
  check_counts "wire then coord" ~marks:[ wire; coord ] ~wire:0 ~coord:0
    ~lost:0 ();
  check_counts "coord then wire" ~marks:[ coord; wire ] ~wire:0 ~coord:0
    ~lost:0 ();
  (* the loss channel beats either ambiguity channel, in either order:
     the commit is permanently unresolvable, so the observation resolves
     nothing and the read stays inconclusive *)
  check_counts "wire then lost" ~marks:[ wire; lost ] ~wire:0 ~coord:0
    ~lost:1 ~inconclusive:1 ();
  check_counts "coord then lost" ~marks:[ coord; lost ] ~wire:0 ~coord:0
    ~lost:1 ~inconclusive:1 ();
  check_counts "lost then wire" ~marks:[ lost; wire ] ~wire:0 ~coord:0
    ~lost:1 ~inconclusive:1 ();
  check_counts "lost then coord" ~marks:[ lost; coord ] ~wire:0 ~coord:0
    ~lost:1 ~inconclusive:1 ();
  check_counts "all three" ~marks:[ wire; coord; lost ] ~wire:0 ~coord:0
    ~lost:1 ~inconclusive:1 ();
  (* a crash mark sits beside a give-up or a loss: both are counted *)
  check_counts "crash then wire" ~marks:[ crash; wire ] ~wire:0 ~coord:0
    ~lost:0 ~indeterminate:1 ();
  check_counts "crash then lost" ~marks:[ crash; lost ] ~wire:0 ~coord:0
    ~lost:1 ~inconclusive:1 ~indeterminate:1 ()

let test_precedence_never_masks_violation () =
  (* the same provable contradiction — a committed read observing the
     marked commit, a later committed read observing its overwritten
     past — convicts under each ambiguity channel *)
  List.iter
    (fun (name, mark) ->
      let checker = Checker.create si in
      mark checker;
      List.iter (Checker.feed checker)
        [
          Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
          Helpers.read ~txn:2 ~bef:100 ~aft:110 [ (x, 100) ];
          Helpers.commit ~txn:2 ~bef:120 ~aft:130 ();
          Helpers.read ~txn:3 ~bef:200 ~aft:210 [ (x, 0) ];
          Helpers.commit ~txn:3 ~bef:220 ~aft:230 ();
        ];
      Checker.finalize checker;
      let r = Checker.report checker in
      Alcotest.(check bool) (name ^ ": violation still proven") true
        (r.Checker.bugs_total > 0);
      Alcotest.(check bool) (name ^ ": verdict Violation") true
        (Checker.verdict r = Checker.Violation))
    [ ("wire", wire); ("coordinator", coord) ]

(* --- configuration validation --- *)

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_stack_config_validation () =
  expect_invalid "zero followers" (fun () -> Stack.config ~followers:0 ());
  expect_invalid "negative hop" (fun () -> Stack.config ~hop_ns:(-1) ());
  expect_invalid "zero retransmit" (fun () ->
      Stack.config ~retransmit_ns:0 ());
  expect_invalid "negative retransmit cap" (fun () ->
      Stack.config ~max_retransmits:(-1) ());
  expect_invalid "failover without a stack" (fun () ->
      Run.shard_config ~shard_failover_at:[ (10, 0) ] (Group.config ()));
  expect_invalid "failover at instant 0" (fun () ->
      Run.shard_config ~stack:(Stack.config ())
        ~shard_failover_at:[ (0, 0) ]
        (Group.config ()));
  expect_invalid "failover shard out of range" (fun () ->
      Run.shard_config ~stack:(Stack.config ())
        ~shard_failover_at:[ (10, 2) ]
        (Group.config ~shards:2 ()))

let test_composition_validator () =
  let ok ?(net = false) ?(repl = false) ?(shards = false)
      ?(repl_per_shard = 0) ?(shard_failovers = false)
      ?(shard_repl_drop = false) () =
    Validate.composition
      {
        Validate.net;
        repl;
        shards;
        repl_per_shard;
        shard_failovers;
        shard_repl_drop;
      }
    = None
  in
  (* accepted compositions *)
  Alcotest.(check bool) "nothing" true (ok ());
  Alcotest.(check bool) "net alone" true (ok ~net:true ());
  Alcotest.(check bool) "repl alone" true (ok ~repl:true ());
  Alcotest.(check bool) "shards alone" true (ok ~shards:true ());
  Alcotest.(check bool) "shards + replicas" true
    (ok ~shards:true ~repl_per_shard:2 ());
  Alcotest.(check bool) "full stack" true
    (ok ~shards:true ~repl_per_shard:2 ~shard_failovers:true ());
  Alcotest.(check bool) "full stack + decoupled repl link" true
    (ok ~shards:true ~repl_per_shard:2 ~shard_failovers:true
       ~shard_repl_drop:true ());
  (* rejected shapes, each blamed on the right flag *)
  let flag_of p =
    match Validate.composition p with
    | Some e -> e.Validate.flag
    | None -> Alcotest.fail "expected a composition error"
  in
  let p ?(net = false) ?(repl = false) ?(shards = false)
      ?(repl_per_shard = 0) ?(shard_failovers = false)
      ?(shard_repl_drop = false) () =
    {
      Validate.net;
      repl;
      shards;
      repl_per_shard;
      shard_failovers;
      shard_repl_drop;
    }
  in
  Alcotest.(check string) "net x repl" "--net/--repl"
    (flag_of (p ~net:true ~repl:true ()));
  Alcotest.(check string) "net x shards" "--net/--shards"
    (flag_of (p ~net:true ~shards:true ()));
  Alcotest.(check string) "repl x shards" "--repl/--shards"
    (flag_of (p ~repl:true ~shards:true ()));
  Alcotest.(check string) "negative replicas" "--repl-per-shard"
    (flag_of (p ~shards:true ~repl_per_shard:(-1) ()));
  Alcotest.(check string) "replicas without shards" "--repl-per-shard"
    (flag_of (p ~repl_per_shard:2 ()));
  Alcotest.(check string) "failover without replicas" "--shard-failover-at"
    (flag_of (p ~shards:true ~shard_failovers:true ()));
  Alcotest.(check string) "repl-drop without replicas" "--shard-repl-drop"
    (flag_of (p ~shards:true ~shard_repl_drop:true ()))

let suite =
  [
    Alcotest.test_case "disabled stack is identity" `Quick
      test_disabled_stack_is_identity;
    Alcotest.test_case "50-seed stacked identity sweep" `Slow
      test_identity_sweep;
    Alcotest.test_case "same seed same stacked faults" `Quick
      test_same_seed_same_faults;
    Alcotest.test_case "stacked-fault sweep: no false violations" `Slow
      test_stacked_sweep_no_false_violation;
    Alcotest.test_case "honest stack failover is lossless" `Quick
      test_honest_stack_failover_not_violation;
    Alcotest.test_case "promote-lagging inside a shard caught (CR)" `Quick
      test_promote_lagging_in_shard_detected;
    Alcotest.test_case "fractured log on failed-over primary caught (CR)"
      `Quick test_fractured_on_failover_detected;
    Alcotest.test_case "participant WAL damage stays honest" `Quick
      test_participant_wal_damage_stays_honest;
    Alcotest.test_case "cross-plane precedence matrix" `Quick
      test_precedence_matrix;
    Alcotest.test_case "precedence never masks a violation" `Quick
      test_precedence_never_masks_violation;
    Alcotest.test_case "stack configuration validation" `Quick
      test_stack_config_validation;
    Alcotest.test_case "plane-composition validator" `Quick
      test_composition_validator;
  ]
