(* The wire layer: seeded network fault injection between client
   sessions and the server, idempotent retries, and ambiguity-aware
   verification.

   The invariants under test:
   - a disabled link is a perfect wire: routing through it is
     byte-identical to the in-process path for the same workload seed;
   - the same fault seed replays the same faults (traces and counters);
   - a commit token is applied exactly once no matter how many times the
     COMMIT request reaches the server (retries, link duplication);
   - the client's retry budget is bounded: total loss ends in [No_reply]
     after exactly [max_tries] attempts, never a hang;
   - a full session queue load-sheds with a definite [Rejected];
   - an ambiguous commit (COMMIT delivered, acknowledgement lost) never
     becomes a false Violation: the checker either resolves it from a
     later committed read or degrades the verdict to Inconclusive. *)

module Net = Leopard_net
module Wire = Net.Wire
module Link = Net.Faulty_link
module Client = Net.Client
module Server = Net.Server
module Run = Leopard_harness.Run
module Online = Leopard_harness.Online
module Validate = Leopard_harness.Cli_validate
module Checker = Leopard.Checker
module Trace = Leopard_trace.Trace
module Codec = Leopard_trace.Codec
module Engine = Minidb.Engine
module Sim = Minidb.Sim
module Rng = Leopard_util.Rng

let spec () = Leopard_workload.Smallbank.spec ()
let x = Helpers.cell 0
let y = Helpers.cell 1

let run_with ?net ?chaos ?(clients = 6) ?(txns = 200) ?(seed = 7) () =
  let cfg =
    Run.config ~clients ~seed ?net ?chaos ~spec:(spec ())
      ~profile:Minidb.Profile.postgresql
      ~level:Minidb.Isolation.Snapshot_isolation
      ~stop:(Run.Txn_count txns) ()
  in
  Run.execute cfg

let lines outcome = List.map Codec.to_line (Run.all_traces_sorted outcome)

let faulty_net ?(seed = 3) () =
  Run.net_config
    ~fault:
      (Link.config ~seed ~delay_prob:0.05 ~drop_prob:0.03 ~dup_prob:0.03
         ~reorder_prob:0.03 ~reset_prob:0.03 ())
    ()

(* --- zero-fault wire: byte identity --- *)

let test_disabled_wire_is_identity () =
  let plain = run_with () in
  let wired = run_with ~net:(Run.net_config ()) () in
  Alcotest.(check (list string)) "byte-identical traces" (lines plain)
    (lines wired);
  Alcotest.(check int) "same commits" plain.Run.commits wired.Run.commits;
  Alcotest.(check int) "same aborts" plain.Run.aborts wired.Run.aborts;
  match wired.Run.net with
  | None -> Alcotest.fail "wired run must report net stats"
  | Some ns ->
    Alcotest.(check int) "no resends" 0 ns.Run.resends;
    Alcotest.(check int) "no give-ups" 0 ns.Run.give_ups;
    Alcotest.(check int) "no rejections" 0 ns.Run.rejected;
    Alcotest.(check int) "no drops" 0 ns.Run.msg_dropped;
    Alcotest.(check bool) "no ambiguous commits" true (ns.Run.ambiguous = [])

(* --- determinism under faults --- *)

let test_same_seed_same_faults () =
  let a = run_with ~net:(faulty_net ()) () in
  let b = run_with ~net:(faulty_net ()) () in
  Alcotest.(check (list string)) "identical traces" (lines a) (lines b);
  match (a.Run.net, b.Run.net) with
  | Some na, Some nb ->
    Alcotest.(check int) "same drops" na.Run.msg_dropped nb.Run.msg_dropped;
    Alcotest.(check int) "same dups" na.Run.msg_duplicated
      nb.Run.msg_duplicated;
    Alcotest.(check int) "same resets" na.Run.resets nb.Run.resets;
    Alcotest.(check int) "same resends" na.Run.resends nb.Run.resends;
    Alcotest.(check bool) "same ambiguous commits" true
      (na.Run.ambiguous = nb.Run.ambiguous)
  | _ -> Alcotest.fail "both runs must report net stats"

(* --- the faulty link itself --- *)

let test_link_determinism_and_counters () =
  let cfg = Link.config ~seed:9 ~drop_prob:0.2 ~dup_prob:0.2 ~reset_prob:0.1 () in
  let draw () =
    let link = Link.create ~sessions:2 cfg in
    let fates =
      List.init 200 (fun i -> Link.route link ~session:(i mod 2))
    in
    (fates, (Link.dropped link, Link.duplicated link, Link.resets link))
  in
  let fates_a, counters_a = draw () in
  let fates_b, counters_b = draw () in
  Alcotest.(check bool) "same fates" true (fates_a = fates_b);
  Alcotest.(check bool) "same counters" true (counters_a = counters_b);
  let dropped, duplicated, resets = counters_a in
  Alcotest.(check bool) "faults actually injected" true
    (dropped > 0 && duplicated > 0 && resets > 0)

let test_disabled_link_is_noop () =
  Alcotest.(check bool) "default config disabled" true
    (Link.is_disabled (Link.config ()));
  Alcotest.(check bool) "faulty config not disabled" false
    (Link.is_disabled (Link.config ~drop_prob:0.01 ()));
  let link = Link.create ~sessions:1 Link.disabled in
  for _ = 1 to 100 do
    match Link.route link ~session:0 with
    | Link.Deliver [ 0 ] -> ()
    | _ -> Alcotest.fail "disabled link must deliver cleanly"
  done;
  Alcotest.(check int) "nothing dropped" 0 (Link.dropped link);
  Alcotest.(check int) "nothing delayed" 0 (Link.delayed link)

(* --- idempotent commit tokens --- *)

(* Submit [dups] copies of the same COMMIT request (same token) straight
   at the server: the engine must apply the commit exactly once and
   acknowledge every copy positively.  The committed image must be
   byte-identical to the single-submission run. *)
let commit_n_times ~seed ~dups =
  let sim = Sim.create () in
  let engine =
    Engine.create sim ~profile:Minidb.Profile.postgresql
      ~level:Minidb.Isolation.Snapshot_isolation ~faults:Minidb.Fault.Set.empty
  in
  let server = Server.create ~engine ~queue_capacity:16 in
  let txn = Engine.begin_txn engine ~client:0 in
  Server.register_txn server txn;
  let value = 1000 + (seed mod 97) in
  let acks = ref 0 in
  let submit seq body =
    Server.submit server
      { Wire.session = 0; seq; txn = Engine.txn_id txn; op = seq; body }
      ~reply:(fun resp ->
        match resp.Wire.body with
        | Wire.Ok_write -> ()
        | Wire.Ok_commit -> incr acks
        | _ -> Alcotest.fail "unexpected refusal")
  in
  submit 0 (Wire.Write [ (x, value) ]);
  for i = 1 to dups do
    submit i (Wire.Commit { token = Engine.txn_id txn })
  done;
  Sim.run sim;
  ( Engine.snapshot_committed engine,
    Engine.commits engine,
    Engine.duplicate_commit_acks engine,
    !acks )

let prop_commit_token_exactly_once =
  QCheck.Test.make ~count:100 ~name:"commit token applied exactly once"
    QCheck.(pair small_nat (int_range 2 6))
    (fun (seed, dups) ->
      let reference, commits1, dup_acks1, acks1 =
        commit_n_times ~seed ~dups:1
      in
      let snapshot, commits, dup_acks, acks = commit_n_times ~seed ~dups in
      commits1 = 1 && dup_acks1 = 0 && acks1 = 1 && commits = 1
      && dup_acks = dups - 1
      && acks = dups
      && snapshot = reference)

(* --- bounded retries --- *)

let test_total_loss_bounded_retries () =
  let sim = Sim.create () in
  let engine =
    Engine.create sim ~profile:Minidb.Profile.postgresql
      ~level:Minidb.Isolation.Snapshot_isolation ~faults:Minidb.Fault.Set.empty
  in
  let server = Server.create ~engine ~queue_capacity:4 in
  let link = Link.create ~sessions:1 (Link.config ~seed:5 ~drop_prob:1.0 ()) in
  let client =
    Client.create sim ~rng:(Rng.create 1) ~link ~server ~session:0
      (Client.config ~max_tries:3 ())
  in
  let txn = Engine.begin_txn engine ~client:0 in
  Server.register_txn server txn;
  let settled = ref None in
  Client.call client ~txn:(Engine.txn_id txn) ~op:0
    ~body:(Wire.Read { cells = [ x ]; locking = false; predicate = false })
    ~first_send_delay_ns:10 ~resp_base_delay_ns:(fun _ -> 10)
    ~k:(fun outcome -> settled := Some outcome);
  Sim.run sim;
  (match !settled with
  | Some Client.No_reply -> ()
  | Some (Client.Reply _) -> Alcotest.fail "total loss cannot produce a reply"
  | None -> Alcotest.fail "call must settle (no hang)");
  Alcotest.(check int) "attempts beyond the first" 2 (Client.resends client);
  Alcotest.(check int) "one give-up" 1 (Client.give_ups client)

(* --- load shedding --- *)

let test_full_queue_sheds () =
  let sim = Sim.create () in
  let engine =
    Engine.create sim ~profile:Minidb.Profile.postgresql
      ~level:Minidb.Isolation.Snapshot_isolation ~faults:Minidb.Fault.Set.empty
  in
  let server = Server.create ~engine ~queue_capacity:1 in
  (* session 0 takes a row lock, so session 1's locking read parks in
     the engine and its session queue backs up *)
  let holder = Engine.begin_txn engine ~client:0 in
  let waiter = Engine.begin_txn engine ~client:1 in
  Server.register_txn server holder;
  Server.register_txn server waiter;
  let replies = ref [] in
  let submit ~session ~txn seq body =
    Server.submit server
      { Wire.session; seq; txn = Engine.txn_id txn; op = 100 + seq; body }
      ~reply:(fun resp -> replies := resp.Wire.body :: !replies)
  in
  submit ~session:0 ~txn:holder 0
    (Wire.Read { cells = [ y ]; locking = true; predicate = false });
  (* parks on the lock: session 1 becomes busy with an empty queue *)
  submit ~session:1 ~txn:waiter 0
    (Wire.Read { cells = [ y ]; locking = true; predicate = false });
  (* fills the queue (capacity 1) *)
  submit ~session:1 ~txn:waiter 1
    (Wire.Read { cells = [ x ]; locking = false; predicate = false });
  (* sheds: definite Rejected, no hang *)
  submit ~session:1 ~txn:waiter 2
    (Wire.Read { cells = [ x ]; locking = false; predicate = false });
  Alcotest.(check int) "one request shed" 1 (Server.rejected server);
  Alcotest.(check bool) "shed reply is Rejected" true
    (List.mem Wire.Rejected !replies);
  (* release the lock: everything queued must settle *)
  submit ~session:0 ~txn:holder 1 (Wire.Commit { token = Engine.txn_id holder });
  Sim.run sim;
  Alcotest.(check int) "all five requests answered" 5 (List.length !replies)

(* --- ambiguity-aware checking (hand-crafted traces) --- *)

let si = Leopard.Il_profile.postgresql_si

let check_with_ambiguous profile ~ambiguous traces =
  let checker = Checker.create profile in
  List.iter (fun txn -> Checker.mark_ambiguous_commit checker ~txn) ambiguous;
  List.iter (Checker.feed checker)
    (List.sort Trace.compare_by_bef traces);
  Checker.finalize checker;
  Checker.report checker

let test_resolved_ambiguous_commit_verifies () =
  (* txn 1's COMMIT outcome is unknown (no terminal trace), but txn 2 —
     itself committed — observed its write: the commit definitely
     happened, so the verdict stays Verified *)
  let traces =
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.read ~txn:2 ~bef:100 ~aft:110 [ (x, 100) ];
      Helpers.commit ~txn:2 ~bef:120 ~aft:130 ();
    ]
  in
  let r = check_with_ambiguous si ~ambiguous:[ 1 ] traces in
  Alcotest.(check int) "no bugs" 0 r.Checker.bugs_total;
  Alcotest.(check int) "resolved" 1 r.Checker.resolved_ambiguous;
  Alcotest.(check int) "no residual ambiguity" 0
    r.Checker.degradation.Checker.ambiguous_commits;
  Alcotest.(check bool) "verdict Verified" true
    (Checker.verdict r = Checker.Verified)

let test_unresolved_ambiguous_commit_inconclusive () =
  (* nobody ever observes txn 1's write: the outcome stays unknown and
     the verdict degrades instead of claiming a full pass *)
  let traces =
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.read ~txn:2 ~bef:100 ~aft:110 [ (y, 0) ];
      Helpers.commit ~txn:2 ~bef:120 ~aft:130 ();
    ]
  in
  let r = check_with_ambiguous si ~ambiguous:[ 1 ] traces in
  Alcotest.(check int) "no bugs" 0 r.Checker.bugs_total;
  Alcotest.(check int) "nothing resolved" 0 r.Checker.resolved_ambiguous;
  Alcotest.(check int) "residual ambiguity counted" 1
    r.Checker.degradation.Checker.ambiguous_commits;
  match Checker.verdict r with
  | Checker.Inconclusive reason ->
    Alcotest.(check bool) "reason names the ambiguity" true
      (String.length reason > 0)
  | Checker.Verified | Checker.Violation ->
    Alcotest.fail "unresolved ambiguity must be Inconclusive"

let test_aborted_reader_does_not_resolve () =
  (* the only observer of txn 1's write aborted: its read proves nothing
     about durably-committed state, so the ambiguity stays *)
  let traces =
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.read ~txn:2 ~bef:100 ~aft:110 [ (x, 100) ];
      Helpers.abort ~txn:2 ~bef:120 ~aft:130 ();
    ]
  in
  let r = check_with_ambiguous si ~ambiguous:[ 1 ] traces in
  Alcotest.(check int) "no bugs" 0 r.Checker.bugs_total;
  Alcotest.(check int) "nothing resolved" 0 r.Checker.resolved_ambiguous;
  Alcotest.(check int) "ambiguity remains" 1
    r.Checker.degradation.Checker.ambiguous_commits

let test_planted_violation_under_ambiguity_flagged () =
  (* a resolved ambiguous commit on x must not mask a genuine lost
     update on y: Violation dominates Inconclusive *)
  let traces =
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.read ~txn:2 ~bef:100 ~aft:110 [ (x, 100) ];
      Helpers.commit ~txn:2 ~bef:120 ~aft:130 ();
      (* both updaters of y snapshot before either commits, both commit *)
      Helpers.read ~txn:3 ~bef:200 ~aft:210 [ (y, 0) ];
      Helpers.read ~txn:4 ~bef:205 ~aft:215 [ (y, 0) ];
      Helpers.write ~txn:3 ~bef:220 ~aft:230 [ (y, 300) ];
      Helpers.commit ~txn:3 ~bef:240 ~aft:250 ();
      Helpers.write ~txn:4 ~bef:260 ~aft:270 [ (y, 400) ];
      Helpers.commit ~txn:4 ~bef:280 ~aft:290 ();
    ]
  in
  let r = check_with_ambiguous si ~ambiguous:[ 1 ] traces in
  Alcotest.(check bool) "violation flagged" true (r.Checker.bugs_total > 0);
  Alcotest.(check bool) "FUW mechanism" true
    (List.mem "FUW" (Helpers.bug_mechanisms r));
  Alcotest.(check bool) "verdict Violation" true
    (Checker.verdict r = Checker.Violation)

(* --- end to end: faults never fabricate violations --- *)

let check_outcome outcome =
  let checker = Checker.create si in
  (match outcome.Run.net with
  | Some ns ->
    List.iter
      (fun (_client, txn, _at) -> Checker.mark_ambiguous_commit checker ~txn)
      ns.Run.ambiguous
  | None -> ());
  List.iter (Checker.feed checker) (Run.all_traces_sorted outcome);
  Checker.finalize checker;
  Checker.report checker

let test_ambiguous_commits_never_false_violations () =
  (* reset-heavy wire: ambiguous commits must occur across the seed
     sweep, and none may be misread as an isolation violation *)
  let seen_ambiguous = ref 0 in
  for seed = 1 to 50 do
    let net =
      Run.net_config
        ~fault:
          (Link.config ~seed ~drop_prob:0.05 ~dup_prob:0.05 ~reset_prob:0.08
             ())
        ()
    in
    let outcome = run_with ~net ~clients:4 ~txns:60 ~seed () in
    (match outcome.Run.net with
    | Some ns -> seen_ambiguous := !seen_ambiguous + List.length ns.Run.ambiguous
    | None -> ());
    let r = check_outcome outcome in
    if r.Checker.bugs_total > 0 then
      Alcotest.failf "seed %d: false violation under network faults" seed
  done;
  Alcotest.(check bool) "sweep actually exercised ambiguity" true
    (!seen_ambiguous > 0)

(* --- cross-plane: wire give-ups and crash-recovery damage --- *)

let test_cross_plane_channels_separate () =
  (* a reset-heavy wire (commit give-ups → ambiguity) and a mid-run
     server crash with lossy fsync (restart → damaged WAL records) in
     the same run: each plane's evidence must land in its own
     degradation channel — every wire-ambiguous commit is either
     resolved or residual exactly once, recovery damage equals the WAL's
     own count, and neither plane fabricates a violation *)
  let run seed =
    let probe =
      Run.config ~clients:4 ~seed ~spec:(spec ())
        ~profile:Minidb.Profile.postgresql
        ~level:Minidb.Isolation.Snapshot_isolation ~stop:(Run.Txn_count 120)
        ()
    in
    let d = (Run.execute probe).Run.sim_duration_ns in
    let cfg =
      Run.config ~clients:4 ~seed ~max_retries:3 ~wal:true
        ~crash_at:[ d / 2 ]
        ~wal_faults:
          (Minidb.Wal.fault_cfg ~seed ~lost_fsync_prob:0.7
             ~torn_tail_prob:0.5 ())
        ~net:
          (Run.net_config
             ~fault:
               (Link.config ~seed ~drop_prob:0.05 ~dup_prob:0.05
                  ~reset_prob:0.08 ())
             ())
        ~spec:(spec ()) ~profile:Minidb.Profile.postgresql
        ~level:Minidb.Isolation.Snapshot_isolation ~stop:(Run.Txn_count 120)
        ()
    in
    Run.execute cfg
  in
  (* find a seed where both planes actually fired *)
  let outcome = ref None in
  let seed = ref 1 in
  while Option.is_none !outcome && !seed <= 20 do
    let o = run !seed in
    let ambiguous =
      match o.Run.net with Some ns -> ns.Run.ambiguous | None -> []
    in
    if o.Run.wal_damaged > 0 && ambiguous <> [] then outcome := Some o;
    incr seed
  done;
  match !outcome with
  | None -> Alcotest.fail "no seed fired both fault planes"
  | Some o ->
    let ambiguous =
      match o.Run.net with Some ns -> ns.Run.ambiguous | None -> []
    in
    let checker = Checker.create si in
    List.iter
      (fun (_client, txn, _at) -> Checker.mark_ambiguous_commit checker ~txn)
      ambiguous;
    List.iter
      (fun (e : Codec.epoch_mark) ->
        Checker.note_restart checker ~at:e.at ~replayed:e.replayed
          ~damaged:e.damaged)
      o.Run.epochs;
    List.iter (Checker.feed checker) (Run.all_traces_sorted o);
    Checker.finalize checker;
    let r = Checker.report checker in
    Alcotest.(check int) "no false violations" 0 r.Checker.bugs_total;
    let d = r.Checker.degradation in
    Alcotest.(check int) "restarts in their own channel" o.Run.restarts
      d.Checker.restarts;
    Alcotest.(check int) "recovery damage equals the WAL count"
      o.Run.wal_damaged d.Checker.recovery_lost_records;
    Alcotest.(check int)
      "ambiguous commits partition exactly (resolved + residual)"
      (List.length ambiguous)
      (r.Checker.resolved_ambiguous + d.Checker.ambiguous_commits);
    Alcotest.(check bool) "wire ambiguity never counted as recovery loss"
      true
      (d.Checker.recovery_lost_records <= o.Run.wal_damaged);
    match Checker.verdict r with
    | Checker.Inconclusive _ -> ()
    | Checker.Verified ->
      Alcotest.fail "damaged recovery + residual ambiguity cannot verify"
    | Checker.Violation -> Alcotest.fail "cross-plane noise is not a violation"

let test_online_net_chaos_compose () =
  (* wire faults + collection chaos together: terminates, no false
     alarms, ambiguous commits reach the checker via the online poll *)
  let cfg =
    Run.config ~clients:4 ~seed:13
      ~net:
        (Run.net_config
           ~fault:(Link.config ~seed:2 ~drop_prob:0.05 ~reset_prob:0.05 ())
           ())
      ~chaos:(Leopard_harness.Chaos.config ~seed:5 ~crash_prob:0.002 ())
      ~spec:(spec ()) ~profile:Minidb.Profile.postgresql
      ~level:Minidb.Isolation.Snapshot_isolation ~stop:(Run.Txn_count 120) ()
  in
  let res = Online.run ~max_stall_ns:2_000_000 ~il:si cfg in
  Alcotest.(check int) "no false violations" 0
    res.Online.report.Checker.bugs_total

(* --- CLI validation --- *)

let test_cli_validators () =
  let rejects = function Some _ -> true | None -> false in
  Alcotest.(check bool) "prob in range ok" false
    (rejects (Validate.prob ~flag:"--p" 0.5));
  Alcotest.(check bool) "prob 0 ok" false (rejects (Validate.prob ~flag:"--p" 0.0));
  Alcotest.(check bool) "prob 1 ok" false (rejects (Validate.prob ~flag:"--p" 1.0));
  Alcotest.(check bool) "prob > 1 rejected" true
    (rejects (Validate.prob ~flag:"--p" 1.5));
  Alcotest.(check bool) "prob < 0 rejected" true
    (rejects (Validate.prob ~flag:"--p" (-0.1)));
  Alcotest.(check bool) "nan rejected" true
    (rejects (Validate.prob ~flag:"--p" Float.nan));
  Alcotest.(check bool) "positive ok" false
    (rejects (Validate.positive ~flag:"--t" 1));
  Alcotest.(check bool) "zero timeout rejected" true
    (rejects (Validate.positive ~flag:"--t" 0));
  Alcotest.(check bool) "negative rejected" true
    (rejects (Validate.non_negative ~flag:"--d" (-1)));
  Alcotest.(check bool) "sorted schedule ok" false
    (rejects (Validate.crash_schedule ~flag:"--c" [ 10; 20; 30 ]));
  Alcotest.(check bool) "empty schedule ok" false
    (rejects (Validate.crash_schedule ~flag:"--c" []));
  Alcotest.(check bool) "duplicate instant rejected" true
    (rejects (Validate.crash_schedule ~flag:"--c" [ 10; 10 ]));
  Alcotest.(check bool) "unsorted schedule rejected" true
    (rejects (Validate.crash_schedule ~flag:"--c" [ 20; 10 ]));
  Alcotest.(check bool) "non-positive instant rejected" true
    (rejects (Validate.crash_schedule ~flag:"--c" [ 0; 10 ]));
  (match
     Validate.first_error
       [
         None;
         Validate.prob ~flag:"--a" 2.0;
         Validate.prob ~flag:"--b" 3.0;
       ]
   with
  | Some e ->
    Alcotest.(check string) "leftmost error wins" "--a" e.Validate.flag;
    Alcotest.(check bool) "message names the flag" true
      (String.length (Validate.error_to_string e) > 0)
  | None -> Alcotest.fail "first_error must surface an error")

let suite =
  [
    Alcotest.test_case "disabled wire is byte-identical" `Quick
      test_disabled_wire_is_identity;
    Alcotest.test_case "same seed, same faults" `Quick
      test_same_seed_same_faults;
    Alcotest.test_case "link determinism and counters" `Quick
      test_link_determinism_and_counters;
    Alcotest.test_case "disabled link is a no-op" `Quick
      test_disabled_link_is_noop;
    Helpers.qtest prop_commit_token_exactly_once;
    Alcotest.test_case "total loss: bounded retries, no hang" `Quick
      test_total_loss_bounded_retries;
    Alcotest.test_case "full session queue load-sheds" `Quick
      test_full_queue_sheds;
    Alcotest.test_case "resolved ambiguous commit verifies" `Quick
      test_resolved_ambiguous_commit_verifies;
    Alcotest.test_case "unresolved ambiguous commit inconclusive" `Quick
      test_unresolved_ambiguous_commit_inconclusive;
    Alcotest.test_case "aborted reader does not resolve" `Quick
      test_aborted_reader_does_not_resolve;
    Alcotest.test_case "planted violation under ambiguity flagged" `Quick
      test_planted_violation_under_ambiguity_flagged;
    Alcotest.test_case "50-seed sweep: no false violations" `Slow
      test_ambiguous_commits_never_false_violations;
    Alcotest.test_case "cross-plane degradation channels stay separate"
      `Quick test_cross_plane_channels_separate;
    Alcotest.test_case "wire + chaos compose online" `Quick
      test_online_net_chaos_compose;
    Alcotest.test_case "cli validators" `Quick test_cli_validators;
  ]
