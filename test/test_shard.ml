(* The sharding fault plane: hash-range partitioned key space, a 2PC
   coordinator whose protocol traffic rides the seeded faulty wire, and
   checker soundness across coordinator crashes.

   The invariants under test:
   - a disabled protocol environment (no link faults, hops, partitions)
     is byte-identical to the unsharded path on the same seed, with
     cross-shard transactions really running the protocol;
   - the same shard seed replays the same faults, stats, dispositions
     and ambiguity;
   - environmental protocol faults (message drops, duplicates, delays,
     reorders, coordinator and participant crashes) never produce a
     false Violation — honest coordinator crashes flow into the
     coordinator-ambiguity channel and degrade to Inconclusive;
   - the planted {!Shard_fault} lies are each caught as a definite
     Violation with the advertised mechanism (CR);
   - cross-shard dependencies stitch through the single group-wide
     trace file: a violation provable on the global trace is invisible
     to per-shard slices of it;
   - a [Coord] {!Checker.mark}: resolvable like the wire channel,
     exactly partitioned from it by first-mark precedence, and "lost
     beats ambiguous" still wins. *)

module Run = Leopard_harness.Run
module Validate = Leopard_harness.Cli_validate
module Shard = Leopard_shard
module Group = Shard.Group
module Shard_fault = Shard.Shard_fault
module Link = Leopard_net.Faulty_link
module Checker = Leopard.Checker
module Trace = Leopard_trace.Trace
module Codec = Leopard_trace.Codec

let spec () = Leopard_workload.Smallbank.spec ()
let si = Leopard.Il_profile.postgresql_si
let x = Helpers.cell 0
let y = Helpers.cell 1

(* A row landing on each shard of a 2-shard ring — the partitioning is a
   pure function, so these are stable across runs. *)
let row_on shard =
  let rec go r =
    if r > 10_000 then Alcotest.fail "no row found for shard"
    else if Group.shard_of_row ~shards:2 (0, r) = shard then r
    else go (r + 1)
  in
  go 0

(* Read-modify-write over one hot row per shard of a 2-shard ring, half
   the transactions touching both: collisions are frequent enough that a
   lying shard leaves observable contradictions, and the cross-shard
   share keeps the 2PC path busy. *)
let cross_spec = Helpers.workload "cross-rmw"

let run_with ?shard ?spec:(mk = spec) ?(clients = 6) ?(txns = 200) ?(seed = 7)
    () =
  let cfg =
    Run.config ~clients ~seed ?shard ~spec:(mk ())
      ~profile:Minidb.Profile.postgresql
      ~level:Minidb.Isolation.Snapshot_isolation
      ~stop:(Run.Txn_count txns) ()
  in
  Run.execute cfg

let lines outcome = List.map Codec.to_line (Run.all_traces_sorted outcome)

let shard_stats outcome =
  match outcome.Run.shard with
  | Some s -> s
  | None -> Alcotest.fail "sharded run must report shard stats"

(* Offline verification exactly as the CLI does it: every mark through
   [Marks.apply], then the traces in timestamp order. *)
let check_outcome outcome =
  let checker = Checker.create si in
  Leopard_harness.Marks.(apply checker (of_outcome outcome));
  List.iter (Checker.feed checker) (Run.all_traces_sorted outcome);
  Checker.finalize checker;
  Checker.report checker

let probe_duration ?spec ~clients ~txns ~seed () =
  (run_with ?spec ~clients ~txns ~seed ()).Run.sim_duration_ns

(* --- zero-fault sharding: byte identity --- *)

let test_disabled_shard_is_identity () =
  let plain = run_with () in
  let shard = Run.shard_config (Group.config ~shards:3 ()) in
  let sharded = run_with ~shard () in
  Alcotest.(check (list string))
    "byte-identical traces" (lines plain) (lines sharded);
  Alcotest.(check int) "same commits" plain.Run.commits sharded.Run.commits;
  Alcotest.(check int) "same aborts" plain.Run.aborts sharded.Run.aborts;
  Alcotest.(check bool) "no coordinator ambiguity" true
    (sharded.Run.coord_ambiguous = []);
  Alcotest.(check bool) "topology mark present" true
    (sharded.Run.shard_marks = [ { Codec.at = 0; shards = 3 } ]);
  let s = shard_stats sharded in
  Alcotest.(check bool) "cross-shard commits really ran 2PC" true
    (s.Group.tpc_commits > 0);
  Alcotest.(check bool) "single-shard commits took the fast path" true
    (s.Group.fast_path_commits > 0);
  Alcotest.(check int) "2PC + fast path partition the commits"
    sharded.Run.commits
    (s.Group.tpc_commits + s.Group.fast_path_commits);
  Alcotest.(check int) "no resends" 0 s.Group.resends;
  Alcotest.(check int) "no vetoes" 0 s.Group.vetoes;
  Alcotest.(check int) "no prepare timeouts" 0 s.Group.prep_timeouts;
  Alcotest.(check int) "no coordinator crashes" 0 s.Group.coord_crashes;
  Alcotest.(check bool) "reads routed to participants" true
    (s.Group.routed_reads > 0);
  Alcotest.(check int) "no stale serves" 0 s.Group.stale_serves;
  Alcotest.(check int) "no skew serves" 0 s.Group.skew_serves;
  (* every 2PC commit closed its round with a definite 'c' *)
  let marks = sharded.Run.prepare_marks in
  Alcotest.(check int) "one P mark per 2PC outcome"
    (s.Group.tpc_commits + s.Group.tpc_aborts)
    (List.length marks);
  List.iter
    (fun (m : Codec.prepare_mark) ->
      if m.Codec.disposition = Codec.Unknown then
        Alcotest.fail "zero-fault run left an unknown disposition";
      Alcotest.(check bool) "round spans at least two shards" true
        (List.length m.Codec.shards >= 2))
    marks

let test_identity_sweep () =
  (* the acceptance bar: 50 seeds, byte-for-byte *)
  for seed = 1 to 50 do
    let plain = lines (run_with ~clients:4 ~txns:40 ~seed ()) in
    let shard = Run.shard_config (Group.config ~shards:2 ()) in
    let sharded = lines (run_with ~shard ~clients:4 ~txns:40 ~seed ()) in
    if plain <> sharded then
      Alcotest.failf "seed %d: sharded run diverged" seed
  done

(* --- determinism under protocol faults --- *)

let faulty_shard ?(seed = 11) ?(coord_crash_at = []) () =
  Run.shard_config ~coord_crash_at
    (Group.config ~shards:2 ~hop_ns:20_000
       ~link:
         (Link.config ~seed ~delay_prob:0.1 ~drop_prob:0.1 ~dup_prob:0.05
            ~reorder_prob:0.05 ())
       ())

let test_same_seed_same_faults () =
  let mk () =
    run_with ~spec:cross_spec
      ~shard:(faulty_shard ~coord_crash_at:[ 3_000_000 ] ())
      ()
  in
  let a = mk () and b = mk () in
  Alcotest.(check (list string)) "identical traces" (lines a) (lines b);
  Alcotest.(check bool) "identical shard stats" true
    (shard_stats a = shard_stats b);
  Alcotest.(check bool) "identical ambiguity" true
    (a.Run.coord_ambiguous = b.Run.coord_ambiguous);
  Alcotest.(check bool) "identical dispositions" true
    (a.Run.prepare_marks = b.Run.prepare_marks);
  let s = shard_stats a in
  Alcotest.(check bool) "faults actually injected" true
    (s.Group.link_dropped > 0 && s.Group.resends > 0);
  (* the client-side ambiguity channel and the '?' dispositions are the
     same set: one orphaned round, one give-up, no double counting *)
  let unknown =
    List.filter_map
      (fun (m : Codec.prepare_mark) ->
        if m.Codec.disposition = Codec.Unknown then Some m.Codec.txn else None)
      a.Run.prepare_marks
    |> List.sort_uniq Int.compare
  in
  let ambiguous =
    List.map (fun (_c, txn, _at) -> txn) a.Run.coord_ambiguous
    |> List.sort_uniq Int.compare
  in
  Alcotest.(check (list int)) "? marks = ambiguity channel" unknown ambiguous

(* --- environmental faults never fabricate violations --- *)

let test_coord_crash_sweep_no_false_violation () =
  (* coordinator crashes crossed with wire faults on the protocol
     links: everything here is honest, so the checker may say
     Inconclusive but never Violation *)
  let seen_crash_orphans = ref 0 and seen_drops = ref 0 in
  for seed = 1 to 50 do
    let d = probe_duration ~spec:cross_spec ~clients:4 ~txns:60 ~seed () in
    let shard =
      Run.shard_config
        ~coord_crash_at:[ d / 3; 2 * d / 3 ]
        ~part_crash_at:[ (d / 2, seed mod 2) ]
        (Group.config ~shards:2 ~hop_ns:(d / 200)
           ~prepare_timeout_ns:(d / 10) ~retransmit_ns:(d / 100)
           ~link:
             (Link.config ~seed ~drop_prob:0.1 ~dup_prob:0.05
                ~delay_prob:0.1 ~reorder_prob:0.05 ~reset_prob:0.02 ())
           ())
    in
    let outcome = run_with ~spec:cross_spec ~shard ~clients:4 ~txns:60 ~seed () in
    let s = shard_stats outcome in
    seen_crash_orphans := !seen_crash_orphans + s.Group.coord_orphans;
    seen_drops := !seen_drops + s.Group.link_dropped;
    let r = check_outcome outcome in
    if r.Checker.bugs_total > 0 then
      Alcotest.failf "seed %d: false violation under honest 2PC chaos" seed;
    (* shard mode never touches the wire channel: whatever ambiguity
       there is lives in the coordinator channel alone *)
    Alcotest.(check int)
      (Printf.sprintf "seed %d: wire channel untouched" seed)
      0 r.Checker.degradation.Checker.ambiguous_commits
  done;
  Alcotest.(check bool) "sweep actually orphaned rounds" true
    (!seen_crash_orphans > 0);
  Alcotest.(check bool) "sweep actually dropped messages" true
    (!seen_drops > 0)

let test_coord_crash_composes_with_wal_plane () =
  (* a server crash epoch in the middle of the same run: the engine
     recovers from the WAL with its commit hook intact, decision slices
     keep shipping, and the verdict still never fabricates a bug *)
  let seen_epochs = ref 0 in
  for seed = 1 to 10 do
    let d = probe_duration ~spec:cross_spec ~clients:4 ~txns:60 ~seed () in
    let shard =
      Run.shard_config ~coord_crash_at:[ 2 * d / 3 ]
        (Group.config ~shards:2 ~hop_ns:(d / 200)
           ~prepare_timeout_ns:(d / 10) ~retransmit_ns:(d / 100) ())
    in
    let cfg =
      Run.config ~clients:4 ~seed ~shard ~crash_at:[ d / 3 ]
        ~spec:(cross_spec ()) ~profile:Minidb.Profile.postgresql
        ~level:Minidb.Isolation.Snapshot_isolation ~stop:(Run.Txn_count 60) ()
    in
    let outcome = Run.execute cfg in
    seen_epochs := !seen_epochs + outcome.Run.restarts;
    let r = check_outcome outcome in
    if r.Checker.bugs_total > 0 then
      Alcotest.failf "seed %d: false violation under crash + 2PC" seed
  done;
  Alcotest.(check bool) "sweep actually restarted the server" true
    (!seen_epochs > 0)

let test_honest_coord_crash_is_inconclusive () =
  (* find a run where a coordinator crash orphaned a round that never
     resolved: the verdict must degrade, not verify and not accuse *)
  let found = ref false in
  let seed = ref 1 in
  while (not !found) && !seed <= 30 do
    let d = probe_duration ~spec:cross_spec ~clients:4 ~txns:60 ~seed:!seed () in
    let shard =
      Run.shard_config ~coord_crash_at:[ d / 2 ]
        (Group.config ~shards:2 ~hop_ns:(d / 50)
           ~prepare_timeout_ns:(d / 5) ~retransmit_ns:(d / 50) ())
    in
    let outcome =
      run_with ~spec:cross_spec ~shard ~clients:4 ~txns:60 ~seed:!seed ()
    in
    let r = check_outcome outcome in
    Alcotest.(check int) "never a violation" 0 r.Checker.bugs_total;
    if r.Checker.degradation.Checker.coord_ambiguous_commits > 0 then begin
      found := true;
      match Checker.verdict r with
      | Checker.Inconclusive reason ->
        let contains ~needle hay =
          let n = String.length needle and h = String.length hay in
          let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "reason names the coordinator" true
          (contains ~needle:"coordinator" reason)
      | Checker.Verified ->
        Alcotest.fail "unresolved coordinator ambiguity cannot verify"
      | Checker.Violation -> Alcotest.fail "honest crash is not a violation"
    end;
    incr seed
  done;
  Alcotest.(check bool) "a seed left unresolved coordinator ambiguity" true
    !found

(* --- planted faults are caught with the advertised mechanism --- *)

let find_violation ?(spec = cross_spec) ~mechanism ~configure () =
  let found = ref None in
  let seed = ref 1 in
  while Option.is_none !found && !seed <= 30 do
    let d = probe_duration ~spec ~clients:4 ~txns:80 ~seed:!seed () in
    let outcome =
      run_with ~spec ~shard:(configure d) ~clients:4 ~txns:80 ~seed:!seed ()
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

let test_fractured_commit_detected () =
  (* the coordinator crash splices an undelivered cross-shard slice out
     of a lagging shard's log: half the commit exists, half never will —
     later routed reads on that shard miss the committed write *)
  let configure d =
    Run.shard_config ~coord_crash_at:[ d / 2 ]
      (Group.config ~shards:2 ~hop_ns:(d / 2000)
         ~prepare_timeout_ns:(d / 20) ~retransmit_ns:(d / 30)
         ~link:(Link.config ~seed:9 ~drop_prob:0.2 ())
         ~faults:[ Shard_fault.Fractured_commit ] ())
  in
  let outcome, r = find_violation ~mechanism:"CR" ~configure () in
  Alcotest.(check bool) "verdict Violation" true
    (Checker.verdict r = Checker.Violation);
  Alcotest.(check bool) "a slice really was fractured" true
    ((shard_stats outcome).Group.fractured > 0)

let test_commit_after_abort_detected () =
  (* vote loss times the round out into a definite abort the client
     sees and retries — but the lying participant installs the aborted
     writes anyway, and a routed read serves a value that never
     committed *)
  let configure d =
    Run.shard_config
      (Group.config ~shards:2 ~hop_ns:(d / 2000)
         ~prepare_timeout_ns:(d / 50) ~retransmit_ns:(d / 200)
         ~link:(Link.config ~seed:5 ~drop_prob:0.3 ())
         ~faults:[ Shard_fault.Commit_after_abort ] ())
  in
  let outcome, r = find_violation ~mechanism:"CR" ~configure () in
  Alcotest.(check bool) "verdict Violation" true
    (Checker.verdict r = Checker.Violation);
  Alcotest.(check bool) "rounds really aborted" true
    ((shard_stats outcome).Group.tpc_aborts > 0)

let test_snapshot_skew_detected () =
  (* a lagging shard serves a snapshot read from behind the snapshot,
     pretending its horizon covers it: the cross-shard read pair is
     internally inconsistent *)
  let configure d =
    Run.shard_config
      (Group.config ~shards:2 ~hop_ns:(d / 20) ~skew_bound_ns:d
         ~prepare_timeout_ns:(d / 5) ~retransmit_ns:(d / 20)
         ~faults:[ Shard_fault.Snapshot_skew ] ())
  in
  let outcome, r = find_violation ~mechanism:"CR" ~configure () in
  Alcotest.(check bool) "verdict Violation" true
    (Checker.verdict r = Checker.Violation);
  Alcotest.(check bool) "skewed serves really happened" true
    ((shard_stats outcome).Group.skew_serves > 0)

let test_stale_prepared_read_detected () =
  (* orphaned prepared locks freeze the holding shard's horizon; the
     frozen shard keeps serving its pre-crash state while the rest of
     the group moves on *)
  let configure d =
    Run.shard_config ~coord_crash_at:[ d / 3 ]
      (Group.config ~shards:2 ~hop_ns:(d / 20) ~skew_bound_ns:d
         ~prepare_timeout_ns:(d / 5) ~retransmit_ns:(d / 20)
         ~faults:[ Shard_fault.Stale_prepared_read ] ())
  in
  let outcome, r = find_violation ~mechanism:"CR" ~configure () in
  Alcotest.(check bool) "verdict Violation" true
    (Checker.verdict r = Checker.Violation);
  Alcotest.(check bool) "stale serves really happened" true
    ((shard_stats outcome).Group.stale_serves > 0)

(* --- cross-shard stitching: the global trace is what convicts --- *)

let shard_local_traces outcome shard =
  (* keep only traces whose every cell lives on [shard] (terminal
     traces stay — they carry no cells); count what was dropped so the
     per-shard check can be told its collection is incomplete, exactly
     as an honest per-shard collector would *)
  let keep (tr : Trace.t) =
    match tr.Trace.payload with
    | Trace.Read { items; _ } ->
      List.for_all
        (fun (it : Trace.item) ->
          Group.shard_of_cell ~shards:2 it.Trace.cell = shard)
        items
    | Trace.Write items ->
      List.for_all
        (fun (it : Trace.item) ->
          Group.shard_of_cell ~shards:2 it.Trace.cell = shard)
        items
    | Trace.Commit | Trace.Abort -> true
  in
  let all = Run.all_traces_sorted outcome in
  let kept = List.filter keep all in
  (kept, List.length all - List.length kept)

let test_violation_needs_global_stitching () =
  let configure d =
    Run.shard_config ~coord_crash_at:[ d / 2 ]
      (Group.config ~shards:2 ~hop_ns:(d / 2000)
         ~prepare_timeout_ns:(d / 20) ~retransmit_ns:(d / 30)
         ~link:(Link.config ~seed:9 ~drop_prob:0.2 ())
         ~faults:[ Shard_fault.Fractured_commit ] ())
  in
  let outcome, r = find_violation ~mechanism:"CR" ~configure () in
  Alcotest.(check bool) "global trace convicts" true
    (r.Checker.bugs_total > 0);
  (* the same history sliced per shard: the cross-shard writes vanish
     from both slices, and with the loss on the books neither slice can
     prove anything *)
  List.iter
    (fun shard ->
      let kept, dropped = shard_local_traces outcome shard in
      let checker = Checker.create si in
      Checker.note_lost_traces checker dropped;
      List.iter
        (fun (_c, txn, _at) -> Checker.mark checker ~txn Checker.Coord)
        outcome.Run.coord_ambiguous;
      List.iter (Checker.feed checker) kept;
      Checker.finalize checker;
      let r = Checker.report checker in
      Alcotest.(check int)
        (Printf.sprintf "shard %d slice alone proves nothing" shard)
        0 r.Checker.bugs_total)
    [ 0; 1 ]

(* --- checker-level [Checker.mark] semantics for the Coord cause --- *)

let test_coord_ambiguous_resolves () =
  (* a later committed read observing the orphaned commit's write
     proves it committed: the ambiguity resolves and stops degrading *)
  let checker = Checker.create si in
  Checker.mark checker ~txn:1 Checker.Coord;
  List.iter (Checker.feed checker)
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.read ~txn:2 ~bef:100 ~aft:110 [ (x, 100) ];
      Helpers.commit ~txn:2 ~bef:120 ~aft:130 ();
    ];
  Checker.finalize checker;
  let r = Checker.report checker in
  Alcotest.(check int) "no bugs" 0 r.Checker.bugs_total;
  Alcotest.(check int) "resolved" 1 r.Checker.resolved_ambiguous;
  Alcotest.(check int) "coordinator channel cleared" 0
    r.Checker.degradation.Checker.coord_ambiguous_commits;
  Alcotest.(check int) "wire channel untouched" 0
    r.Checker.degradation.Checker.ambiguous_commits

let test_coord_ambiguous_unresolved_degrades () =
  let checker = Checker.create si in
  Checker.mark checker ~txn:1 Checker.Coord;
  List.iter (Checker.feed checker)
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.read ~txn:2 ~bef:100 ~aft:110 [ (x, 0) ];
      Helpers.commit ~txn:2 ~bef:120 ~aft:130 ();
    ];
  Checker.finalize checker;
  let r = Checker.report checker in
  Alcotest.(check int) "no bugs" 0 r.Checker.bugs_total;
  Alcotest.(check int) "coordinator channel counts it" 1
    r.Checker.degradation.Checker.coord_ambiguous_commits;
  match Checker.verdict r with
  | Checker.Inconclusive _ -> ()
  | Checker.Verified | Checker.Violation ->
    Alcotest.fail "unresolved coordinator ambiguity must degrade"

let test_channel_partition_is_exact () =
  (* whichever mark arrives first claims the transaction; the loser's
     channel stays at zero — no double counting in either order *)
  let count ~first ~second =
    let checker = Checker.create si in
    Checker.mark checker ~txn:1 first;
    Checker.mark checker ~txn:1 second;
    Checker.feed checker (Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 1) ]);
    Checker.finalize checker;
    let d = (Checker.report checker).Checker.degradation in
    ( d.Checker.ambiguous_commits,
      d.Checker.coord_ambiguous_commits )
  in
  Alcotest.(check (pair int int))
    "wire first: wire channel owns it" (1, 0)
    (count ~first:Checker.Wire ~second:Checker.Coord);
  Alcotest.(check (pair int int))
    "coordinator first: coordinator channel owns it" (0, 1)
    (count ~first:Checker.Coord ~second:Checker.Wire)

let test_lost_beats_coord_ambiguous () =
  (* txn 1 is both coordinator-ambiguous and in a failover's lost
     suffix: the leader mark wins, the observation never resolves it *)
  let checker = Checker.create si in
  Checker.mark checker ~txn:1 Checker.Coord;
  Checker.note_failover checker ~at:50 ~epoch:2 ~lost:[ 1 ];
  List.iter (Checker.feed checker)
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.read ~txn:2 ~bef:100 ~aft:110 [ (x, 100) ];
      Helpers.commit ~txn:2 ~bef:120 ~aft:130 ();
    ];
  Checker.finalize checker;
  let r = Checker.report checker in
  Alcotest.(check int) "no bugs" 0 r.Checker.bugs_total;
  Alcotest.(check int) "nothing resolved" 0 r.Checker.resolved_ambiguous;
  Alcotest.(check int) "coordinator channel ceded to the loss" 0
    r.Checker.degradation.Checker.coord_ambiguous_commits;
  Alcotest.(check int) "loss counted once" 1
    r.Checker.degradation.Checker.lost_suffix_commits

let test_coord_violation_still_reported () =
  (* degradation never hides a proven bug: the ambiguous transaction's
     write is served to a committed read, yet a second committed read
     later observes the overwritten value — still a violation *)
  let checker = Checker.create si in
  Checker.mark checker ~txn:1 Checker.Coord;
  List.iter (Checker.feed checker)
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.read ~txn:2 ~bef:100 ~aft:110 [ (x, 100) ];
      Helpers.commit ~txn:2 ~bef:120 ~aft:130 ();
      (* snapshot after txn 1 resolved-committed and txn 3's own begin:
         reading the initial 0 contradicts the resolved version order *)
      Helpers.read ~txn:3 ~bef:200 ~aft:210 [ (x, 0) ];
      Helpers.commit ~txn:3 ~bef:220 ~aft:230 ();
    ];
  Checker.finalize checker;
  let r = Checker.report checker in
  Alcotest.(check bool) "violation proven under degradation" true
    (r.Checker.bugs_total > 0);
  Alcotest.(check bool) "verdict Violation" true
    (Checker.verdict r = Checker.Violation)

(* --- configuration validation --- *)

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_config_validation () =
  expect_invalid "one shard" (fun () -> Group.config ~shards:1 ());
  expect_invalid "negative hop" (fun () -> Group.config ~hop_ns:(-1) ());
  expect_invalid "zero prepare timeout" (fun () ->
      Group.config ~prepare_timeout_ns:0 ());
  expect_invalid "coordinator crash at 0" (fun () ->
      Run.shard_config ~coord_crash_at:[ 0 ] (Group.config ()));
  expect_invalid "participant crash shard out of range" (fun () ->
      Run.shard_config ~part_crash_at:[ (10, 2) ] (Group.config ~shards:2 ()));
  expect_invalid "shard and net are exclusive" (fun () ->
      Run.config ~shard:(Run.shard_config (Group.config ()))
        ~net:(Run.net_config ()) ~spec:(spec ())
        ~profile:Minidb.Profile.postgresql
        ~level:Minidb.Isolation.Snapshot_isolation ~stop:(Run.Txn_count 1) ());
  expect_invalid "shard and repl are exclusive" (fun () ->
      Run.config ~shard:(Run.shard_config (Group.config ()))
        ~repl:
          (Run.repl_config (Leopard_replication.Cluster.config ~followers:1 ()))
        ~spec:(spec ()) ~profile:Minidb.Profile.postgresql
        ~level:Minidb.Isolation.Snapshot_isolation ~stop:(Run.Txn_count 1) ())

let test_shard_count_validator () =
  let flag = "--shards" in
  Alcotest.(check bool) "0 (plane off) accepted" true
    (Validate.shard_count ~flag 0 = None);
  Alcotest.(check bool) "2 accepted" true (Validate.shard_count ~flag 2 = None);
  Alcotest.(check bool) "16 accepted" true
    (Validate.shard_count ~flag 16 = None);
  Alcotest.(check bool) "1 rejected" true
    (Option.is_some (Validate.shard_count ~flag 1));
  Alcotest.(check bool) "negative rejected" true
    (Option.is_some (Validate.shard_count ~flag (-3)))

let test_placement_is_total_and_stable () =
  (* every row lands on exactly one shard in range, all columns of a row
     co-locate, and a few pinned placements guard the hash against
     accidental change (the on-disk trace format depends on it) *)
  for shards = 2 to 8 do
    for row = 0 to 500 do
      let s = Group.shard_of_row ~shards (0, row) in
      Alcotest.(check bool) "in range" true (s >= 0 && s < shards);
      Alcotest.(check int) "columns co-locate" s
        (Group.shard_of_cell ~shards
           (Leopard_trace.Cell.make ~table:0 ~row ~col:3))
    done
  done;
  List.iter
    (fun (shards, pinned) ->
      Alcotest.(check (list int))
        (Printf.sprintf "pinned: rows 0-15 of table 0 on %d shards" shards)
        pinned
        (List.init 16 (fun row -> Group.shard_of_row ~shards (0, row))))
    [
      (2, [ 0; 0; 1; 0; 1; 1; 1; 0; 1; 1; 0; 0; 0; 1; 0; 0 ]);
      (3, [ 0; 1; 2; 0; 2; 2; 2; 0; 2; 1; 0; 0; 0; 2; 0; 0 ]);
      (8, [ 0; 2; 6; 0; 5; 5; 6; 0; 6; 4; 0; 1; 1; 6; 1; 0 ]);
    ];
  Alcotest.(check bool) "both shards inhabited" true
    (let s = List.init 100 (fun r -> Group.shard_of_row ~shards:2 (0, r)) in
     List.mem 0 s && List.mem 1 s)

(* The catalog cannot call [Group.shard_of_row], so its cross-rmw rows
   are literals; they must stay one per shard of a 2-shard ring. *)
let test_cross_rmw_straddles_ring () =
  Alcotest.(check (list (pair int int)))
    "cross-rmw's cells are table 0, rows on shards 0 and 1"
    [ (0, row_on 0); (0, row_on 1) ]
    (List.map
       (fun (c, _) -> Leopard_trace.Cell.row_key c)
       (cross_spec ()).Leopard_workload.Spec.initial)

let suite =
  [
    Alcotest.test_case "disabled shard plane is identity" `Quick
      test_disabled_shard_is_identity;
    Alcotest.test_case "50-seed identity sweep" `Slow test_identity_sweep;
    Alcotest.test_case "same seed same faults" `Quick
      test_same_seed_same_faults;
    Alcotest.test_case "coord-crash x wire-fault sweep: no false violations"
      `Slow test_coord_crash_sweep_no_false_violation;
    Alcotest.test_case "2PC composes with the WAL plane" `Slow
      test_coord_crash_composes_with_wal_plane;
    Alcotest.test_case "honest coordinator crash is inconclusive" `Quick
      test_honest_coord_crash_is_inconclusive;
    Alcotest.test_case "fractured commit caught (CR)" `Quick
      test_fractured_commit_detected;
    Alcotest.test_case "commit-after-abort caught (CR)" `Quick
      test_commit_after_abort_detected;
    Alcotest.test_case "snapshot skew caught (CR)" `Quick
      test_snapshot_skew_detected;
    Alcotest.test_case "stale prepared read caught (CR)" `Quick
      test_stale_prepared_read_detected;
    Alcotest.test_case "violation needs global stitching" `Quick
      test_violation_needs_global_stitching;
    Alcotest.test_case "coordinator ambiguity resolves" `Quick
      test_coord_ambiguous_resolves;
    Alcotest.test_case "unresolved coordinator ambiguity degrades" `Quick
      test_coord_ambiguous_unresolved_degrades;
    Alcotest.test_case "channel partition is exact" `Quick
      test_channel_partition_is_exact;
    Alcotest.test_case "lost beats coordinator ambiguity" `Quick
      test_lost_beats_coord_ambiguous;
    Alcotest.test_case "violation still reported under degradation" `Quick
      test_coord_violation_still_reported;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "shard-count validator" `Quick
      test_shard_count_validator;
    Alcotest.test_case "placement total and stable" `Quick
      test_placement_is_total_and_stable;
    Alcotest.test_case "cross-rmw rows straddle a 2-shard ring" `Quick
      test_cross_rmw_straddles_ring;
  ]
