(* Online (live) verification must produce exactly the verdicts of an
   offline pass over the full sorted history. *)

module H = Leopard_harness
module W = Leopard_workload
module Il = Leopard.Il_profile

let base_config ?faults ~seed ~txns () =
  H.Run.config ?faults ~clients:12 ~seed ~spec:(W.Blindw.spec W.Blindw.RW)
    ~profile:Minidb.Profile.postgresql ~level:Minidb.Isolation.Serializable
    ~stop:(H.Run.Txn_count txns) ()

let offline_report il (outcome : H.Run.outcome) =
  Helpers.check il (H.Run.all_traces_sorted outcome)

let test_online_matches_offline_clean () =
  let r = H.Online.run ~il:Il.postgresql_serializable (base_config ~seed:3 ~txns:800 ()) in
  let offline = offline_report Il.postgresql_serializable r.outcome in
  Alcotest.(check int) "same traces" offline.traces r.report.traces;
  Alcotest.(check int) "same bugs" offline.bugs_total r.report.bugs_total;
  Alcotest.(check int) "same committed" offline.committed r.report.committed;
  Alcotest.(check int) "same deductions" offline.deps_deduced
    r.report.deps_deduced;
  Alcotest.(check int) "nothing left unverified" 0
    (r.report.traces - offline.traces);
  Alcotest.(check bool) "batches were processed live" true (r.rounds > 1)

let test_online_matches_offline_faulted () =
  let faults = Minidb.Fault.Set.singleton Minidb.Fault.No_fuw in
  let p = W.Probes.for_fault Minidb.Fault.No_fuw in
  let cfg =
    H.Run.config ~faults ~clients:p.clients ~seed:5 ~spec:p.spec
      ~profile:p.db_profile ~level:p.level
      ~stop:(H.Run.Txn_count 1_000) ()
  in
  let il = Option.get (Il.find p.verifier_profile) in
  let r = H.Online.run ~il cfg in
  let offline = offline_report il r.outcome in
  Alcotest.(check bool) "bugs found online" true (r.report.bugs_total > 0);
  Alcotest.(check int) "same verdicts as offline" offline.bugs_total
    r.report.bugs_total

let test_online_keeps_up () =
  let r =
    H.Online.run ~batch_window_ns:200_000 ~il:Il.postgresql_serializable
      (base_config ~seed:7 ~txns:1_000 ())
  in
  let total = r.report.traces in
  Alcotest.(check bool)
    (Printf.sprintf "lag bounded (max %d of %d)" r.max_lag total)
    true
    (r.max_lag < total);
  Alcotest.(check bool) "verification cheap vs run" true
    (r.verify_cpu_s >= 0.0)

let test_online_observer_and_tick_fire () =
  let observed = ref 0 in
  let ticks = ref 0 in
  let cfg =
    H.Run.config ~clients:4 ~seed:9 ~spec:(W.Blindw.spec W.Blindw.RW)
      ~profile:Minidb.Profile.postgresql
      ~level:Minidb.Isolation.Serializable
      ~observer:(fun _ -> incr observed)
      ~tick:(100_000, fun () -> incr ticks)
      ~stop:(H.Run.Txn_count 100) ()
  in
  let outcome = H.Run.execute cfg in
  let total =
    Array.fold_left (fun acc l -> acc + List.length l) 0 outcome.client_traces
  in
  Alcotest.(check int) "observer saw every trace" total !observed;
  Alcotest.(check bool) "tick fired repeatedly" true (!ticks > 2)

let suite =
  [
    Alcotest.test_case "online = offline (clean)" `Quick
      test_online_matches_offline_clean;
    Alcotest.test_case "online = offline (faulted)" `Quick
      test_online_matches_offline_faulted;
    Alcotest.test_case "online lag bounded" `Quick test_online_keeps_up;
    Alcotest.test_case "observer and tick hooks" `Quick
      test_online_observer_and_tick_fire;
  ]
