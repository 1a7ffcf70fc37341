module W = Leopard_workload
module Li = Leopard.Level_inference

let run_traces ?(level = Minidb.Isolation.Snapshot_isolation) ?faults spec
    ~txns =
  let outcome =
    Helpers.run_workload ~clients:16 ~txns ~seed:77 ?faults ~spec
      ~profile:Minidb.Profile.postgresql ~level ()
  in
  let traces = Leopard_harness.Run.all_traces_sorted outcome in
  fun feed -> List.iter feed traces

let verdict_for verdicts name =
  List.find
    (fun (v : Li.verdict) -> v.profile.Leopard.Il_profile.name = name)
    verdicts

let test_serializable_run_passes_everything () =
  let traces =
    run_traces ~level:Minidb.Isolation.Serializable
      (W.Blindw.spec W.Blindw.RW) ~txns:800
  in
  let verdicts = Li.infer ~dbms:"postgresql" traces in
  List.iter
    (fun (v : Li.verdict) ->
      Alcotest.(check bool)
        (v.profile.Leopard.Il_profile.name ^ " passes")
        true v.passed)
    verdicts;
  match Li.strongest_passed verdicts with
  | Some p ->
    Alcotest.(check string) "strongest is SR" "postgresql/SR"
      p.Leopard.Il_profile.name
  | None -> Alcotest.fail "nothing passed"

let test_si_run_with_skew_fails_sr () =
  (* the write-skew-prone workload at SI, no faults: legal SI behaviour
     that a correct SR certifier must forbid *)
  let p = W.Probes.for_fault Minidb.Fault.No_ssi in
  let traces = run_traces p.spec ~txns:3_000 in
  let verdicts = Li.infer ~dbms:"postgresql" traces in
  Alcotest.(check bool) "SI passes" true
    (verdict_for verdicts "postgresql/SI").passed;
  Alcotest.(check bool) "RR passes (it is SI)" true
    (verdict_for verdicts "postgresql/RR").passed;
  let sr = verdict_for verdicts "postgresql/SR" in
  Alcotest.(check bool) "SR fails" false sr.passed;
  Alcotest.(check (list string)) "SC is the violated mechanism" [ "SC" ]
    sr.violating_mechanisms;
  match Li.strongest_passed verdicts with
  | Some p ->
    Alcotest.(check string) "strongest is SI" "postgresql/SI"
      p.Leopard.Il_profile.name
  | None -> Alcotest.fail "nothing passed"

let test_rc_run_fails_si () =
  (* lost-update-prone RMW workload at read committed: no FUW protection,
     so the SI claim must fail on its FUW check *)
  let p = W.Probes.for_fault Minidb.Fault.No_fuw in
  let traces =
    run_traces ~level:Minidb.Isolation.Read_committed p.spec ~txns:3_000
  in
  let verdicts = Li.infer ~dbms:"postgresql" traces in
  Alcotest.(check bool) "RC passes" true
    (verdict_for verdicts "postgresql/RC").passed;
  let si = verdict_for verdicts "postgresql/SI" in
  Alcotest.(check bool) "SI fails" false si.passed;
  Alcotest.(check bool) "FUW violated" true
    (List.mem "FUW" si.violating_mechanisms)

let test_unknown_dbms () =
  Alcotest.(check int) "empty" 0 (List.length (Li.infer ~dbms:"nosuch" ignore))

let test_strength_order () =
  let traces =
    run_traces ~level:Minidb.Isolation.Serializable
      (W.Blindw.spec W.Blindw.RW) ~txns:200
  in
  let verdicts = Li.infer ~dbms:"postgresql" traces in
  let names =
    List.map (fun (v : Li.verdict) -> v.profile.Leopard.Il_profile.name) verdicts
  in
  Alcotest.(check (list string)) "weak to strong"
    [ "postgresql/RC"; "postgresql/RR"; "postgresql/SI"; "postgresql/SR" ]
    names

let suite =
  [
    Alcotest.test_case "clean SR run passes everything" `Slow
      test_serializable_run_passes_everything;
    Alcotest.test_case "SI run with write skew fails SR only" `Slow
      test_si_run_with_skew_fails_sr;
    Alcotest.test_case "RC run with lost updates fails SI" `Slow
      test_rc_run_fails_si;
    Alcotest.test_case "unknown dbms" `Quick test_unknown_dbms;
    Alcotest.test_case "strength order" `Slow test_strength_order;
  ]
