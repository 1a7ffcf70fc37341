(* Live monitoring: Leopard attached to a running system (§VI-C mode).

     dune exec examples/live_monitor.exe

   The Tracer batches client traces into the two-level pipeline on a
   fixed window while the workload runs; the Verifier consumes whatever
   the watermark proves safe.  We run a healthy bank first, then flip a
   fault on and watch the monitor raise the alarm — with the same
   verdicts an offline pass would produce. *)

module H = Leopard_harness
module W = Leopard_workload

let monitor ~label ~faults =
  let cfg =
    H.Run.config ~clients:16 ~seed:99 ~faults
      ~spec:(W.Ycsb_t.spec ~accounts:400 ~theta:0.9 ())
      ~profile:Minidb.Profile.postgresql
      ~level:Minidb.Isolation.Snapshot_isolation
      ~stop:(H.Run.Sim_time_ns 100_000_000) ()
  in
  let r =
    H.Online.run ~batch_window_ns:500_000 ~il:Leopard.Il_profile.postgresql_si
      cfg
  in
  Printf.printf "%s\n" label;
  Printf.printf
    "  %d traces in %d batch windows; backlog peaked at %d traces and \
     ended at %d\n"
    r.report.Leopard.Checker.traces r.rounds r.max_lag r.final_lag;
  Printf.printf "  verification spent %.1f ms of CPU\n"
    (r.verify_cpu_s *. 1e3);
  Printf.printf "  %s\n\n"
    (Leopard.Report_pp.verdict_line r.report);
  r.report.Leopard.Checker.bugs_total

let () =
  let healthy = monitor ~label:"[1] healthy system" ~faults:Minidb.Fault.Set.empty in
  let sick =
    monitor ~label:"[2] same system, first-updater-wins silently broken"
      ~faults:(Minidb.Fault.Set.singleton Minidb.Fault.No_fuw)
  in
  Printf.printf
    "the monitor stayed silent on the healthy run (%d alarms) and raised \
     %d alarms on the broken one, while keeping pace with the workload.\n"
    healthy sick;
  if healthy <> 0 || sick = 0 then exit 1
