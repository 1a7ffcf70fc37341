(* Command-line driver: run a workload on a simulated DBMS profile and
   verify the claimed isolation level from the traces.

     dune exec bin/leopard_cli.exe -- --help
     dune exec bin/leopard_cli.exe -- -w smallbank -d postgresql -i SI -n 5000
     dune exec bin/leopard_cli.exe -- -w tpcc -d postgresql -i SR \
       --fault no-ssi --clients 24 *)

let workload_of_string = Leopard_workload.Catalog.find

let verifier_profile ~dbms ~level =
  match
    Leopard.Il_profile.find
      (Printf.sprintf "%s/%s" dbms (Minidb.Isolation.level_to_string level))
  with
  | Some il -> il
  | None ->
    prerr_endline "no verification profile for this (dbms, level)";
    exit 2

let print_inference ~dbms traces =
  let verdicts = Leopard.Level_inference.infer ~dbms traces in
  if verdicts = [] then
    Printf.printf "inference: no profiles known for dbms %s\n" dbms
  else begin
    Printf.printf "level inference for %s:\n" dbms;
    Format.printf "%a" Leopard.Level_inference.pp_verdicts verdicts;
    match Leopard.Level_inference.strongest_passed verdicts with
    | Some p ->
      Printf.printf "strongest supported claim: %s\n" p.Leopard.Il_profile.name
    | None -> Printf.printf "no claim supported\n"
  end

(* Shared epilogue: exit 0 verified, 1 violation, 3 inconclusive (2 is
   reserved for usage errors).  Byte-identical to the historical output
   on clean, degradation-free runs. *)
let finish ~show_bugs (report : Leopard.Checker.report) =
  if report.bugs_total = 0 then begin
    match Leopard.Checker.verdict report with
    | Leopard.Checker.Inconclusive reason ->
      Printf.printf "verdict  : INCONCLUSIVE — no violations proven, but %s\n"
        reason;
      exit 3
    | Leopard.Checker.Verified | Leopard.Checker.Violation ->
      Printf.printf "verdict  : PASS — no isolation violations\n";
      exit 0
  end
  else begin
    Printf.printf "verdict  : FAIL — %d violations\n" report.bugs_total;
    List.iteri
      (fun i b ->
        if i < show_bugs then Printf.printf "  %s\n" (Leopard.Bug.to_string b))
      report.bugs;
    exit 1
  end

let print_truncation (report : Leopard.Checker.report) =
  Printf.printf
    "truncate : %d cut(s), %d settled dep(s) folded into totals, peak %d live \
     entries\n"
    report.truncations report.truncated_deps report.peak_live

(* Verify a previously recorded trace file (see Leopard_trace.Codec)
   through one sorted-source session.  [kill_after] is the crash drill:
   SIGKILL (no cleanup) right after trace N, so CI can prove kill +
   resume reproduces the uninterrupted verdict byte-for-byte. *)
let check_file ~dbms ~level ~show_bugs ~infer ~lenient ~gc_watermark
    ~checkpoint ~resume ~kill_after path =
  let level =
    match Minidb.Isolation.level_of_string level with
    | Some l -> l
    | None ->
      prerr_endline ("unknown isolation level: " ^ level);
      exit 2
  in
  let fail e =
    prerr_endline ("cannot load " ^ path ^ ": " ^ e);
    exit 2
  in
  let contents, skipped =
    match
      if lenient then Ok (Leopard_trace.Codec.load_lenient_all ~path)
      else Result.map (fun c -> (c, [])) (Leopard_trace.Codec.load_all ~path)
    with
    | Ok loaded -> loaded
    | Error e -> fail e
    | exception Sys_error e -> fail e
  in
  let il = verifier_profile ~dbms ~level in
  let marks =
    Leopard_harness.Marks.of_codec contents ~skipped:(List.length skipped)
  in
  let shards = contents.Leopard_trace.Codec.c_shards in
  let rounds = List.length contents.c_prepares in
  let sorted = List.sort Leopard_trace.Trace.compare_by_bef contents.c_traces in
  if infer then print_inference ~dbms sorted;
  let total = List.length sorted in
  let wall0 = Leopard_util.Clock.wall () in
  let verified =
    Leopard_harness.Session.verify ~gc_watermark ?checkpoint ~resume
      ~file:path
      ~after_trace:(fun n ->
        if n = kill_after then Unix.kill (Unix.getpid ()) Sys.sigkill)
      il marks (Leopard_harness.Session.Sorted sorted)
  in
  let wall = Leopard_util.Clock.wall () -. wall0 in
  List.iter prerr_endline verified.Leopard_harness.Session.warnings;
  Option.iter
    (fun cursor ->
      Printf.printf "resumed  : trace %d/%d from checkpoint\n" cursor total)
    verified.Leopard_harness.Session.resumed_at;
  let report = verified.Leopard_harness.Session.report in
  Printf.printf "checked  : %s — %d traces, %d committed txns, %.1f ms wall\n"
    path report.traces report.committed (wall *. 1e3);
  if gc_watermark > 0 then print_truncation report;
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 in
  let { Leopard_harness.Marks.epochs; ambiguous; leaders; coord_ambiguous; _ } =
    marks
  in
  if epochs <> [] then
    Printf.printf "recovery : trace spans %d server restart(s), %d wal \
                   record(s) damaged\n"
      (List.length epochs)
      (sum (fun (e : Leopard_harness.Run.epoch_mark) -> e.damaged) epochs);
  if ambiguous <> [] then
    Printf.printf
      "ambiguous: %d commit(s) with unknown outcome, %d resolved by later \
       committed reads\n"
      (List.length ambiguous) report.resolved_ambiguous;
  if leaders <> [] then
    Printf.printf "failover : trace spans %d promotion(s), %d commit(s) lost \
                   with deposed timelines\n"
      (List.length leaders)
      (sum (fun (l : Leopard_trace.Codec.leader_mark) -> List.length l.lost)
         leaders);
  (match shards with
  | { Leopard_trace.Codec.shards; _ } :: _ ->
    Printf.printf
      "sharded  : %d shards, %d cross-shard round(s), %d with the \
       coordinator's decision unknown\n"
      shards rounds
      (List.length coord_ambiguous)
  | [] -> ());
  if skipped <> [] then begin
    Printf.printf "skipped  : %d undecodable line(s)\n" (List.length skipped);
    List.iteri
      (fun i (lineno, diag) ->
        if i < show_bugs then Printf.printf "  line %d: %s\n" lineno diag)
      skipped
  end;
  finish ~show_bugs report

let run_workload_mode workload dbms level faults clients txns seed show_bugs
    record infer chaos net max_retries ~gc_watermark ~checkpoint
    (wal, crash_at, wal_faults) repl shard =
  match
    ( workload_of_string workload,
      Minidb.Profile.find dbms,
      Minidb.Isolation.level_of_string level )
  with
  | None, _, _ ->
    prerr_endline ("unknown workload: " ^ workload);
    exit 2
  | _, None, _ ->
    prerr_endline ("unknown dbms profile: " ^ dbms);
    exit 2
  | _, _, None ->
    prerr_endline ("unknown isolation level: " ^ level);
    exit 2
  | Some spec, Some profile, Some level ->
    if not (Minidb.Profile.supports profile level) then begin
      Printf.eprintf "%s does not offer %s; available rows:\n%s" dbms
        (Minidb.Isolation.level_to_string level)
        (Minidb.Profile.fig1_matrix ());
      exit 2
    end;
    let faults =
      List.fold_left
        (fun acc name ->
          match Minidb.Fault.of_string name with
          | Some f -> Minidb.Fault.Set.add f acc
          | None ->
            prerr_endline ("unknown fault: " ^ name);
            exit 2)
        Minidb.Fault.Set.empty faults
    in
    let il = verifier_profile ~dbms ~level in
    let config =
      Leopard_harness.Run.config ~clients ~seed ~faults ?chaos ?net
        ~max_retries ~wal ~crash_at ?wal_faults ?repl ?shard ~spec ~profile
        ~level
        ~stop:(Leopard_harness.Run.Txn_count txns) ()
    in
    let header outcome =
      Printf.printf "run      : %s on %s/%s, %d clients, seed %d\n"
        spec.Leopard_workload.Spec.name dbms
        (Minidb.Isolation.level_to_string level)
        clients seed;
      if not (Minidb.Fault.Set.is_empty faults) then
        Printf.printf "faults   : %s\n"
          (String.concat ", "
             (List.map Minidb.Fault.to_string
                (Minidb.Fault.Set.elements faults)));
      Printf.printf "engine   : %d committed, %d aborted, %.1f ms simulated\n"
        outcome.Leopard_harness.Run.commits outcome.Leopard_harness.Run.aborts
        (float_of_int outcome.Leopard_harness.Run.sim_duration_ns /. 1e6);
      if max_retries > 0 then
        Printf.printf "retries  : %d aborted attempts re-run (cap %d)\n"
          outcome.Leopard_harness.Run.retries max_retries;
      if outcome.Leopard_harness.Run.restarts > 0 then
        Printf.printf
          "recovery : %d server restart(s), %d txn(s) aborted by crash, %d \
           wal record(s) appended, %d damaged\n"
          outcome.Leopard_harness.Run.restarts
          outcome.Leopard_harness.Run.aborts_crash
          outcome.Leopard_harness.Run.wal_appended
          outcome.Leopard_harness.Run.wal_damaged;
      (match outcome.Leopard_harness.Run.repl with
      | Some rs ->
        Printf.printf
          "repl     : %d append(s) (%d resent), %d delivered, %d ack(s) | %d \
           partition drop(s), %d stale drop(s), %d gate timeout(s)\n"
          rs.Leopard_replication.Cluster.appends_sent
          rs.Leopard_replication.Cluster.resends
          rs.Leopard_replication.Cluster.appends_delivered
          rs.Leopard_replication.Cluster.acks_delivered
          rs.Leopard_replication.Cluster.partition_drops
          rs.Leopard_replication.Cluster.stale_drops
          rs.Leopard_replication.Cluster.gate_timeouts;
        if
          rs.Leopard_replication.Cluster.failovers > 0
          || rs.Leopard_replication.Cluster.follower_reads > 0
        then
          Printf.printf
            "repl     : %d failover(s), %d commit(s) lost, %d follower \
             read(s) (%d stale), %d ambiguous commit(s)\n"
            rs.Leopard_replication.Cluster.failovers
            (List.fold_left
               (fun acc (m : Leopard_trace.Codec.leader_mark) ->
                 acc + List.length m.lost)
               0 outcome.Leopard_harness.Run.leaders)
            rs.Leopard_replication.Cluster.follower_reads
            rs.Leopard_replication.Cluster.stale_serves
            (List.length outcome.Leopard_harness.Run.repl_ambiguous)
      | None -> ());
      (match outcome.Leopard_harness.Run.shard with
      | Some ss ->
        Printf.printf
          "shard    : %d shards | %d fast-path, %d 2PC commit(s), %d 2PC \
           abort(s) | %d prepare(s), %d veto(es), %d timeout(s), %d \
           resend(s)\n"
          ss.Leopard_shard.Group.shards
          ss.Leopard_shard.Group.fast_path_commits
          ss.Leopard_shard.Group.tpc_commits
          ss.Leopard_shard.Group.tpc_aborts
          ss.Leopard_shard.Group.prepares_sent
          ss.Leopard_shard.Group.vetoes
          ss.Leopard_shard.Group.prep_timeouts
          ss.Leopard_shard.Group.resends;
        if
          ss.Leopard_shard.Group.coord_crashes > 0
          || ss.Leopard_shard.Group.routed_reads > 0
        then
          Printf.printf
            "shard    : %d coordinator crash(es), %d orphaned round(s), %d \
             ambiguous commit(s) | %d routed read(s) (%d skewed, %d stale)\n"
            ss.Leopard_shard.Group.coord_crashes
            ss.Leopard_shard.Group.coord_orphans
            (List.length outcome.Leopard_harness.Run.coord_ambiguous)
            ss.Leopard_shard.Group.routed_reads
            ss.Leopard_shard.Group.skew_serves
            ss.Leopard_shard.Group.stale_serves
      | None -> ());
      (match outcome.Leopard_harness.Run.shard_repl with
      | Some sr ->
        Printf.printf
          "shard    : %d replica(s)/shard | %d decision(s) forwarded, %d \
           append(s), %d ack(s) | %d failover(s) (%d claimed clean, %d \
           record(s) lost)\n"
          sr.Leopard_compose.Stack.followers_per_shard
          sr.Leopard_compose.Stack.forwarded
          sr.Leopard_compose.Stack.appends_sent
          sr.Leopard_compose.Stack.acks_delivered
          sr.Leopard_compose.Stack.failovers
          sr.Leopard_compose.Stack.claimed_clean
          sr.Leopard_compose.Stack.lost_records
      | None -> ());
      match outcome.Leopard_harness.Run.net with
      | Some ns ->
        Printf.printf
          "network  : %d reset(s), %d dropped, %d duplicated, %d delayed, %d \
           reordered | %d rejected, %d resend(s), %d give-up(s)\n"
          ns.Leopard_harness.Run.resets ns.Leopard_harness.Run.msg_dropped
          ns.Leopard_harness.Run.msg_duplicated
          ns.Leopard_harness.Run.msg_delayed
          ns.Leopard_harness.Run.msg_reordered
          ns.Leopard_harness.Run.rejected ns.Leopard_harness.Run.resends
          ns.Leopard_harness.Run.give_ups;
        if
          ns.Leopard_harness.Run.ambiguous <> []
          || ns.Leopard_harness.Run.dup_commit_acks > 0
        then
          Printf.printf
            "network  : %d ambiguous commit(s), %d duplicate commit ack(s) \
             absorbed idempotently\n"
            (List.length ns.Leopard_harness.Run.ambiguous)
            ns.Leopard_harness.Run.dup_commit_acks
      | None -> ()
    in
    let outcome = Leopard_harness.Run.execute config in
    let wall0 = Leopard_util.Clock.wall () in
    let verified =
      Leopard_harness.Session.of_outcome ~gc_watermark ?checkpoint il outcome
    in
    let wall = Leopard_util.Clock.wall () -. wall0 in
    let report = verified.Leopard_harness.Session.report in
    header outcome;
    if Option.is_some chaos then
      Printf.printf
        "chaos    : %d crashed client(s), %d indeterminate txn(s), %d \
         dropped, %d duplicated, %d delayed\n"
        (List.length outcome.Leopard_harness.Run.crashed_clients)
        (List.length outcome.Leopard_harness.Run.indeterminate_txns)
        outcome.Leopard_harness.Run.chaos_dropped
        outcome.Leopard_harness.Run.chaos_duplicated
        outcome.Leopard_harness.Run.chaos_delayed;
    Printf.printf
      "verifier : %d traces, %d reads checked, %d deps deduced, %.1f ms wall\n"
      report.traces report.reads_checked report.deps_deduced (wall *. 1e3);
    Printf.printf "memory   : peak %d mirrored entries (pipeline peak %d)\n"
      report.peak_live verified.Leopard_harness.Session.pipeline_peak;
    if gc_watermark > 0 then print_truncation report;
    print_string (Leopard.Report_pp.degradation_line report.degradation);
    (match record with
    | Some path ->
      Leopard_harness.Marks.record ~path outcome;
      Printf.printf "recorded : %s (%d traces)\n" path report.traces
    | None -> ());
    if infer then
      print_inference ~dbms (Leopard_harness.Run.all_traces_sorted outcome);
    finish ~show_bugs report

(* Flag values arrive raw (validated BEFORE any is-disabled
   short-circuit, so "--chaos-drop 1.5" is a usage error even though the
   chaos plane would have been off); configs are only built after every
   value passed. *)
let run workload dbms level faults clients txns seed show_bugs record check
    infer chaos_raw net_raw max_retries lenient ckpt_raw
    recovery_raw repl_raw shard_raw =
  let gc_watermark_v, check_checkpoint_v, resume_check_v, kill_after_v =
    ckpt_raw
  in
  let ( chaos_crash, chaos_drop, chaos_dup, chaos_delay, chaos_delay_ns,
        chaos_skew_ns, chaos_seed ) =
    chaos_raw
  in
  let ( (repl_followers, repl_ack, repl_hop_ns, repl_drop, repl_dup,
         repl_delay, repl_delay_ns, repl_reorder, repl_reorder_ns, repl_seed),
        ( repl_partitions, repl_lags, repl_failover_at, repl_promote,
          repl_election_ns, repl_split_brain_ns, repl_gate_ns,
          repl_retransmit_ns, repl_max_retransmits, repl_read_prob,
          repl_staleness_ns, repl_faults ) ) =
    repl_raw
  in
  let ( (shard_count_v, shard_hop_ns, shard_drop, shard_dup, shard_delay,
         shard_delay_ns, shard_reorder, shard_reorder_ns, shard_reset,
         shard_seed),
        ( shard_partitions, shard_crashes, shard_coord_crash_at,
          shard_prepare_ns, shard_retransmit_ns, shard_max_retransmits,
          shard_skew_ns, shard_faults, repl_per_shard, shard_failovers,
          shard_repl_faults, shard_repl_drop ) ) =
    shard_raw
  in
  let wal, crash_at, wal_torn, wal_lost, wal_reorder, wal_dup, wal_window,
      wal_seed =
    recovery_raw
  in
  let ( net_enabled, net_delay, net_delay_ns, net_drop, net_dup, net_reorder,
        net_reorder_ns, net_reset, net_seed, net_timeout_ns, net_max_tries,
        net_queue_cap, net_session_timeout_ns ) =
    net_raw
  in
  (let open Leopard_harness.Cli_validate in
   match
     first_error
       ([
         positive ~flag:"--clients" clients;
         positive ~flag:"--txns" txns;
         non_negative ~flag:"--show-bugs" show_bugs;
         non_negative ~flag:"--max-retries" max_retries;
         checkpointing
           {
             gc_watermark = gc_watermark_v;
             check_checkpoint = check_checkpoint_v <> None;
             resume_check = resume_check_v;
             kill_after = kill_after_v;
             check_mode = check <> None;
           };
         prob ~flag:"--chaos-crash" chaos_crash;
         prob ~flag:"--chaos-drop" chaos_drop;
         prob ~flag:"--chaos-dup" chaos_dup;
         prob ~flag:"--chaos-delay" chaos_delay;
         non_negative ~flag:"--chaos-delay-ns" chaos_delay_ns;
         non_negative ~flag:"--chaos-skew-ns" chaos_skew_ns;
         recording ~record:(Option.is_some record)
           ~chaos_rates:[ chaos_crash; chaos_drop; chaos_dup; chaos_delay ];
         crash_schedule ~flag:"--crash-at" crash_at;
         prob ~flag:"--wal-fault-torn" wal_torn;
         prob ~flag:"--wal-fault-lost-fsync" wal_lost;
         prob ~flag:"--wal-fault-reorder" wal_reorder;
         prob ~flag:"--wal-fault-dup" wal_dup;
         positive ~flag:"--wal-fault-window" wal_window;
         prob ~flag:"--net-fault-delay" net_delay;
         non_negative ~flag:"--net-fault-delay-ns" net_delay_ns;
         prob ~flag:"--net-fault-drop" net_drop;
         prob ~flag:"--net-fault-dup" net_dup;
         prob ~flag:"--net-fault-reorder" net_reorder;
         non_negative ~flag:"--net-fault-reorder-ns" net_reorder_ns;
         prob ~flag:"--net-fault-reset" net_reset;
         positive ~flag:"--net-timeout-ns" net_timeout_ns;
         positive ~flag:"--net-max-tries" net_max_tries;
         positive ~flag:"--net-queue-cap" net_queue_cap;
         positive ~flag:"--net-session-timeout-ns" net_session_timeout_ns;
         non_negative ~flag:"--repl" repl_followers;
         non_negative ~flag:"--repl-hop-ns" repl_hop_ns;
         prob ~flag:"--repl-drop" repl_drop;
         prob ~flag:"--repl-dup" repl_dup;
         prob ~flag:"--repl-delay" repl_delay;
         non_negative ~flag:"--repl-delay-ns" repl_delay_ns;
         prob ~flag:"--repl-reorder" repl_reorder;
         non_negative ~flag:"--repl-reorder-ns" repl_reorder_ns;
         crash_schedule ~flag:"--repl-failover-at" repl_failover_at;
         positive ~flag:"--repl-election-ns" repl_election_ns;
         positive ~flag:"--repl-split-brain-ns" repl_split_brain_ns;
         positive ~flag:"--repl-gate-timeout-ns" repl_gate_ns;
         positive ~flag:"--repl-retransmit-ns" repl_retransmit_ns;
         positive ~flag:"--repl-max-retransmits" repl_max_retransmits;
         prob ~flag:"--repl-read-prob" repl_read_prob;
         positive ~flag:"--repl-staleness-ns" repl_staleness_ns;
         shard_count ~flag:"--shards" shard_count_v;
         non_negative ~flag:"--shard-hop-ns" shard_hop_ns;
         prob ~flag:"--shard-drop" shard_drop;
         prob ~flag:"--shard-dup" shard_dup;
         prob ~flag:"--shard-delay" shard_delay;
         non_negative ~flag:"--shard-delay-ns" shard_delay_ns;
         prob ~flag:"--shard-reorder" shard_reorder;
         non_negative ~flag:"--shard-reorder-ns" shard_reorder_ns;
         prob ~flag:"--shard-reset" shard_reset;
         crash_schedule ~flag:"--shard-coord-crash-at" shard_coord_crash_at;
         positive ~flag:"--shard-prepare-timeout-ns" shard_prepare_ns;
         positive ~flag:"--shard-retransmit-ns" shard_retransmit_ns;
         non_negative ~flag:"--shard-max-retransmits" shard_max_retransmits;
         non_negative ~flag:"--shard-skew-bound-ns" shard_skew_ns;
         non_negative ~flag:"--repl-per-shard" repl_per_shard;
         prob ~flag:"--shard-repl-drop"
           (Option.value ~default:0.0 shard_repl_drop);
       ]
       @ List.map (window ~flag:"--repl-partition") repl_partitions
       @ List.map
           (fun (_f, from_ns, until_ns) ->
             window ~flag:"--repl-lag" (from_ns, until_ns))
           repl_lags
       @ List.map
           (fun (_s, from_ns, until_ns) ->
             window ~flag:"--shard-partition" (from_ns, until_ns))
           shard_partitions
       @ List.map
           (fun (_s, at) -> positive ~flag:"--shard-crash" at)
           shard_crashes
       @ List.map
           (fun (_s, at) -> positive ~flag:"--shard-failover-at" at)
           shard_failovers)
   with
   | Some e ->
     prerr_endline (error_to_string e);
     exit 2
   | None -> ());
  match check with
  | Some path ->
    check_file ~dbms ~level ~show_bugs ~infer ~lenient
      ~gc_watermark:gc_watermark_v ~checkpoint:check_checkpoint_v
      ~resume:resume_check_v ~kill_after:kill_after_v path
  | None ->
    let chaos =
      let cfg =
        Leopard_harness.Chaos.config ~seed:chaos_seed ~crash_prob:chaos_crash
          ~drop_prob:chaos_drop ~dup_prob:chaos_dup ~delay_prob:chaos_delay
          ~max_delay_ns:chaos_delay_ns ~clock_skew_ns:chaos_skew_ns ()
      in
      if Leopard_harness.Chaos.is_disabled cfg then None else Some cfg
    in
    let net =
      let fault =
        Leopard_net.Faulty_link.config ~seed:net_seed ~delay_prob:net_delay
          ~max_delay_ns:net_delay_ns ~drop_prob:net_drop ~dup_prob:net_dup
          ~reorder_prob:net_reorder ~reorder_window_ns:net_reorder_ns
          ~reset_prob:net_reset ()
      in
      (* any nonzero fault rate implies the wire, like the chaos plane;
         --net alone gives the zero-fault (byte-identical) wire *)
      if net_enabled || not (Leopard_net.Faulty_link.is_disabled fault) then
        Some
          (Leopard_harness.Run.net_config ~fault
             ~client:
               (Leopard_net.Client.config ~request_timeout_ns:net_timeout_ns
                  ~max_tries:net_max_tries ())
             ~queue_capacity:net_queue_cap
             ~session_timeout_ns:net_session_timeout_ns ())
      else None
    in
    let wal_faults =
      let cfg =
        Minidb.Wal.fault_cfg ~seed:wal_seed ~torn_tail_prob:wal_torn
          ~lost_fsync_prob:wal_lost ~lost_fsync_window:wal_window
          ~reordered_flush_prob:wal_reorder ~dup_replay_prob:wal_dup ()
      in
      if Minidb.Wal.faults_disabled cfg then None else Some cfg
    in
    let repl =
      if repl_followers = 0 then None
      else begin
        let ack_mode =
          match Leopard_replication.Cluster.ack_mode_of_string repl_ack with
          | Some m -> m
          | None ->
            prerr_endline
              ("invalid --repl-ack: " ^ repl_ack ^ " (want sync or async)");
            exit 2
        in
        let repl_faults =
          List.map
            (fun name ->
              match Leopard_replication.Repl_fault.of_string name with
              | Some f -> f
              | None ->
                prerr_endline ("unknown replication fault: " ^ name);
                exit 2)
            repl_faults
        in
        let partitions =
          List.map
            (fun (from_ns, until_ns) ->
              { Leopard_replication.Cluster.follower = -1; from_ns; until_ns })
            repl_partitions
          @ List.map
              (fun (follower, from_ns, until_ns) ->
                if follower < 0 || follower >= repl_followers then begin
                  Printf.eprintf
                    "invalid --repl-lag: follower %d out of range [0, %d)\n"
                    follower repl_followers;
                  exit 2
                end;
                { Leopard_replication.Cluster.follower; from_ns; until_ns })
              repl_lags
        in
        let cluster =
          Leopard_replication.Cluster.config ~followers:repl_followers
            ~ack_mode ~hop_ns:repl_hop_ns
            ~link:
              (Leopard_net.Faulty_link.config ~seed:repl_seed
                 ~delay_prob:repl_delay ~max_delay_ns:repl_delay_ns
                 ~drop_prob:repl_drop ~dup_prob:repl_dup
                 ~reorder_prob:repl_reorder ~reorder_window_ns:repl_reorder_ns
                 ())
            ~partitions ~gate_timeout_ns:repl_gate_ns
            ~retransmit_ns:repl_retransmit_ns
            ~max_retransmits:repl_max_retransmits
            ~follower_read_prob:repl_read_prob
            ~staleness_bound_ns:repl_staleness_ns ~faults:repl_faults
            ~seed:repl_seed ()
        in
        Some
          (Leopard_harness.Run.repl_config ~failover_at:repl_failover_at
             ~promote_on_partition:repl_promote
             ~election_timeout_ns:repl_election_ns
             ~split_brain_ns:repl_split_brain_ns cluster)
      end
    in
    (* plane-composition matrix: which fault planes may run together
       (and which flag the conflict blames) lives in [Cli_validate].
       Checked before the shard config is built — the constructors
       assert the same invariants, and a violated composition must be a
       one-line usage error, not an assertion failure. *)
    (match
       Leopard_harness.Cli_validate.composition
         {
           Leopard_harness.Cli_validate.net = net <> None;
           repl = repl <> None;
           shards = shard_count_v <> 0;
           repl_per_shard;
           shard_failovers = shard_failovers <> [];
           shard_repl_drop = shard_repl_drop <> None;
         }
     with
    | Some e ->
      prerr_endline (Leopard_harness.Cli_validate.error_to_string e);
      exit 2
    | None -> ());
    let shard =
      if shard_count_v = 0 then None
      else begin
        let faults =
          List.map
            (fun name ->
              match Leopard_shard.Shard_fault.of_string name with
              | Some f -> f
              | None ->
                prerr_endline ("unknown shard fault: " ^ name);
                exit 2)
            shard_faults
        in
        let partitions =
          List.map
            (fun (s, from_ns, until_ns) ->
              if s < -1 || s >= shard_count_v then begin
                Printf.eprintf
                  "invalid --shard-partition: shard %d out of range [0, %d) \
                   (-1 for all)\n"
                  s shard_count_v;
                exit 2
              end;
              { Leopard_shard.Group.shard = s; from_ns; until_ns })
            shard_partitions
        in
        let part_crash_at =
          List.map
            (fun (s, at) ->
              if s < 0 || s >= shard_count_v then begin
                Printf.eprintf
                  "invalid --shard-crash: shard %d out of range [0, %d)\n" s
                  shard_count_v;
                exit 2
              end;
              (at, s))
            shard_crashes
        in
        let shard_failover_at =
          List.map
            (fun (s, at) ->
              if s < 0 || s >= shard_count_v then begin
                Printf.eprintf
                  "invalid --shard-failover-at: shard %d out of range \
                   [0, %d)\n"
                  s shard_count_v;
                exit 2
              end;
              (at, s))
            shard_failovers
        in
        let link =
          Leopard_net.Faulty_link.config ~seed:shard_seed
            ~delay_prob:shard_delay ~max_delay_ns:shard_delay_ns
            ~drop_prob:shard_drop ~dup_prob:shard_dup
            ~reorder_prob:shard_reorder ~reorder_window_ns:shard_reorder_ns
            ~reset_prob:shard_reset ()
        in
        let group =
          Leopard_shard.Group.config ~shards:shard_count_v
            ~hop_ns:shard_hop_ns ~link ~partitions
            ~prepare_timeout_ns:shard_prepare_ns
            ~retransmit_ns:shard_retransmit_ns
            ~max_retransmits:shard_max_retransmits
            ~skew_bound_ns:shard_skew_ns ~faults ?wal_faults ()
        in
        let stack =
          if repl_per_shard = 0 then None
          else begin
            let stack_faults =
              List.map
                (fun name ->
                  match Leopard_replication.Repl_fault.of_string name with
                  | Some f -> f
                  | None ->
                    prerr_endline ("unknown replication fault: " ^ name);
                    exit 2)
                shard_repl_faults
            in
            (* the per-shard replica sets reuse the shard wire's fault
               rates and hop unless --shard-repl-drop decouples them;
               Stack derives a distinct link seed per shard so no
               cluster shares a stream with the protocol *)
            let stack_link =
              match shard_repl_drop with
              | None -> link
              | Some drop_prob ->
                Leopard_net.Faulty_link.config ~seed:shard_seed
                  ~delay_prob:shard_delay ~max_delay_ns:shard_delay_ns
                  ~drop_prob ~dup_prob:shard_dup ~reorder_prob:shard_reorder
                  ~reorder_window_ns:shard_reorder_ns
                  ~reset_prob:shard_reset ()
            in
            Some
              (Leopard_compose.Stack.config ~followers:repl_per_shard
                 ~hop_ns:shard_hop_ns ~link:stack_link
                 ~retransmit_ns:shard_retransmit_ns
                 ~max_retransmits:shard_max_retransmits ~faults:stack_faults
                 ~seed:shard_seed ())
          end
        in
        Some
          (Leopard_harness.Run.shard_config
             ~coord_crash_at:shard_coord_crash_at ~part_crash_at ?stack
             ~shard_failover_at group)
      end
    in
    run_workload_mode workload dbms level faults clients txns seed show_bugs
      record infer chaos net max_retries
      ~gc_watermark:gc_watermark_v ~checkpoint:check_checkpoint_v
      (wal, crash_at, wal_faults)
      repl shard

open Cmdliner

let workload =
  Arg.(
    value & opt string "blindw-rw"
    & info [ "w"; "workload" ] ~docv:"NAME"
        ~doc:
          "Workload: ycsb, ycsb+t, tatp, blindw-w, blindw-rw, blindw-rw+, \
           smallbank, tpcc.")

let dbms =
  Arg.(
    value & opt string "postgresql"
    & info [ "d"; "dbms" ] ~docv:"PROFILE"
        ~doc:
          "DBMS profile under test: postgresql, innodb, tidb, cockroachdb, \
           sqlite, foundationdb, oracle.")

let level =
  Arg.(
    value & opt string "SR"
    & info [ "i"; "isolation" ] ~docv:"LEVEL"
        ~doc:"Claimed isolation level: RC, RR, SI or SR.")

let faults =
  Arg.(
    value & opt_all string []
    & info [ "fault" ] ~docv:"FAULT"
        ~doc:"Inject a named engine fault (repeatable); see DESIGN.md (4).")

let clients =
  Arg.(value & opt int 16 & info [ "clients" ] ~doc:"Concurrent clients.")

let txns =
  Arg.(value & opt int 2000 & info [ "n"; "txns" ] ~doc:"Transactions to run.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let show_bugs =
  Arg.(
    value & opt int 5 & info [ "show-bugs" ] ~doc:"Violations to print on FAIL.")

let record =
  Arg.(
    value
    & opt (some string) None
    & info [ "record" ] ~docv:"FILE"
        ~doc:"Save the run's traces to $(docv) (leopard-trace v1 format).")

let check =
  Arg.(
    value
    & opt (some string) None
    & info [ "check" ] ~docv:"FILE"
        ~doc:
          "Skip running a workload: verify a previously recorded trace file \
           against the claimed --dbms/--isolation profile.")

let infer =
  Arg.(
    value & flag
    & info [ "infer" ]
        ~doc:
          "Additionally report, for every isolation level the --dbms \
           offers, whether the history supports that claim (level \
           inference).")

let gc_watermark =
  Arg.(
    value & opt int 0
    & info [ "gc-watermark" ] ~docv:"N"
        ~doc:
          "Bounded-memory verification: truncate the checker's mirrored \
           state every N verified traces at the stream watermark, so \
           memory stays proportional to the active window instead of the \
           whole history.  Verdicts are unchanged.  0 disables (the \
           default, full-history mode).")

let check_checkpoint =
  Arg.(
    value & opt (some string) None
    & info [ "check-checkpoint" ] ~docv:"FILE"
        ~doc:
          "Write a crash-safe checker snapshot to $(docv) after every \
           truncation (requires --gc-watermark).  A verification killed \
           mid-stream resumes from the last complete snapshot with \
           --resume-check instead of restarting from trace zero.")

let resume_check =
  Arg.(
    value & flag
    & info [ "resume-check" ]
        ~doc:
          "With --check and --check-checkpoint: restore the checker from \
           the newest valid snapshot frame and continue from its trace \
           cursor.  A missing, foreign or damaged checkpoint degrades to \
           a fresh full pass with a warning — the verdict is the same \
           either way.")

let check_kill_after =
  Arg.(
    value & opt int 0
    & info [ "check-kill-after" ] ~docv:"N"
        ~doc:
          "Crash drill for the resume path: SIGKILL this process (no \
           cleanup, no flush) immediately after verifying trace N, as a \
           crashed machine would.  Pair with --resume-check on the next \
           invocation to prove the verdict survives.  0 disables.")

let chaos_crash =
  Arg.(
    value & opt float 0.0
    & info [ "chaos-crash" ] ~docv:"PROB"
        ~doc:"Per-operation probability that a client crashes.")

let chaos_drop =
  Arg.(
    value & opt float 0.0
    & info [ "chaos-drop" ] ~docv:"PROB"
        ~doc:"Per-trace probability of delivery loss on the collection path.")

let chaos_dup =
  Arg.(
    value & opt float 0.0
    & info [ "chaos-dup" ] ~docv:"PROB"
        ~doc:"Per-trace probability of duplicate delivery.")

let chaos_delay =
  Arg.(
    value & opt float 0.0
    & info [ "chaos-delay" ] ~docv:"PROB"
        ~doc:"Per-trace probability of delayed delivery.")

let chaos_delay_ns =
  Arg.(
    value & opt int 500_000
    & info [ "chaos-delay-ns" ] ~docv:"NS"
        ~doc:"Upper bound on injected delivery delay (simulated ns).")

let chaos_skew_ns =
  Arg.(
    value & opt int 0
    & info [ "chaos-skew-ns" ] ~docv:"NS"
        ~doc:"Per-client clock skew magnitude bound (simulated ns).")

let chaos_seed =
  Arg.(
    value & opt int 1
    & info [ "chaos-seed" ] ~docv:"SEED"
        ~doc:"Seed of the chaos decision streams (independent of --seed).")

(* raw values only — validation and construction happen in [run], after
   every flag can be checked in one pass *)
let chaos_term =
  let make crash drop dup delay delay_ns skew_ns cseed =
    (crash, drop, dup, delay, delay_ns, skew_ns, cseed)
  in
  Cmdliner.Term.(
    const make $ chaos_crash $ chaos_drop $ chaos_dup $ chaos_delay
    $ chaos_delay_ns $ chaos_skew_ns $ chaos_seed)

let net_flag =
  Arg.(
    value & flag
    & info [ "net" ]
        ~doc:
          "Run the workload through the wire layer: requests travel as \
           serialized messages through a seeded faulty link to per-session \
           server queues, with timeouts, bounded retries and idempotent \
           commit tokens.  Implied by any nonzero --net-fault-* rate; with \
           all rates zero the traces are byte-identical to the in-process \
           path for the same --seed.")

let net_fault_delay =
  Arg.(
    value & opt float 0.0
    & info [ "net-fault-delay" ] ~docv:"PROB"
        ~doc:"Per-message probability of extra wire latency.")

let net_fault_delay_ns =
  Arg.(
    value & opt int 400_000
    & info [ "net-fault-delay-ns" ] ~docv:"NS"
        ~doc:"Upper bound on injected extra wire latency (simulated ns).")

let net_fault_drop =
  Arg.(
    value & opt float 0.0
    & info [ "net-fault-drop" ] ~docv:"PROB"
        ~doc:
          "Per-message probability of silent loss (the sender only learns \
           via timeout).")

let net_fault_dup =
  Arg.(
    value & opt float 0.0
    & info [ "net-fault-dup" ] ~docv:"PROB"
        ~doc:
          "Per-message probability of duplicate delivery (retried COMMITs \
           are absorbed by idempotent commit tokens).")

let net_fault_reorder =
  Arg.(
    value & opt float 0.0
    & info [ "net-fault-reorder" ] ~docv:"PROB"
        ~doc:
          "Per-message probability of delivery at a random point inside the \
           reordering window.")

let net_fault_reorder_ns =
  Arg.(
    value & opt int 200_000
    & info [ "net-fault-reorder-ns" ] ~docv:"NS"
        ~doc:"Size of the reordering window (simulated ns).")

let net_fault_reset =
  Arg.(
    value & opt float 0.0
    & info [ "net-fault-reset" ] ~docv:"PROB"
        ~doc:
          "Per-message probability of a connection reset: the message is \
           lost and the sender finds out (a reset COMMIT acknowledgement is \
           an ambiguous commit).")

let net_fault_seed =
  Arg.(
    value & opt int 1
    & info [ "net-fault-seed" ] ~docv:"SEED"
        ~doc:
          "Seed of the wire fault streams (independent of --seed, \
           --chaos-seed and --wal-fault-seed).")

let net_timeout_ns =
  Arg.(
    value & opt int 2_000_000
    & info [ "net-timeout-ns" ] ~docv:"NS"
        ~doc:"Per-attempt request timeout before a retransmission.")

let net_max_tries =
  Arg.(
    value & opt int 3
    & info [ "net-max-tries" ] ~docv:"N"
        ~doc:
          "Send attempts per request before the client gives up (a given-up \
           COMMIT is recorded as an ambiguous outcome).")

let net_queue_cap =
  Arg.(
    value & opt int 64
    & info [ "net-queue-cap" ] ~docv:"N"
        ~doc:
          "Per-session server queue bound; requests beyond it are load-shed \
           with a definite rejection.")

let net_session_timeout_ns =
  Arg.(
    value & opt int 1_000_000
    & info [ "net-session-timeout-ns" ] ~docv:"NS"
        ~doc:
          "How long the server keeps an orphaned transaction (client gave \
           up) before reaping it with an abort.")

let net_term =
  let make enabled delay delay_ns drop dup reorder reorder_ns reset nseed
      timeout_ns max_tries queue_cap session_timeout_ns =
    ( enabled, delay, delay_ns, drop, dup, reorder, reorder_ns, reset, nseed,
      timeout_ns, max_tries, queue_cap, session_timeout_ns )
  in
  Cmdliner.Term.(
    const make $ net_flag $ net_fault_delay $ net_fault_delay_ns
    $ net_fault_drop $ net_fault_dup $ net_fault_reorder
    $ net_fault_reorder_ns $ net_fault_reset $ net_fault_seed $ net_timeout_ns
    $ net_max_tries $ net_queue_cap $ net_session_timeout_ns)

let max_retries =
  Arg.(
    value & opt int 0
    & info [ "max-retries" ] ~docv:"N"
        ~doc:
          "Re-run a transaction program up to $(docv) times when the engine \
           aborts it (deadlock victim, first-updater-wins, certifier), with \
           bounded exponential backoff.")

let wal_flag =
  Arg.(
    value & flag
    & info [ "wal" ]
        ~doc:
          "Run the engine with the write-ahead log enabled (implied by \
           --crash-at and by any --wal-fault-* probability).")

let crash_at =
  Arg.(
    value & opt_all int []
    & info [ "crash-at" ] ~docv:"NS"
        ~doc:
          "Crash the server at simulated instant $(docv) and recover from \
           the write-ahead log (repeatable: each instant is one \
           crash-recovery epoch).  In-flight transactions are aborted with \
           server-crash; clients retry under --max-retries.")

let wal_fault_torn =
  Arg.(
    value & opt float 0.0
    & info [ "wal-fault-torn" ] ~docv:"PROB"
        ~doc:
          "Per-crash probability that the tail WAL record is torn: a \
           committed transaction recovers with only part of its write set.")

let wal_fault_lost =
  Arg.(
    value & opt float 0.0
    & info [ "wal-fault-lost-fsync" ] ~docv:"PROB"
        ~doc:
          "Per-crash probability that an fsync window of the newest commit \
           records is lost: those transactions vanish on recovery.")

let wal_fault_reorder =
  Arg.(
    value & opt float 0.0
    & info [ "wal-fault-reorder" ] ~docv:"PROB"
        ~doc:
          "Per-crash probability that a reordered flush persisted newer \
           records but lost an older one: a mid-log commit vanishes while \
           later commits survive.")

let wal_fault_dup =
  Arg.(
    value & opt float 0.0
    & info [ "wal-fault-dup" ] ~docv:"PROB"
        ~doc:
          "Per-crash probability that recovery replays a superseded commit \
           record twice, resurrecting an overwritten version as newest \
           (a recovered lost update).")

let wal_fault_window =
  Arg.(
    value & opt int 3
    & info [ "wal-fault-window" ] ~docv:"N"
        ~doc:"Size bound of the lost-fsync / reordered-flush window.")

let wal_fault_seed =
  Arg.(
    value & opt int 0
    & info [ "wal-fault-seed" ] ~docv:"SEED"
        ~doc:
          "Seed of the durability-fault stream (independent of --seed and \
           --chaos-seed).")

let recovery_term =
  let make wal crash_at torn lost reorder dup window fseed =
    (wal, crash_at, torn, lost, reorder, dup, window, fseed)
  in
  Cmdliner.Term.(
    const make $ wal_flag $ crash_at $ wal_fault_torn $ wal_fault_lost
    $ wal_fault_reorder $ wal_fault_dup $ wal_fault_window $ wal_fault_seed)

(* FROM:UNTIL simulated-ns window, e.g. --repl-partition 2000000:4000000 *)
let window_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ a; b ] -> (
      try Ok (int_of_string a, int_of_string b)
      with Failure _ -> Error (`Msg ("bad window " ^ s)))
    | _ -> Error (`Msg ("expected FROM:UNTIL, got " ^ s))
  in
  let print ppf (a, b) = Format.fprintf ppf "%d:%d" a b in
  Arg.conv (parse, print)

(* FOLLOWER:FROM:UNTIL, e.g. --repl-lag 0:1000000:3000000 *)
let lag_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ f; a; b ] -> (
      try Ok (int_of_string f, int_of_string a, int_of_string b)
      with Failure _ -> Error (`Msg ("bad lag window " ^ s)))
    | _ -> Error (`Msg ("expected FOLLOWER:FROM:UNTIL, got " ^ s))
  in
  let print ppf (f, a, b) = Format.fprintf ppf "%d:%d:%d" f a b in
  Arg.conv (parse, print)

let repl_followers =
  Arg.(
    value & opt int 0
    & info [ "repl" ] ~docv:"N"
        ~doc:
          "Replicate the engine to $(docv) followers over the replication \
           wire (0 disables replication).  With no --repl-* faults, hops, \
           partitions or follower reads, the run is byte-identical to the \
           single-node path for the same --seed.")

let repl_ack =
  Arg.(
    value & opt string "sync"
    & info [ "repl-ack" ] ~docv:"MODE"
        ~doc:
          "Replication acknowledgement mode: $(b,sync) reports a commit \
           only once every live follower has it; $(b,async) reports \
           immediately and lets replication catch up (acked commits can be \
           lost at failover).")

let repl_hop_ns =
  Arg.(
    value & opt int 0
    & info [ "repl-hop-ns" ] ~docv:"NS"
        ~doc:"One-way replication hop latency (simulated ns).")

let repl_drop =
  Arg.(
    value & opt float 0.0
    & info [ "repl-drop" ] ~docv:"PROB"
        ~doc:
          "Per-message probability of silent loss on the replication wire \
           (recovered by capped retransmission).")

let repl_dup =
  Arg.(
    value & opt float 0.0
    & info [ "repl-dup" ] ~docv:"PROB"
        ~doc:
          "Per-message probability of duplicate delivery (absorbed by \
           in-order apply and cumulative acks).")

let repl_delay =
  Arg.(
    value & opt float 0.0
    & info [ "repl-delay" ] ~docv:"PROB"
        ~doc:"Per-message probability of extra replication latency.")

let repl_delay_ns =
  Arg.(
    value & opt int 400_000
    & info [ "repl-delay-ns" ] ~docv:"NS"
        ~doc:"Upper bound on injected replication delay (simulated ns).")

let repl_reorder =
  Arg.(
    value & opt float 0.0
    & info [ "repl-reorder" ] ~docv:"PROB"
        ~doc:
          "Per-message probability of delivery at a random point inside the \
           reordering window (followers reject gaps and re-ack).")

let repl_reorder_ns =
  Arg.(
    value & opt int 200_000
    & info [ "repl-reorder-ns" ] ~docv:"NS"
        ~doc:"Size of the replication reordering window (simulated ns).")

let repl_seed =
  Arg.(
    value & opt int 1
    & info [ "repl-seed" ] ~docv:"SEED"
        ~doc:
          "Seed of the replication link fault and follower-read-routing \
           streams (independent of --seed).")

let repl_partition =
  Arg.(
    value & opt_all window_conv []
    & info [ "repl-partition" ] ~docv:"FROM:UNTIL"
        ~doc:
          "Cut the primary off from every follower during the half-open \
           simulated-ns window (repeatable).  Sync commits inside the \
           window time out as ambiguous; with \
           --repl-promote-on-partition the window also triggers an \
           election.")

let repl_lag =
  Arg.(
    value & opt_all lag_conv []
    & info [ "repl-lag" ] ~docv:"FOLLOWER:FROM:UNTIL"
        ~doc:
          "Cut a single follower off during the window (repeatable) — it \
           falls behind and re-converges via retransmission, or loses the \
           election at failover.")

let repl_failover_at =
  Arg.(
    value & opt_all int []
    & info [ "repl-failover-at" ] ~docv:"NS"
        ~doc:
          "Promote the most caught-up live follower at simulated instant \
           $(docv) (repeatable).  Commits beyond the survivor prefix are \
           lost with the old timeline and reported as such — unless a \
           planted --repl-fault hides them.")

let repl_promote_on_partition =
  Arg.(
    value & flag
    & info [ "repl-promote-on-partition" ]
        ~doc:
          "Additionally derive one promotion per full --repl-partition \
           window, fired --repl-election-ns after the window opens.")

let repl_election_ns =
  Arg.(
    value & opt int 300_000
    & info [ "repl-election-ns" ] ~docv:"NS"
        ~doc:
          "Election timeout: how long after a partition opens the derived \
           promotion fires (with --repl-promote-on-partition).")

let repl_split_brain_ns =
  Arg.(
    value & opt int 300_000
    & info [ "repl-split-brain-ns" ] ~docv:"NS"
        ~doc:
          "With --repl-fault split-brain: how long the deposed primary \
           keeps serving unfenced after a promotion.")

let repl_gate_timeout_ns =
  Arg.(
    value & opt int 2_000_000
    & info [ "repl-gate-timeout-ns" ] ~docv:"NS"
        ~doc:
          "Sync mode: how long a commit waits for the replication quorum \
           before being reported as ambiguous.")

let repl_retransmit_ns =
  Arg.(
    value & opt int 500_000
    & info [ "repl-retransmit-ns" ] ~docv:"NS"
        ~doc:"Primary retransmission interval for unacked appends.")

let repl_max_retransmits =
  Arg.(
    value & opt int 8
    & info [ "repl-max-retransmits" ] ~docv:"N"
        ~doc:"Retransmission cap per append (keeps the run finite).")

let repl_read_prob =
  Arg.(
    value & opt float 0.0
    & info [ "repl-read-prob" ] ~docv:"PROB"
        ~doc:
          "Probability that a routable snapshot read is served by a \
           replica whose applied horizon covers the snapshot (values \
           byte-identical to a primary read).")

let repl_staleness_ns =
  Arg.(
    value & opt int 1_000_000
    & info [ "repl-staleness-ns" ] ~docv:"NS"
        ~doc:
          "With --repl-fault stale-follower-read: how far behind the \
           snapshot a replica may serve from.")

let repl_fault =
  Arg.(
    value & opt_all string []
    & info [ "repl-fault" ] ~docv:"FAULT"
        ~doc:
          "Plant a named replication fault (repeatable): promote-lagging, \
           lose-acked-window, stale-follower-read, split-brain.  These \
           make the cluster lie (definite violations), unlike the \
           environmental --repl-drop/--repl-partition faults which only \
           degrade the verdict honestly.")

let repl_term =
  let make_link followers ack hop_ns drop dup delay delay_ns reorder
      reorder_ns rseed =
    ( followers, ack, hop_ns, drop, dup, delay, delay_ns, reorder, reorder_ns,
      rseed )
  in
  let make_ctl partitions lags failover_at promote election_ns split_brain_ns
      gate_ns retransmit_ns max_retransmits read_prob staleness_ns rfaults =
    ( partitions, lags, failover_at, promote, election_ns, split_brain_ns,
      gate_ns, retransmit_ns, max_retransmits, read_prob, staleness_ns,
      rfaults )
  in
  let pair a b = (a, b) in
  Cmdliner.Term.(
    const pair
    $ (const make_link $ repl_followers $ repl_ack $ repl_hop_ns $ repl_drop
       $ repl_dup $ repl_delay $ repl_delay_ns $ repl_reorder $ repl_reorder_ns
       $ repl_seed)
    $ (const make_ctl $ repl_partition $ repl_lag $ repl_failover_at
       $ repl_promote_on_partition $ repl_election_ns $ repl_split_brain_ns
       $ repl_gate_timeout_ns $ repl_retransmit_ns $ repl_max_retransmits
       $ repl_read_prob $ repl_staleness_ns $ repl_fault))

(* SHARD:AT, e.g. --shard-crash 1:2000000 *)
let shard_crash_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ a; b ] -> (
      try Ok (int_of_string a, int_of_string b)
      with Failure _ -> Error (`Msg ("bad shard crash " ^ s)))
    | _ -> Error (`Msg ("expected SHARD:AT, got " ^ s))
  in
  let print ppf (a, b) = Format.fprintf ppf "%d:%d" a b in
  Arg.conv (parse, print)

let shards_count =
  Arg.(
    value & opt int 0
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Hash-range partition the key space across $(docv) shard groups \
           (0 disables sharding; 1 is rejected).  Cross-shard writes \
           commit through a 2PC coordinator whose protocol messages ride \
           the shard wire; single-shard transactions take a fast path.  \
           With no --shard-* faults, hops or partitions the run is \
           byte-identical to the unsharded path for the same --seed.")

let shard_hop_ns =
  Arg.(
    value & opt int 0
    & info [ "shard-hop-ns" ] ~docv:"NS"
        ~doc:"One-way coordinator-participant hop latency (simulated ns).")

let shard_drop =
  Arg.(
    value & opt float 0.0
    & info [ "shard-drop" ] ~docv:"PROB"
        ~doc:
          "Per-message probability of silent loss on the commit-protocol \
           wire (PREPAREs time the round out into a definite abort; \
           decisions are retransmitted).")

let shard_dup =
  Arg.(
    value & opt float 0.0
    & info [ "shard-dup" ] ~docv:"PROB"
        ~doc:
          "Per-message probability of duplicate delivery (absorbed by \
           in-order apply and cumulative acks).")

let shard_delay =
  Arg.(
    value & opt float 0.0
    & info [ "shard-delay" ] ~docv:"PROB"
        ~doc:"Per-message probability of extra commit-protocol latency.")

let shard_delay_ns =
  Arg.(
    value & opt int 400_000
    & info [ "shard-delay-ns" ] ~docv:"NS"
        ~doc:"Upper bound on injected commit-protocol delay (simulated ns).")

let shard_reorder =
  Arg.(
    value & opt float 0.0
    & info [ "shard-reorder" ] ~docv:"PROB"
        ~doc:
          "Per-message probability of delivery at a random point inside \
           the reordering window (participants reject decision-log gaps \
           and re-ack).")

let shard_reorder_ns =
  Arg.(
    value & opt int 200_000
    & info [ "shard-reorder-ns" ] ~docv:"NS"
        ~doc:"Size of the commit-protocol reordering window (simulated ns).")

let shard_reset =
  Arg.(
    value & opt float 0.0
    & info [ "shard-reset" ] ~docv:"PROB"
        ~doc:
          "Per-message probability of a connection reset on the \
           commit-protocol wire (the sender finds out and retransmits).")

let shard_seed =
  Arg.(
    value & opt int 1
    & info [ "shard-seed" ] ~docv:"SEED"
        ~doc:
          "Seed of the commit-protocol link fault streams (independent of \
           --seed).")

let shard_partition =
  Arg.(
    value & opt_all lag_conv []
    & info [ "shard-partition" ] ~docv:"SHARD:FROM:UNTIL"
        ~doc:
          "Cut one shard (or every shard, with SHARD = -1) off from the \
           coordinator during the half-open simulated-ns window \
           (repeatable).  Prepares inside the window time the round out \
           into a definite abort; decided commits resume shipping when \
           the window closes.")

let shard_crash =
  Arg.(
    value & opt_all shard_crash_conv []
    & info [ "shard-crash" ] ~docv:"SHARD:AT"
        ~doc:
          "Crash and restart participant SHARD at simulated instant AT \
           (repeatable): its volatile prepared state dies and its store \
           rebuilds from the durable per-shard decision log.")

let shard_coord_crash_at =
  Arg.(
    value & opt_all int []
    & info [ "shard-coord-crash-at" ] ~docv:"NS"
        ~doc:
          "Crash the 2PC coordinator at simulated instant $(docv) \
           (repeatable).  Undecided rounds are orphaned — presumed abort, \
           reported as coordinator-ambiguous commits (the verdict \
           degrades to INCONCLUSIVE, never a false violation); decided \
           rounds resume from the durable decision logs.")

let shard_prepare_timeout_ns =
  Arg.(
    value & opt int 2_000_000
    & info [ "shard-prepare-timeout-ns" ] ~docv:"NS"
        ~doc:
          "How long the coordinator waits for every participant's vote \
           before deciding abort.")

let shard_retransmit_ns =
  Arg.(
    value & opt int 500_000
    & info [ "shard-retransmit-ns" ] ~docv:"NS"
        ~doc:"Coordinator retransmission interval for unacked decisions.")

let shard_max_retransmits =
  Arg.(
    value & opt int 8
    & info [ "shard-max-retransmits" ] ~docv:"N"
        ~doc:"Retransmission cap per decision (keeps the run finite).")

let shard_skew_bound_ns =
  Arg.(
    value & opt int 1_000_000
    & info [ "shard-skew-bound-ns" ] ~docv:"NS"
        ~doc:
          "With --shard-fault snapshot-skew or stale-prepared-read: how \
           far behind the snapshot a lying shard may serve from.")

let shard_fault =
  Arg.(
    value & opt_all string []
    & info [ "shard-fault" ] ~docv:"FAULT"
        ~doc:
          "Plant a named sharding fault (repeatable): fractured-commit, \
           commit-after-abort, snapshot-skew, stale-prepared-read.  These \
           make the commit protocol lie (definite violations), unlike the \
           environmental --shard-drop/--shard-partition faults and \
           --shard-coord-crash-at crashes, which only degrade the verdict \
           honestly.")

let repl_per_shard =
  Arg.(
    value & opt int 0
    & info [ "repl-per-shard" ] ~docv:"M"
        ~doc:
          "Run every shard group as a primary/follower replica set with \
           $(docv) replicas (0 disables; requires --shards).  Each \
           shard's committed decision feed ships to its own cluster over \
           a derived faulty link.  Honest failovers are lossless at the \
           group level — the coordinator's decision log backfills the \
           truncated suffix — so only the planted --shard-repl-fault \
           lies can change the verdict.")

let shard_failover_at =
  Arg.(
    value & opt_all shard_crash_conv []
    & info [ "shard-failover-at" ] ~docv:"SHARD:AT"
        ~doc:
          "Fail shard SHARD's primary over to a replica at simulated \
           instant AT (repeatable; requires --repl-per-shard).  The \
           shard's store rebuilds from the survivor prefix its replica \
           set kept and the coordinator re-ships the rest.")

let shard_repl_fault =
  Arg.(
    value & opt_all string []
    & info [ "shard-repl-fault" ] ~docv:"FAULT"
        ~doc:
          "Plant a named replication fault inside every shard's replica \
           set (repeatable): promote-lagging or lose-acked-window make a \
           failed-over shard claim a clean rebuild over a shorter one, \
           silently losing committed cross-shard work — a definite CR \
           violation on the global trace.")

let shard_repl_drop =
  Arg.(
    value & opt (some float) None
    & info [ "shard-repl-drop" ] ~docv:"P"
        ~doc:
          "Override the drop probability of the per-shard replication \
           links (requires --repl-per-shard).  By default the replica \
           sets reuse the shard wire's fault rates; this decouples them, \
           so a healthy 2PC wire can feed clusters whose followers lag \
           arbitrarily — the shape that makes the claim-clean \
           --shard-repl-fault lies bite.")

let shard_term =
  let make_link shards hop_ns drop dup delay delay_ns reorder reorder_ns
      reset sseed =
    ( shards, hop_ns, drop, dup, delay, delay_ns, reorder, reorder_ns, reset,
      sseed )
  in
  let make_ctl partitions crashes coord_crash_at prepare_ns retransmit_ns
      max_retransmits skew_ns sfaults per_shard failovers rfaults rdrop =
    ( partitions, crashes, coord_crash_at, prepare_ns, retransmit_ns,
      max_retransmits, skew_ns, sfaults, per_shard, failovers, rfaults, rdrop
    )
  in
  let pair a b = (a, b) in
  Cmdliner.Term.(
    const pair
    $ (const make_link $ shards_count $ shard_hop_ns $ shard_drop $ shard_dup
       $ shard_delay $ shard_delay_ns $ shard_reorder $ shard_reorder_ns
       $ shard_reset $ shard_seed)
    $ (const make_ctl $ shard_partition $ shard_crash $ shard_coord_crash_at
       $ shard_prepare_timeout_ns $ shard_retransmit_ns
       $ shard_max_retransmits $ shard_skew_bound_ns $ shard_fault
       $ repl_per_shard $ shard_failover_at $ shard_repl_fault
       $ shard_repl_drop))

let lenient =
  Arg.(
    value & flag
    & info [ "lenient" ]
        ~doc:
          "With --check: skip undecodable trace lines instead of rejecting \
           the file, counting them as lost (the verdict degrades to \
           INCONCLUSIVE rather than claiming a full pass).")

(* {2 The campaign subcommand}

   A declarative grid (cell classes x seeds) swept across a domain pool
   with crash isolation, per-cell step budgets, checkpoint/resume and
   auto-shrinking of unexpected cells.  Every failure is citable: the
   per-cell derived seed and the exact standalone reproduction line are
   printed with the repro report and stored in the results DB. *)

module Campaign = Leopard_campaign

let campaign_cells =
  Arg.(
    value & opt_all string []
    & info [ "cell" ] ~docv:"NAME"
        ~doc:
          "Cell class to include (repeatable; default: every preset).  \
           See --list-cells.")

let campaign_list =
  Arg.(
    value & flag
    & info [ "list-cells" ] ~doc:"List the known cell classes and exit.")

let campaign_seeds =
  Arg.(
    value & opt int 3
    & info [ "seeds" ] ~docv:"N" ~doc:"Seeds (cells) per class.")

let campaign_seed_flag =
  Arg.(
    value & opt int 42
    & info [ "campaign-seed" ] ~docv:"SEED"
        ~doc:
          "Campaign master seed; every cell's seed is derived from it \
           positionally (SplitMix64), so (campaign seed, cell index) \
           reproduces any cell standalone.")

let campaign_txns =
  Arg.(
    value & opt int 0
    & info [ "cell-txns" ] ~docv:"N"
        ~doc:"Override every class's transaction count (0 = per-class).")

let campaign_clients =
  Arg.(
    value & opt int 0
    & info [ "cell-clients" ] ~docv:"N"
        ~doc:"Override every class's client count (0 = per-class).")

let campaign_jobs =
  Arg.(
    value & opt int 0
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains (0 = recommended domain count).  Results are \
           byte-identical for every value.")

let campaign_budget =
  Arg.(
    value & opt int 0
    & info [ "step-budget" ] ~docv:"N"
        ~doc:
          "Per-cell step budget in transaction-program generations; a \
           cell exceeding it is recorded TIMEOUT (0 = auto from txns).")

let campaign_out =
  Arg.(
    value & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Write the JSON results DB here.")

let campaign_checkpoint =
  Arg.(
    value & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Checkpoint completed cells here; an interrupted sweep resumed \
           against the same file re-runs only incomplete cells.")

let campaign_max_cells =
  Arg.(
    value & opt int 0
    & info [ "max-cells" ] ~docv:"N"
        ~doc:
          "Stop after running N incomplete cells (0 = no limit) — pairs \
           with --checkpoint to split a sweep across invocations.")

let campaign_no_shrink =
  Arg.(
    value & flag
    & info [ "no-shrink" ]
        ~doc:"Do not delta-debug unexpected cells into reproducers.")

let campaign_shrink_dir =
  Arg.(
    value & opt (some string) None
    & info [ "shrink-dir" ] ~docv:"DIR"
        ~doc:"Also write each repro report to DIR/cell-<index>.repro.")

let campaign_quiet =
  Arg.(
    value & flag
    & info [ "quiet" ] ~doc:"Suppress per-event progress on stderr.")

let campaign_run cells_sel list_cells seeds campaign_seed cell_txns
    cell_clients jobs_v step_budget out checkpoint max_cells no_shrink
    shrink_dir quiet =
  if list_cells then begin
    List.iter
      (fun (_, c) -> print_endline (Campaign.Grid.describe c))
      Campaign.Grid.presets;
    exit 0
  end;
  (let open Leopard_harness.Cli_validate in
   match
     first_error
       ([
          positive ~flag:"--seeds" seeds;
          jobs ~flag:"--jobs" jobs_v;
          non_negative ~flag:"--step-budget" step_budget;
          non_negative ~flag:"--max-cells" max_cells;
          non_negative ~flag:"--cell-txns" cell_txns;
          non_negative ~flag:"--cell-clients" cell_clients;
        ]
       @ List.map
           (choice ~flag:"--cell" ~known:Campaign.Grid.preset_names)
           cells_sel)
   with
   | Some e ->
     prerr_endline (error_to_string e);
     exit 2
   | None -> ());
  let names =
    match cells_sel with [] -> Campaign.Grid.preset_names | l -> l
  in
  let classes =
    List.map
      (fun n ->
        match Campaign.Grid.find_preset n with
        | Some c -> c
        | None -> assert false (* validated above *))
      names
  in
  let classes =
    if cell_txns = 0 && cell_clients = 0 then classes
    else
      List.map
        (fun (c : Campaign.Grid.clazz) ->
          Campaign.Grid.scale
            ~txns:(if cell_txns > 0 then cell_txns else c.Campaign.Grid.txns)
            ~clients:
              (if cell_clients > 0 then cell_clients
               else c.Campaign.Grid.clients)
            c)
        classes
  in
  let grid = Campaign.Grid.make ~campaign_seed ~seeds_per_class:seeds classes in
  let opts =
    {
      Campaign.Orchestrator.default_opts with
      jobs = jobs_v;
      step_budget = (if step_budget > 0 then Some step_budget else None);
      checkpoint;
      limit = (if max_cells > 0 then Some max_cells else None);
      shrink = not no_shrink;
      log = (if quiet then ignore else prerr_endline);
    }
  in
  let o = Campaign.Orchestrator.run ~opts grid in
  (* Report header: the campaign seed and fingerprint are the citation
     root — any cell below reproduces from (campaign seed, index). *)
  Printf.printf "campaign : seed %d, fingerprint %s, %d cell(s) (%d class(es) x %d seed(s))\n"
    campaign_seed
    (Campaign.Grid.fingerprint grid)
    (Campaign.Grid.cell_count grid)
    (List.length classes) seeds;
  Printf.printf "sweep    : %d run, %d resumed from checkpoint, jobs %s\n"
    o.Campaign.Orchestrator.fresh o.Campaign.Orchestrator.resumed
    (if jobs_v = 0 then "auto" else string_of_int jobs_v);
  let by_class (clazz : Campaign.Grid.clazz) =
    Array.to_list o.Campaign.Orchestrator.results
    |> List.filter (fun (r : Campaign.Runner.result) ->
           String.equal r.Campaign.Runner.cell.Campaign.Grid.clazz.Campaign.Grid.cname
             clazz.Campaign.Grid.cname)
  in
  List.iter
    (fun (clazz : Campaign.Grid.clazz) ->
      let rs = by_class clazz in
      let count k =
        List.length
          (List.filter
             (fun (r : Campaign.Runner.result) ->
               String.equal
                 (Campaign.Runner.kind_to_string
                    (Campaign.Runner.kind_of r.Campaign.Runner.outcome))
                 k)
             rs)
      in
      let ok =
        List.length (List.filter Campaign.Runner.is_expected rs)
      in
      Printf.printf
        "cell     : %-24s %d/%d expected | V %d B %d I %d X %d T %d\n"
        clazz.Campaign.Grid.cname ok (List.length rs) (count "verified")
        (count "violation") (count "inconclusive") (count "crashed")
        (count "timeout"))
    classes;
  (match o.Campaign.Orchestrator.json with
  | Some json -> (
    match out with
    | Some path ->
      let oc = open_out path in
      output_string oc json;
      close_out oc;
      Printf.printf "results  : %s\n" path
    | None -> ())
  | None ->
    Printf.printf "partial  : %d/%d cell(s) complete%s\n"
      (Array.length o.Campaign.Orchestrator.results)
      (Campaign.Grid.cell_count grid)
      (match checkpoint with
      | Some p -> Printf.sprintf " (resume against --checkpoint %s)" p
      | None -> ""));
  (match shrink_dir with
  | Some dir when o.Campaign.Orchestrator.repros <> [] ->
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    List.iter
      (fun (r : Campaign.Orchestrator.repro) ->
        let path =
          Filename.concat dir
            (Printf.sprintf "cell-%d.repro"
               r.Campaign.Orchestrator.bundle.Campaign.Shrink.shrunk
                 .Campaign.Grid.index)
        in
        let oc = open_out path in
        output_string oc (Campaign.Shrink.render r.Campaign.Orchestrator.bundle);
        close_out oc)
      o.Campaign.Orchestrator.repros
  | _ -> ());
  List.iter
    (fun (r : Campaign.Orchestrator.repro) ->
      print_newline ();
      print_string (Campaign.Shrink.render r.Campaign.Orchestrator.bundle))
    o.Campaign.Orchestrator.repros;
  let unexpected =
    Array.exists
      (fun (r : Campaign.Runner.result) ->
        not (Campaign.Runner.is_expected r))
      o.Campaign.Orchestrator.results
  in
  if unexpected then begin
    Printf.printf "\nCAMPAIGN FAIL: unexpected cell outcome(s) above\n";
    exit 1
  end
  else begin
    Printf.printf "CAMPAIGN PASS\n";
    exit 0
  end

let campaign_cmd =
  let doc =
    "sweep a seeded fault-campaign grid across a domain pool, with \
     checkpoint/resume and auto-shrinking reproducers"
  in
  Cmd.v
    (Cmd.info "campaign" ~doc)
    Term.(
      const campaign_run $ campaign_cells $ campaign_list $ campaign_seeds
      $ campaign_seed_flag $ campaign_txns $ campaign_clients $ campaign_jobs
      $ campaign_budget $ campaign_out $ campaign_checkpoint
      $ campaign_max_cells $ campaign_no_shrink $ campaign_shrink_dir
      $ campaign_quiet)

let ckpt_term =
  let make a b c d = (a, b, c, d) in
  Term.(
    const make $ gc_watermark $ check_checkpoint $ resume_check
    $ check_kill_after)

let run_term =
  Term.(
    const run $ workload $ dbms $ level $ faults $ clients $ txns $ seed
    $ show_bugs $ record $ check $ infer $ chaos_term $ net_term
    $ max_retries $ lenient $ ckpt_term $ recovery_term
    $ repl_term $ shard_term)

let cmd =
  let doc = "verify isolation levels from client-side traces (Leopard)" in
  (* a group with a default term keeps the historical flag-only
     invocation (leopard -w smallbank ...) working unchanged *)
  Cmd.group ~default:run_term (Cmd.info "leopard" ~doc) [ campaign_cmd ]

let () = exit (Cmd.eval cmd)
