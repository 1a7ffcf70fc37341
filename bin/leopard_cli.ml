(* Command-line driver: run a workload on a simulated DBMS profile and
   verify the claimed isolation level from the traces.

     dune exec bin/leopard_cli.exe -- --help
     dune exec bin/leopard_cli.exe -- -w smallbank -d postgresql -i SI -n 5000
     dune exec bin/leopard_cli.exe -- -w tpcc -d postgresql -i SR \
       --fault no-ssi --clients 24 *)

module Cli_validate = Leopard_harness.Cli_validate
module Flags = Leopard_harness.Flags
module Marks = Leopard_harness.Marks
module Session = Leopard_harness.Session

(* Each inferred profile is one relaxed session over the claim's
   stream, marks and truncation cadence; none takes a checkpoint. *)
let print_inference ~dbms ~gc_watermark marks stream =
  let verdicts =
    Leopard.Level_inference.infer ~dbms (fun profile ->
        (Session.verify ~gc_watermark ~relaxed_reads:true profile marks
           (Session.Sorted stream))
          .report)
  in
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

(* A file that cannot be opened, read or written is exit 2, like a usage
   error: one stderr line, never cmdliner's uncaught-exception report. *)
let file_error verb path e =
  prerr_endline (Printf.sprintf "cannot %s %s: %s" verb path e);
  exit 2

(* [f ()], where a [Sys_error] can only come from writing [path]. *)
let writing path f =
  match path with
  | None -> f ()
  | Some path -> ( try f () with Sys_error e -> file_error "write" path e)

let print_truncation (report : Leopard.Checker.report) =
  Printf.printf
    "truncate : %d cut(s), %d settled dep(s) folded into totals, peak %d live \
     entries\n"
    report.truncations report.truncated_deps report.peak_live

(* Verify a previously recorded trace file (see Leopard_trace.Codec)
   through one sorted-source session.  A strict check streams the file
   in recorded order ([Session.file_stream]); [--lenient] loads and
   sorts it in memory.  [kill_after] is the crash drill: SIGKILL (no
   cleanup) right after trace N, so CI can prove kill + resume
   reproduces the uninterrupted verdict byte-for-byte. *)
let check_file ~dbms ~il ~show_bugs ~infer ~lenient ~gc_watermark ~checkpoint
    ~resume ~kill_after path =
  let load0 = Leopard_util.Clock.cpu () in
  let contents, skipped, stream =
    match
      if lenient then
        let contents, skipped = Leopard_trace.Codec.load_lenient_all ~path in
        Ok
          ( contents,
            skipped,
            Session.list_stream
              (List.sort Leopard_trace.Trace.compare_by_bef contents.c_traces)
          )
      else
        Result.map
          (fun (markers, stream) -> (markers, [], stream))
          (Session.file_stream ~path)
    with
    | Ok loaded -> loaded
    | Error e | (exception Sys_error e) -> file_error "load" path e
  in
  let load_cpu = Leopard_util.Clock.cpu () -. load0 in
  let loading f = try f () with Session.Bad_line e -> file_error "load" path e in
  let marks = Marks.of_codec contents ~skipped:(List.length skipped) in
  let shards = contents.Leopard_trace.Codec.c_shards in
  let rounds = List.length contents.c_prepares in
  if infer then
    loading (fun () -> print_inference ~dbms ~gc_watermark marks stream);
  let cpu0 = Leopard_util.Clock.cpu () in
  let verified =
    loading (fun () ->
        writing checkpoint (fun () ->
            Session.verify ~gc_watermark ?checkpoint ~resume ~file:path
              ~after_trace:(fun n ->
                if n = kill_after then Unix.kill (Unix.getpid ()) Sys.sigkill)
              il marks (Session.Sorted stream)))
  in
  (* the same work on both paths: loading (a strict check's markers
     pass, a lenient check's load and sort) plus the session *)
  let cpu = load_cpu +. (Leopard_util.Clock.cpu () -. cpu0) in
  List.iter prerr_endline verified.Session.warnings;
  Option.iter
    (fun cursor ->
      Printf.printf "resumed  : trace %d/%d from checkpoint\n" cursor
        stream.total)
    verified.Session.resumed_at;
  let report = verified.Session.report in
  Printf.printf "checked  : %s — %d traces, %d committed txns, %.1f ms cpu\n"
    path report.traces report.committed (cpu *. 1e3);
  if gc_watermark > 0 then print_truncation report;
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 in
  let { Marks.epochs; ambiguous; leaders; coord_ambiguous; _ } = marks in
  if epochs <> [] then
    Printf.printf "recovery : trace spans %d server restart(s), %d wal \
                   record(s) damaged\n"
      (List.length epochs)
      (sum (fun (e : Leopard_trace.Codec.epoch_mark) -> e.damaged) epochs);
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

let run_workload ~dbms ~show_bugs ~record ~infer ~gc_watermark ~checkpoint
    (config, il) =
  let { Leopard_harness.Run.spec; level; clients; seed; faults; max_retries;
        chaos; _ } =
    config
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
  let cpu0 = Leopard_util.Clock.cpu () in
  let verified =
    writing checkpoint (fun () ->
        Session.of_outcome ~gc_watermark ?checkpoint il outcome)
  in
  let cpu = Leopard_util.Clock.cpu () -. cpu0 in
  let report = verified.Session.report in
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
    "verifier : %d traces, %d reads checked, %d deps deduced, %.1f ms cpu\n"
    report.traces report.reads_checked report.deps_deduced (cpu *. 1e3);
  Printf.printf "memory   : peak %d mirrored entries (pipeline peak %d)\n"
    report.peak_live verified.Session.pipeline_peak;
  if gc_watermark > 0 then print_truncation report;
  print_string (Leopard.Report_pp.degradation_line report.degradation);
  (match record with
  | Some path ->
    writing record (fun () -> Marks.record ~path outcome);
    Printf.printf "recorded : %s (%d traces)\n" path report.traces
  | None -> ());
  if infer then
    print_inference ~dbms ~gc_watermark (Marks.of_outcome outcome)
      (Session.list_stream (Leopard_harness.Run.all_traces_sorted outcome));
  finish ~show_bugs report

(* The CLI's own flags are checked here; the workload and fault-plane
   flags are checked and turned into a run config by [Flags], the one
   mapping the campaign runner uses too. *)
let usage e =
  prerr_endline (Cli_validate.error_to_string e);
  exit 2

let or_usage = function Ok x -> x | Error e -> usage e

let run show_bugs record check infer lenient
    (gc_watermark, checkpoint, resume, kill_after) flags =
  Option.iter usage
    (let open Cli_validate in
     first_error
       [
         non_negative ~flag:"--show-bugs" show_bugs;
         checkpointing
           {
             gc_watermark;
             check_checkpoint = Option.is_some checkpoint;
             resume_check = resume;
             kill_after;
             check_mode = Option.is_some check;
           };
         recording ~record:(Option.is_some record)
           ~chaos_rates:(Flags.chaos_rates flags);
         mode ~check_mode:(Option.is_some check)
           ~record:(Option.is_some record) ~lenient;
         Flags.validate flags;
       ]);
  let dbms = Flags.dbms flags in
  match check with
  | Some path ->
    check_file ~dbms ~il:(or_usage (Flags.verifier flags)) ~show_bugs ~infer
      ~lenient ~gc_watermark ~checkpoint ~resume ~kill_after path
  | None ->
    run_workload ~dbms ~show_bugs ~record ~infer ~gc_watermark ~checkpoint
      (or_usage (Flags.config flags))

open Cmdliner

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
           inference).  Each level is verified in turn as its own \
           session, truncated at --gc-watermark like the claim's.")

let gc_watermark =
  Arg.(
    value & opt int 0
    & info [ "gc-watermark" ] ~docv:"N"
        ~doc:
          "Bounded-memory verification: truncate the checker's mirrored \
           state every N verified traces at the stream watermark, so \
           memory stays proportional to the active window instead of the \
           whole history, --infer's sessions included.  Verdicts are \
           unchanged.  0 disables (the default, full-history mode).")

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
  Option.iter usage
    (let open Cli_validate in
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
           cells_sel));
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
  let o = writing checkpoint (fun () -> Campaign.Orchestrator.run ~opts grid) in
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
  (* V X I C T: verified, violation, inconclusive, crashed, timeout *)
  List.iter
    (fun (s : Campaign.Results.summary) ->
      let v = s.Campaign.Results.verdicts in
      Printf.printf
        "cell     : %-24s %d/%d expected | V %d X %d I %d C %d T %d\n"
        s.Campaign.Results.clazz.Campaign.Grid.cname
        (s.Campaign.Results.cells - s.Campaign.Results.unexpected)
        s.Campaign.Results.cells v.Campaign.Results.verified
        v.Campaign.Results.violation v.Campaign.Results.inconclusive
        v.Campaign.Results.crashed v.Campaign.Results.timeout)
    (Campaign.Results.summarize ~grid o.Campaign.Orchestrator.results);
  (match o.Campaign.Orchestrator.json with
  | Some json -> (
    match out with
    | Some path ->
      writing out (fun () ->
          Out_channel.with_open_text path (fun oc -> output_string oc json));
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
        writing (Some path) (fun () ->
            Out_channel.with_open_text path (fun oc ->
                output_string oc
                  (Campaign.Shrink.render r.Campaign.Orchestrator.bundle))))
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

(* README's exit codes.  A flag cmdliner cannot parse is a usage error
   too: exit 2, not cmdliner's 124, which CI reads as [timeout]'s hang. *)
let exits verdicts =
  List.map
    (fun (code, doc) -> Cmd.Exit.info code ~doc)
    (verdicts
    @ [
        (2, "usage error: a bad flag or value, or a file that cannot be read \
             or written.");
        (Cmd.Exit.internal_error, "internal error (an uncaught exception).");
      ])

let campaign_cmd =
  let doc =
    "sweep a seeded fault-campaign grid across a domain pool, with \
     checkpoint/resume and auto-shrinking reproducers"
  in
  let exits =
    exits
      [ (0, "every cell matched its class expectation.");
        (1, "some cell's outcome was unexpected.") ]
  in
  Cmd.v
    (Cmd.info "campaign" ~doc ~exits)
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
    const run $ show_bugs $ record $ check $ infer $ lenient $ ckpt_term
    $ Flags.term)

let cmd =
  let doc = "verify isolation levels from client-side traces (Leopard)" in
  let exits =
    exits
      [ (0, "verified: no violation, and the collection was complete.");
        (1, "violation: at least one isolation violation proven.");
        (3, "inconclusive: no violation proven, but the collection degraded.") ]
  in
  (* a group with a default term keeps the historical flag-only
     invocation (leopard -w smallbank ...) working unchanged *)
  Cmd.group ~default:run_term
    (Cmd.info "leopard" ~doc ~exits)
    [ campaign_cmd ]

let () =
  let code = Cmd.eval cmd in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
