(* One verification session for every driver.

   - chaos composed with a failover or a coordinator crash: the chaos
     channels reach the checker as marks, and so do the failover and
     orphan marks the online monitor never applied (CLI, six and three
     seeds);
   - a session over a run and a session over that run's recorded file
     give the same report, on every fault plane the file format carries,
     so [Marks.of_outcome] and [Marks.of_codec] cannot drift apart;
   - the live monitor refuses the failover planes;
   - --gc-watermark and --check-checkpoint work on a plain workload run;
   - --record refuses a chaos run, whose losses the format cannot hold;
   - the checkpoint fingerprint binds the whole input file;
   - FNV-1a keeps its standard outputs. *)

module H = Leopard_harness
module Il = Leopard.Il_profile
module Link = Leopard_net.Faulty_link

let cli = Filename.concat ".." (Filename.concat "bin" "leopard_cli.exe")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Exit code and combined stdout/stderr of one CLI invocation. *)
let run_cli args =
  let out = Filename.temp_file "leopard_cli" ".out" in
  let code =
    Sys.command (Filename.quote_command cli ~stdout:out ~stderr:out args)
  in
  let text = read_file out in
  Sys.remove out;
  (code, text)

let contains text sub =
  let n = String.length text and m = String.length sub in
  let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
  go 0

(* The number after [prefix] in [text], if any. *)
let count_after text prefix =
  let n = String.length text and m = String.length prefix in
  let rec find i =
    if i + m > n then None
    else if String.sub text i m = prefix then
      Scanf.sscanf_opt (String.sub text (i + m) (n - i - m)) "%d" Fun.id
    else find (i + 1)
  in
  find 0

let smallbank_si =
  [ "-w"; "smallbank"; "-d"; "postgresql"; "-i"; "SI"; "-n"; "400";
    "--clients"; "8" ]

let seeded s =
  let s = string_of_int s in
  [ "--seed"; s; "--chaos-seed"; s; "--repl-seed"; s; "--shard-seed"; s ]

let check_exit what expected (code, text) =
  if code <> expected then
    Alcotest.failf "%s: exit %d, expected %d\n%s" what code expected text

(* --- chaos composed with failover and coordinator planes ----------- *)

let repl_failover_flags =
  [ "--repl"; "2"; "--repl-ack"; "async"; "--repl-hop-ns"; "5000";
    "--repl-partition"; "2000000:4000000"; "--repl-promote-on-partition";
    "--repl-read-prob"; "0.3" ]

let test_chaos_repl_failover () =
  for seed = 1 to 6 do
    let ((_, text) as res) =
      run_cli
        (smallbank_si @ seeded seed @ repl_failover_flags
       @ [ "--chaos-dup"; "0.0001" ])
    in
    let what = Printf.sprintf "seed %d" seed in
    check_exit what 3 res;
    match count_after text "failovers 1 (commits lost " with
    | Some lost when lost > 0 -> ()
    | _ -> Alcotest.failf "%s: no lossy failover in the report\n%s" what text
  done

let shard_coord_crash_flags =
  [ "--shards"; "2"; "--shard-hop-ns"; "20000"; "--shard-drop"; "0.15";
    "--shard-coord-crash-at"; "8000000" ]

let test_chaos_shard_coord_crash () =
  for seed = 1 to 3 do
    let ((_, text) as res) =
      run_cli
        (smallbank_si @ seeded seed @ shard_coord_crash_flags
       @ [ "--chaos-dup"; "0.0001" ])
    in
    let what = Printf.sprintf "seed %d" seed in
    check_exit what 3 res;
    Alcotest.(check (option int))
      (what ^ ": nothing unterminated") (Some 0)
      (count_after text "unterminated txns ");
    match count_after text "coordinator-ambiguous " with
    | Some n when n > 0 -> ()
    | _ -> Alcotest.failf "%s: orphans not coordinator-ambiguous\n%s" what text
  done

(* --- a run and its recorded file verify alike ---------------------- *)

let smallbank_config ?net ?repl ?shard ?(wal = false) ?(crash_at = [])
    ?wal_faults ?(max_retries = 0) seed =
  H.Run.config ?net ?repl ?shard ~wal ~crash_at ?wal_faults ~max_retries
    ~clients:8 ~seed
    ~spec:(Leopard_workload.Smallbank.spec ())
    ~profile:Minidb.Profile.postgresql
    ~level:Minidb.Isolation.Snapshot_isolation
    ~stop:(H.Run.Txn_count 400) ()

(* The CI soak legs whose marks a trace file carries. *)
let presets =
  [
    ( "net",
      fun seed ->
        smallbank_config seed ~max_retries:2
          ~net:
            (H.Run.net_config
               ~fault:
                 (Link.config ~seed ~drop_prob:0.05 ~dup_prob:0.05
                    ~reset_prob:0.05 ~delay_prob:0.05 ())
               ()) );
    ( "repl-failover",
      fun seed ->
        let module C = Leopard_replication.Cluster in
        smallbank_config seed
          ~repl:
            (H.Run.repl_config ~promote_on_partition:true
               (C.config ~followers:2 ~ack_mode:C.Async ~hop_ns:5_000
                  ~partitions:
                    [ { C.follower = -1; from_ns = 2_000_000;
                        until_ns = 4_000_000 } ]
                  ~follower_read_prob:0.3 ~seed ())) );
    ( "shard-coord-crash",
      fun seed ->
        smallbank_config seed
          ~shard:
            (H.Run.shard_config ~coord_crash_at:[ 8_000_000 ]
               (Leopard_shard.Group.config ~shards:2 ~hop_ns:20_000
                  ~link:(Link.config ~seed ~drop_prob:0.15 ())
                  ())) );
    ( "stacked",
      fun seed ->
        let link = Link.config ~seed ~drop_prob:0.1 () in
        smallbank_config seed ~wal:true
          ~shard:
            (H.Run.shard_config ~coord_crash_at:[ 12_000_000 ]
               ~shard_failover_at:[ (4_000_000, 0); (8_000_000, 1) ]
               ~stack:
                 (Leopard_compose.Stack.config ~followers:2 ~hop_ns:20_000
                    ~link ~seed ())
               (Leopard_shard.Group.config ~shards:2 ~hop_ns:20_000 ~link ())) );
    ( "wal-crash",
      fun seed ->
        smallbank_config seed ~wal:true ~crash_at:[ 2_000_000 ] ~max_retries:3
          ~wal_faults:
            (Minidb.Wal.fault_cfg ~seed ~lost_fsync_prob:0.6
               ~dup_replay_prob:0.4 ()) );
  ]

(* Every field of the report, deduction tallies, memory and bug prose
   included. *)
let report_digest (r : Leopard.Checker.report) =
  let d = r.degradation in
  String.concat " "
    ([
       string_of_int r.traces; string_of_int r.committed;
       string_of_int r.aborted; string_of_int r.bugs_total;
       string_of_int r.deps_deduced; string_of_int r.reads_checked;
       string_of_int r.peak_live; string_of_int r.final_live;
       string_of_int r.truncations; string_of_int r.truncated_deps;
       string_of_int r.resolved_ambiguous;
       Leopard.Report_pp.degradation_line d;
       string_of_int d.unterminated_txns;
     ]
    @ List.map Leopard.Bug.to_string r.bugs)

let test_run_equals_recording () =
  let il = Il.postgresql_si in
  List.iter
    (fun (name, config) ->
      for seed = 1 to 3 do
        let outcome = H.Run.execute (config seed) in
        let path = Filename.temp_file "leopard_session" ".trace" in
        H.Marks.record ~path outcome;
        let contents =
          match Leopard_trace.Codec.load_all ~path with
          | Ok c -> c
          | Error e -> Alcotest.failf "%s seed %d: reload failed: %s" name seed e
        in
        Sys.remove path;
        List.iter
          (fun gc_watermark ->
            let of_run = H.Session.of_outcome ~gc_watermark il outcome in
            let of_file =
              H.Session.verify ~gc_watermark il
                (H.Marks.of_codec contents ~skipped:0)
                (H.Session.Sorted
                   (List.sort Leopard_trace.Trace.compare_by_bef
                      contents.c_traces))
            in
            Alcotest.(check string)
              (Printf.sprintf "%s seed %d gc %d: same report" name seed
                 gc_watermark)
              (report_digest of_run.report)
              (report_digest of_file.report))
          [ 0; 97 ]
      done)
    presets

(* A failover can mark lost a commit the live monitor already
   dispatched, so those runs verify offline only. *)
let test_online_refuses_failover_planes () =
  List.iter
    (fun name ->
      let config = List.assoc name presets 1 in
      match H.Online.run ~il:Il.postgresql_si config with
      | _ -> Alcotest.failf "%s: Online.run accepted the config" name
      | exception Invalid_argument _ -> ())
    [ "repl-failover"; "shard-coord-crash"; "stacked" ]

(* --- inert flags and unsound recordings ---------------------------- *)

let test_workload_run_truncates_and_checkpoints () =
  let ck = Filename.temp_file "leopard_session" ".ck" in
  Sys.remove ck;
  let ((_, text) as res) =
    run_cli
      [ "-w"; "smallbank"; "-n"; "1000"; "--gc-watermark"; "200";
        "--check-checkpoint"; ck ]
  in
  check_exit "plain run" 0 res;
  (match count_after text "truncate : " with
  | Some cuts when cuts > 0 -> ()
  | _ -> Alcotest.failf "no truncate line with cuts\n%s" text);
  Alcotest.(check bool) "checkpoint written" true (Sys.file_exists ck);
  Alcotest.(check bool) "checkpoint has frames" true
    (contains (read_file ck) "\ne\t0\n");
  Sys.remove ck

let test_record_refuses_chaos () =
  let open H.Cli_validate in
  let flag_of = Option.map (fun e -> e.flag) in
  Alcotest.(check (option string)) "chaos off: fine" None
    (flag_of (recording ~record:true ~chaos_rates:[ 0.0; 0.0 ]));
  Alcotest.(check (option string)) "no record: fine" None
    (flag_of (recording ~record:false ~chaos_rates:[ 0.5 ]));
  Alcotest.(check (option string)) "record + chaos rejected" (Some "--record")
    (flag_of (recording ~record:true ~chaos_rates:[ 0.0; 0.01 ]));
  let path = Filename.temp_file "leopard_session" ".trace" in
  Sys.remove path;
  let ((_, text) as res) =
    run_cli
      (smallbank_si
      @ [ "--seed"; "6"; "--chaos-seed"; "6"; "--chaos-drop"; "0.01";
          "--record"; path ])
  in
  check_exit "record + chaos" 2 res;
  Alcotest.(check int) "one-line usage error" 1
    (List.length (String.split_on_char '\n' (String.trim text)));
  Alcotest.(check bool) "no file written" false (Sys.file_exists path)

(* --- the fingerprint binds the whole file -------------------------- *)

let test_fingerprint_binds_whole_file () =
  let trace = Filename.temp_file "leopard_session" ".trace" in
  let ck = Filename.temp_file "leopard_session" ".ck" in
  check_exit "record" 0 (run_cli (smallbank_si @ [ "--record"; trace ]));
  let check_args extra =
    [ "--check"; trace; "-d"; "postgresql"; "-i"; "SI"; "--gc-watermark";
      "100"; "--check-checkpoint"; ck ]
    @ extra
  in
  (* the report without the lines that legitimately differ *)
  let flat text =
    String.split_on_char '\n' text
    |> List.filter (fun l ->
           not
             (String.starts_with ~prefix:"resumed  :" l
             || String.starts_with ~prefix:"checkpoint " l))
    |> List.map (fun l ->
           (* drop the ", X ms wall" tail *)
           if String.starts_with ~prefix:"checked  :" l then
             String.sub l 0 (String.rindex l ',')
           else l)
    |> String.concat "\n"
  in
  let code, fresh = run_cli (check_args []) in
  (* an intact file resumes from the last frame *)
  let ((_, resumed) as res) = run_cli (check_args [ "--resume-check" ]) in
  check_exit "resume" code res;
  Alcotest.(check bool) "intact file resumes" true
    (contains resumed "resumed  : trace ");
  Alcotest.(check string) "resumed report equals fresh" (flat fresh)
    (flat resumed);
  (* rewrite the full checkpoint, then change one digit past the first
     4 KiB: the checkpoint no longer belongs to the file *)
  check_exit "fresh again" code (run_cli (check_args []));
  let bytes = Bytes.of_string (read_file trace) in
  let rec digit i =
    match Bytes.get bytes i with '1' .. '8' -> i | _ -> digit (i + 1)
  in
  let i = digit 5000 in
  Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) + 1));
  let oc = open_out_bin trace in
  output_bytes oc bytes;
  close_out oc;
  let code', stale = run_cli (check_args [ "--resume-check" ]) in
  Alcotest.(check bool) "foreign checkpoint warned" true
    (contains stale "fingerprint mismatch");
  Alcotest.(check bool) "foreign checkpoint not resumed" false
    (contains stale "resumed  : trace ");
  let ((_, changed) as res) = run_cli (check_args []) in
  check_exit "changed file, fresh" code' res;
  Alcotest.(check string) "starts fresh: same report as a fresh check"
    (flat changed) (flat stale);
  Sys.remove trace;
  Sys.remove ck

let test_fnv_vectors () =
  Alcotest.(check string) "empty" "cbf29ce484222325" (Leopard_util.Fnv.hex "");
  Alcotest.(check string) "a" "af63dc4c8601ec8c" (Leopard_util.Fnv.hex "a")

let suite =
  [
    Alcotest.test_case "chaos x repl-failover is inconclusive" `Quick
      test_chaos_repl_failover;
    Alcotest.test_case "chaos x coordinator crash files orphans" `Quick
      test_chaos_shard_coord_crash;
    Alcotest.test_case "run and its recording verify alike" `Quick
      test_run_equals_recording;
    Alcotest.test_case "online monitor refuses failover planes" `Quick
      test_online_refuses_failover_planes;
    Alcotest.test_case "workload run truncates and checkpoints" `Quick
      test_workload_run_truncates_and_checkpoints;
    Alcotest.test_case "record refuses a chaos run" `Quick
      test_record_refuses_chaos;
    Alcotest.test_case "checkpoint fingerprint binds whole file" `Quick
      test_fingerprint_binds_whole_file;
    Alcotest.test_case "fnv-1a standard vectors" `Quick test_fnv_vectors;
  ]
