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
   - killing and resuming a check of a lossy file reports byte-identically;
   - the checkpoint fingerprint binds the whole input file;
   - FNV-1a keeps its standard outputs. *)

module H = Leopard_harness
module Il = Leopard.Il_profile
module Link = Leopard_net.Faulty_link

let read_file = Helpers.read_file
let run_cli = Helpers.run_cli
let contains = Helpers.contains

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
  let kinds = Hashtbl.create 5 in
  List.iter
    (fun (name, config) ->
      for seed = 1 to 3 do
        let outcome = H.Run.execute (config seed) in
        let path = Filename.temp_file "leopard_session" ".trace" in
        H.Marks.record ~path outcome;
        let reloaded what = function
          | Ok c -> c
          | Error e ->
            Alcotest.failf "%s seed %d: %s failed: %s" name seed what e
        in
        let contents = reloaded "reload" (Leopard_trace.Codec.load_all ~path) in
        let markers, stream =
          reloaded "file_stream" (H.Session.file_stream ~path)
        in
        List.iter
          (fun (kind, present) -> if present then Hashtbl.replace kinds kind ())
          [ ("E", markers.c_epochs <> []); ("U", markers.c_ambiguous <> []);
            ("L", markers.c_leaders <> []); ("S", markers.c_shards <> []);
            ("P", markers.c_prepares <> []) ];
        List.iter
          (fun gc_watermark ->
            let of_run = H.Session.of_outcome ~gc_watermark il outcome in
            let of_file =
              H.Session.verify ~gc_watermark il
                (H.Marks.of_codec contents ~skipped:0)
                (H.Session.Sorted
                   (H.Session.list_stream
                      (List.sort Leopard_trace.Trace.compare_by_bef
                         contents.c_traces)))
            in
            let streamed =
              H.Session.verify ~gc_watermark il
                (H.Marks.of_codec markers ~skipped:0)
                (H.Session.Sorted stream)
            in
            let what side =
              Printf.sprintf "%s seed %d gc %d: %s, same report" name seed
                gc_watermark side
            in
            Alcotest.(check string) (what "sorted file")
              (report_digest of_run.report)
              (report_digest of_file.report);
            Alcotest.(check string) (what "streamed file")
              (report_digest of_run.report)
              (report_digest streamed.report))
          [ 0; 97 ];
        Sys.remove path
      done)
    presets;
  Alcotest.(check (list string)) "the presets carry every marker kind"
    [ "E"; "L"; "P"; "S"; "U" ]
    (List.sort String.compare (List.of_seq (Hashtbl.to_seq_keys kinds)))

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

(* --- kill and resume ------------------------------------------------ *)

(* A report without the lines that legitimately differ between a fresh
   and a resumed check. *)
let flat text =
  String.split_on_char '\n' text
  |> List.filter (fun l ->
         not
           (String.starts_with ~prefix:"resumed  :" l
           || String.starts_with ~prefix:"checkpoint " l))
  |> List.map (fun l ->
         (* drop the ", X ms cpu" tail *)
         if String.starts_with ~prefix:"checked  :" l then
           String.sub l 0 (String.rindex l ',')
         else l)
  |> String.concat "\n"

(* A lossy file: a few commit lines corrupted, so --lenient loses their
   traces and the transactions stay unterminated, superseded by their
   clients' next ones.  The resumed report — truncate peak included —
   matches the uninterrupted one only if the checkpoint carries the
   client map and the superseded marks. *)
let test_lossy_kill_resume () =
  let trace = Filename.temp_file "leopard_session" ".trace" in
  let ck = Filename.temp_file "leopard_session" ".ck" in
  check_exit "record" 0
    (run_cli
       [ "-w"; "smallbank"; "-d"; "postgresql"; "-i"; "SI"; "-n"; "2000";
         "--clients"; "8"; "--seed"; "5"; "--record"; trace ]);
  let commits = ref 0 in
  let corrupted =
    String.split_on_char '\n' (read_file trace)
    |> List.map (fun l ->
           if String.starts_with ~prefix:"C " l then begin
             incr commits;
             if !commits mod 20 = 0 then "C corrupted" else l
           end
           else l)
    |> String.concat "\n"
  in
  let oc = open_out_bin trace in
  output_string oc corrupted;
  close_out oc;
  let check_args extra =
    [ "--check"; trace; "-d"; "postgresql"; "-i"; "SI"; "--lenient";
      "--gc-watermark"; "500"; "--check-checkpoint"; ck ]
    @ extra
  in
  let ((_, fresh) as res) = run_cli (check_args []) in
  check_exit "lossy check" 3 res;
  Alcotest.(check bool) "commits were lost" true
    (contains fresh "transactions unterminated");
  ignore (run_cli (check_args [ "--check-kill-after"; "3000" ]));
  let ((_, resumed) as res) = run_cli (check_args [ "--resume-check" ]) in
  check_exit "resume" 3 res;
  Alcotest.(check bool) "resumed from the checkpoint" true
    (contains resumed "resumed  : trace 3000/");
  Alcotest.(check string) "resumed report equals uninterrupted" (flat fresh)
    (flat resumed);
  Sys.remove trace;
  Sys.remove ck

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

(* --- a strict check streams the file in recorded order -------------- *)

let write_lines path lines =
  let oc = open_out_bin path in
  output_string oc (String.concat "\n" (Array.to_list lines));
  close_out oc

let ts_bef line =
  match Leopard_trace.Codec.of_line line with
  | Ok (Some (t : Leopard_trace.Trace.t)) -> Some t.ts_bef
  | _ -> None

(* Two adjacent trace lines swapped: the strict stream stops at the later
   line, where sorting the whole file used to hide the swap; --lenient
   still sorts it back to the recorded report. *)
let test_check_needs_recorded_order () =
  let trace = Filename.temp_file "leopard_session" ".trace" in
  check_exit "record" 0 (run_cli (smallbank_si @ [ "--record"; trace ]));
  let check extra =
    run_cli ([ "--check"; trace; "-d"; "postgresql"; "-i"; "SI" ] @ extra)
  in
  let ((_, recorded) as res) = check [] in
  check_exit "recorded order" 0 res;
  let lines = Array.of_list (String.split_on_char '\n' (read_file trace)) in
  let rec swappable i =
    match (ts_bef lines.(i), ts_bef lines.(i + 1)) with
    | Some a, Some b when a <> b -> i
    | _ -> swappable (i + 1)
  in
  let i = swappable (Array.length lines / 2) in
  let first = lines.(i) in
  lines.(i) <- lines.(i + 1);
  lines.(i + 1) <- first;
  write_lines trace lines;
  let ((_, text) as res) = check [] in
  check_exit "swapped" 2 res;
  Alcotest.(check string) "names the later line"
    (Printf.sprintf
       "cannot load %s: line %d: trace out of recorded order (it sorts \
        before the trace on line %d); --lenient sorts the file in memory\n"
       trace (i + 2) (i + 1))
    text;
  let ((_, lenient) as res) = check [ "--lenient" ] in
  check_exit "lenient" 0 res;
  Alcotest.(check string) "--lenient sorts it back" (flat recorded)
    (flat lenient);
  Sys.remove trace

(* A malformed trace line in mid-file stops the stream when it gets
   there, with the same one line a whole-file load printed. *)
let test_check_bad_trace_line () =
  let trace = Filename.temp_file "leopard_session" ".trace" in
  check_exit "record" 0 (run_cli (smallbank_si @ [ "--record"; trace ]));
  let lines = Array.of_list (String.split_on_char '\n' (read_file trace)) in
  let rec trace_line i =
    if ts_bef lines.(i) <> None then i else trace_line (i + 1)
  in
  let i = trace_line (Array.length lines / 2) in
  lines.(i) <- "C corrupted";
  write_lines trace lines;
  let ((_, text) as res) =
    run_cli
      [ "--check"; trace; "-d"; "postgresql"; "-i"; "SI"; "--gc-watermark";
        "100" ]
  in
  check_exit "bad line" 2 res;
  Alcotest.(check string) "one line naming it"
    (Printf.sprintf "cannot load %s: line %d: unrecognised line \"C corrupted\"\n"
       trace (i + 1))
    text;
  Sys.remove trace

(* --- --infer applies the marks the verdict does ---------------------- *)

(* A wire-fault recording carries ambiguous-commit markers.  Inference
   checkers that never saw them kept those transactions active, so a
   read of one's write was a CR violation under every claim, while the
   verdict beside them was inconclusive. *)
let test_infer_applies_marks () =
  List.iter
    (fun seed ->
      let trace = Filename.temp_file "leopard_session" ".trace" in
      let infer what args =
        let ((_, text) as res) = run_cli (args @ [ "--infer" ]) in
        let what = Printf.sprintf "seed %d: %s" seed what in
        check_exit what 3 res;
        Alcotest.(check bool) (what ^ ": ambiguous commits") true
          (contains text "ambiguous");
        Alcotest.(check bool) (what ^ ": no claim fails") false
          (contains text "FAIL");
        Alcotest.(check bool) (what ^ ": SR supported") true
          (contains text "strongest supported claim: postgresql/SR")
      in
      infer "run"
        [ "-w"; "smallbank"; "-d"; "postgresql"; "-i"; "SI"; "-n"; "1000";
          "--clients"; "8"; "--seed"; string_of_int seed;
          "--net-fault-drop"; "0.05"; "--net-fault-reset"; "0.05";
          "--net-fault-dup"; "0.05"; "--record"; trace ];
      infer "check" [ "--check"; trace; "-d"; "postgresql"; "-i"; "SI" ];
      Sys.remove trace)
    [ 2; 3 ]

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
    Alcotest.test_case "lossy kill and resume: byte-identical report" `Quick
      test_lossy_kill_resume;
    Alcotest.test_case "checkpoint fingerprint binds whole file" `Quick
      test_fingerprint_binds_whole_file;
    Alcotest.test_case "strict check needs the recorded order" `Quick
      test_check_needs_recorded_order;
    Alcotest.test_case "strict check stops at a bad trace line" `Quick
      test_check_bad_trace_line;
    Alcotest.test_case "--infer applies the file's marks" `Quick
      test_infer_applies_marks;
    Alcotest.test_case "fnv-1a standard vectors" `Quick test_fnv_vectors;
  ]
