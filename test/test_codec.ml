module Codec = Leopard_trace.Codec
module Trace = Leopard_trace.Trace

let x = Helpers.cell 0
let y = Helpers.cell ~table:2 ~col:3 7

let samples =
  [
    Helpers.read ~txn:1 ~client:2 ~bef:10 ~aft:20 [ (x, 5); (y, -3) ];
    Helpers.read ~locking:true ~txn:1 ~client:2 ~bef:30 ~aft:40 [ (y, 9) ];
    Helpers.write ~txn:1 ~client:2 ~bef:50 ~aft:60 [ (x, 123456) ];
    Helpers.commit ~txn:1 ~client:2 ~bef:70 ~aft:80 ();
    Helpers.abort ~txn:3 ~client:0 ~bef:90 ~aft:100 ();
  ]

let test_roundtrip_each () =
  List.iter
    (fun t ->
      match Codec.of_line (Codec.to_line t) with
      | Ok (Some t') ->
        Alcotest.(check string) "roundtrip" (Trace.to_string t)
          (Trace.to_string t')
      | Ok None -> Alcotest.fail "decoded to nothing"
      | Error e -> Alcotest.failf "decode error: %s" e)
    samples

let test_comments_and_blanks () =
  Alcotest.(check bool) "comment" true (Codec.of_line "# hello" = Ok None);
  Alcotest.(check bool) "blank" true (Codec.of_line "   " = Ok None)

let test_bad_lines () =
  let bad l = Result.is_error (Codec.of_line l) in
  Alcotest.(check bool) "garbage" true (bad "Z 1 2 3 4");
  Alcotest.(check bool) "bad int" true (bad "C x 2 3 4");
  Alcotest.(check bool) "bad item" true (bad "W 1 2 3 4 nonsense");
  Alcotest.(check bool) "inverted interval" true (bad "C 9 8 3 4");
  Alcotest.(check bool) "commit with items" true (bad "C 1 2 3 4 0.0.0=1")

let test_file_roundtrip () =
  let path = Filename.temp_file "leopard" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Codec.save_ext ~path ~epochs:[] samples;
      match Codec.load_all ~path with
      | Ok { c_traces = traces; _ } ->
        Alcotest.(check int) "count" (List.length samples)
          (List.length traces);
        List.iter2
          (fun a b ->
            Alcotest.(check string) "same" (Trace.to_string a)
              (Trace.to_string b))
          samples traces
      | Error e -> Alcotest.failf "load failed: %s" e)

let test_error_line_number () =
  let path = Filename.temp_file "leopard" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "# header\nC 1 2 3 4\nBROKEN\n";
      close_out oc;
      match Codec.load_all ~path with
      | Error e ->
        Alcotest.(check bool) "mentions line 3" true
          (let contains hay needle =
             let nl = String.length needle and hl = String.length hay in
             let rec go i =
               i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
             in
             go 0
           in
           contains e "line 3")
      | Ok _ -> Alcotest.fail "expected error")

let test_real_run_roundtrip () =
  let outcome =
    Helpers.run_workload ~clients:6 ~txns:150
      ~spec:(Leopard_workload.Smallbank.spec ())
      ~profile:Minidb.Profile.postgresql
      ~level:Minidb.Isolation.Snapshot_isolation ()
  in
  let traces = Leopard_harness.Run.all_traces_sorted outcome in
  let path = Filename.temp_file "leopard" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Codec.save_ext ~path ~epochs:[] traces;
      match Codec.load_all ~path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok { c_traces = loaded; _ } ->
        (* verifying the reloaded history gives the same verdicts *)
        let a = Helpers.check Leopard.Il_profile.postgresql_si traces in
        let b = Helpers.check Leopard.Il_profile.postgresql_si loaded in
        Alcotest.(check int) "same traces" a.traces b.traces;
        Alcotest.(check int) "same bugs" a.bugs_total b.bugs_total;
        Alcotest.(check int) "same deps" a.deps_deduced b.deps_deduced)

let test_lenient_skips_bad_lines () =
  let path = Filename.temp_file "leopard" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "# header\nC 1 2 3 4\nBROKEN\nW 5 6 3 4 0.0.0=1\nC x 8 3 4\n";
      close_out oc;
      let c, skipped = Codec.load_lenient_all ~path in
      Alcotest.(check int) "decodable traces kept" 2 (List.length c.c_traces);
      Alcotest.(check (list int)) "skipped line numbers" [ 3; 5 ]
        (List.map fst skipped);
      List.iter
        (fun (_, diag) ->
          Alcotest.(check bool) "diagnostic non-empty" true (diag <> ""))
        skipped)

let test_lenient_clean_file_equals_strict () =
  let path = Filename.temp_file "leopard" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Codec.save_ext ~path ~epochs:[] samples;
      let lenient, skipped = Codec.load_lenient_all ~path in
      Alcotest.(check int) "nothing skipped" 0 (List.length skipped);
      match Codec.load_all ~path with
      | Error e -> Alcotest.failf "strict load failed: %s" e
      | Ok strict ->
        Alcotest.(check (list string)) "same traces as strict"
          (List.map Trace.to_string strict.c_traces)
          (List.map Trace.to_string lenient.c_traces))

let test_lenient_truncated_tail () =
  (* a torn final line (crashed writer) must not cost the prefix *)
  let path = Filename.temp_file "leopard" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (Codec.header ^ "\n");
      List.iter
        (fun t -> output_string oc (Codec.to_line t ^ "\n"))
        samples;
      output_string oc "W 110 120 5 1 0.0";
      close_out oc;
      let c, skipped = Codec.load_lenient_all ~path in
      Alcotest.(check int) "prefix intact" (List.length samples)
        (List.length c.c_traces);
      Alcotest.(check int) "torn line reported" 1 (List.length skipped))

(* The markers pass decodes every line but the trace lines, which it
   counts by their tag: a malformed trace line is left for the pass that
   decodes it, a malformed marker fails here. *)
let test_load_markers_counts_trace_lines () =
  let path = Filename.temp_file "leopard" ".trace" in
  let write text =
    let oc = open_out path in
    output_string oc text;
    close_out oc
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let body =
        "# header\nS 0 2\nC 1 2 3 4\n  W 5 6 3 4 0.0.0=1\nC corrupted\n\
         U 7 3 4\nR\n\nA x 9 3 4\n"
      in
      write body;
      (match Codec.load_markers ~path with
      | Error e -> Alcotest.failf "markers pass failed: %s" e
      | Ok (m, traces) ->
        Alcotest.(check int) "trace lines counted" 5 traces;
        Alcotest.(check int) "no trace decoded" 0 (List.length m.c_traces);
        Alcotest.(check int) "shard marker" 1 (List.length m.c_shards);
        Alcotest.(check int) "ambiguous marker" 1 (List.length m.c_ambiguous));
      write (body ^ "U x 3 4\n");
      Alcotest.(check (result unit string)) "malformed marker"
        (Error "line 10: bad integer field")
        (Result.map ignore (Codec.load_markers ~path)))

let gen_trace =
  QCheck.Gen.(
    let cell =
      map3
        (fun t r c -> Leopard_trace.Cell.make ~table:t ~row:r ~col:c)
        (int_bound 9) (int_bound 10_000) (int_bound 5)
    in
    let item = map2 (fun c v -> (c, v - 500)) cell (int_bound 1_000) in
    let interval = map2 (fun b d -> (b, b + 1 + d)) (int_bound 100_000) (int_bound 1_000) in
    let ids = pair (int_bound 10_000) (int_bound 64) in
    oneof
      [
        map3
          (fun (b, a) (txn, client) items ->
            Helpers.read ~txn ~client ~bef:b ~aft:a items)
          interval ids (list_size (1 -- 5) item);
        map3
          (fun (b, a) (txn, client) items ->
            Helpers.write ~txn ~client ~bef:b ~aft:a items)
          interval ids (list_size (1 -- 5) item);
        map2
          (fun (b, a) (txn, client) ->
            Helpers.commit ~txn ~client ~bef:b ~aft:a ())
          interval ids;
        map2
          (fun (b, a) (txn, client) ->
            Helpers.abort ~txn ~client ~bef:b ~aft:a ())
          interval ids;
      ])

let prop_roundtrip =
  QCheck.Test.make ~name:"codec roundtrips arbitrary traces" ~count:500
    (QCheck.make gen_trace ~print:Trace.to_string)
    (fun t ->
      match Codec.of_line (Codec.to_line t) with
      | Ok (Some t') -> Trace.to_string t = Trace.to_string t'
      | Ok None | Error _ -> false)

(* Epoch markers: one file spans server restarts. *)

let marks =
  [
    { Codec.at = 15; epoch = 1; replayed = 3; damaged = 0 };
    { Codec.at = 65; epoch = 2; replayed = 7; damaged = 2 };
  ]

let test_epoch_line_roundtrip () =
  List.iter
    (fun m ->
      let line = Codec.epoch_to_line m in
      (match Codec.entry_of_line line with
      | Ok (Some (Codec.Epoch m')) ->
        Alcotest.(check bool) "epoch mark roundtrips" true (m = m')
      | _ -> Alcotest.failf "bad epoch decode: %s" line);
      (* plain of_line treats markers like comments: present but not a
         trace, so pre-epoch readers keep working *)
      Alcotest.(check bool)
        "of_line skips markers" true
        (Codec.of_line line = Ok None))
    marks

let test_malformed_epoch_lines_rejected () =
  let bad l = Result.is_error (Codec.entry_of_line l) in
  Alcotest.(check bool) "missing fields" true (bad "E 1 2");
  Alcotest.(check bool) "trailing junk" true (bad "E 1 2 3 4 5");
  Alcotest.(check bool) "bad int" true (bad "E one 2 3 4");
  Alcotest.(check bool) "epoch zero" true (bad "E 10 0 3 0");
  Alcotest.(check bool) "negative damage" true (bad "E 10 1 3 -1");
  Alcotest.(check bool)
    "strict of_line also rejects" true
    (Result.is_error (Codec.of_line "E 1 2"))

(* Ambiguous-commit markers: wire-mode COMMITs whose outcome the client
   never learned.  They ride in the same file, sorted chronologically,
   and readers unaware of them skip them without error. *)

let amb_marks =
  [
    { Codec.at = 25; txn = 4; client = 1 };
    { Codec.at = 75; txn = 9; client = 0 };
  ]

let test_ambiguous_line_roundtrip () =
  List.iter
    (fun m ->
      let line = Codec.ambiguous_to_line m in
      (match Codec.entry_of_line line with
      | Ok (Some (Codec.Ambiguous m')) ->
        Alcotest.(check bool) "ambiguous mark roundtrips" true (m = m')
      | _ -> Alcotest.failf "bad ambiguous decode: %s" line);
      Alcotest.(check bool)
        "of_line skips U markers" true
        (Codec.of_line line = Ok None))
    amb_marks

let test_malformed_ambiguous_lines_rejected () =
  let bad l = Result.is_error (Codec.entry_of_line l) in
  Alcotest.(check bool) "missing fields" true (bad "U 1 2");
  Alcotest.(check bool) "trailing junk" true (bad "U 1 2 3 4");
  Alcotest.(check bool) "bad int" true (bad "U one 2 3");
  Alcotest.(check bool) "negative txn" true (bad "U 10 -1 0")

(* Leader markers: failover boundaries with the lost commit suffix. *)

let leader_marks =
  [
    { Codec.at = 45; epoch = 2; primary = 0; lost = [ 7; 8 ] };
    { Codec.at = 95; epoch = 3; primary = 1; lost = [] };
  ]

let test_leader_line_roundtrip () =
  List.iter
    (fun m ->
      let line = Codec.leader_to_line m in
      (match Codec.entry_of_line line with
      | Ok (Some (Codec.Leader m')) ->
        Alcotest.(check bool) "leader mark roundtrips" true (m = m')
      | _ -> Alcotest.failf "bad leader decode: %s" line);
      Alcotest.(check bool)
        "of_line skips L markers" true
        (Codec.of_line line = Ok None))
    leader_marks

let test_malformed_leader_lines_rejected () =
  let bad l = Result.is_error (Codec.entry_of_line l) in
  Alcotest.(check bool) "missing fields" true (bad "L 1 2 3");
  Alcotest.(check bool) "trailing junk" true (bad "L 1 2 3 - x");
  Alcotest.(check bool) "bad int" true (bad "L one 2 3 -");
  Alcotest.(check bool) "epoch zero" true (bad "L 10 0 1 -");
  Alcotest.(check bool) "negative lost id" true (bad "L 10 2 1 4,-5");
  Alcotest.(check bool) "bad lost csv" true (bad "L 10 2 1 4,,5")

(* Shard topology and 2PC round markers: the sixth fault plane's
   footprint in a trace file. *)

let shard_marks = [ { Codec.at = 0; shards = 3 } ]

let prepare_marks =
  [
    { Codec.at = 30; txn = 5; shards = [ 0; 2 ]; disposition = Codec.Committed };
    { Codec.at = 60; txn = 7; shards = [ 1; 2 ]; disposition = Codec.Aborted };
    {
      Codec.at = 90;
      txn = 11;
      shards = [ 0; 1; 2 ];
      disposition = Codec.Unknown;
    };
  ]

let test_shard_line_roundtrip () =
  List.iter
    (fun m ->
      let line = Codec.shard_to_line m in
      (match Codec.entry_of_line line with
      | Ok (Some (Codec.Shard m')) ->
        Alcotest.(check bool) "shard mark roundtrips" true (m = m')
      | _ -> Alcotest.failf "bad shard decode: %s" line);
      Alcotest.(check bool)
        "of_line skips S markers" true
        (Codec.of_line line = Ok None))
    shard_marks

let test_malformed_shard_lines_rejected () =
  let bad l = Result.is_error (Codec.entry_of_line l) in
  Alcotest.(check bool) "missing fields" true (bad "S 0");
  Alcotest.(check bool) "trailing junk" true (bad "S 0 2 3");
  Alcotest.(check bool) "bad int" true (bad "S zero 2");
  Alcotest.(check bool) "negative instant" true (bad "S -1 2");
  Alcotest.(check bool) "one shard is not a group" true (bad "S 0 1")

let test_prepare_line_roundtrip () =
  List.iter
    (fun m ->
      let line = Codec.prepare_to_line m in
      (match Codec.entry_of_line line with
      | Ok (Some (Codec.Prepare m')) ->
        Alcotest.(check bool) "prepare mark roundtrips" true (m = m')
      | _ -> Alcotest.failf "bad prepare decode: %s" line);
      Alcotest.(check bool)
        "of_line skips P markers" true
        (Codec.of_line line = Ok None))
    prepare_marks

let test_malformed_prepare_lines_rejected () =
  let bad l = Result.is_error (Codec.entry_of_line l) in
  Alcotest.(check bool) "missing fields" true (bad "P 1 2 0,1");
  Alcotest.(check bool) "trailing junk" true (bad "P 1 2 0,1 c x");
  Alcotest.(check bool) "bad disposition" true (bad "P 1 2 0,1 z");
  Alcotest.(check bool) "bad int" true (bad "P one 2 0,1 c");
  Alcotest.(check bool) "empty shard csv" true (bad "P 1 2  c");
  Alcotest.(check bool) "bad shard csv" true (bad "P 1 2 0,,1 c");
  Alcotest.(check bool) "negative shard" true (bad "P 1 2 0,-1 c")

let test_sharded_file_roundtrip () =
  let path = Filename.temp_file "leopard" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Codec.save_ext ~path ~ambiguous:amb_marks ~shards:shard_marks
        ~prepares:prepare_marks ~epochs:marks samples;
      (match Codec.load_all ~path with
      | Ok c ->
        Alcotest.(check int) "traces survive" (List.length samples)
          (List.length c.Codec.c_traces);
        Alcotest.(check bool) "epochs survive" true (c.Codec.c_epochs = marks);
        Alcotest.(check bool) "ambiguous marks survive" true
          (c.Codec.c_ambiguous = amb_marks);
        Alcotest.(check bool) "shard marks survive" true
          (c.Codec.c_shards = shard_marks);
        Alcotest.(check bool) "prepare marks survive in order" true
          (c.Codec.c_prepares = prepare_marks)
      | Error e -> Alcotest.failf "load_all failed: %s" e);
      let c, skipped = Codec.load_lenient_all ~path in
      Alcotest.(check bool) "lenient all sees shard marks" true
        (c.Codec.c_shards = shard_marks);
      Alcotest.(check bool) "lenient all sees prepare marks" true
        (c.Codec.c_prepares = prepare_marks);
      Alcotest.(check int) "nothing skipped" 0 (List.length skipped))

let test_full_file_roundtrip () =
  let path = Filename.temp_file "leopard" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Codec.save_ext ~path ~ambiguous:amb_marks ~leaders:leader_marks
        ~epochs:marks samples;
      (match Codec.load_all ~path with
      | Ok c ->
        Alcotest.(check int) "traces survive" (List.length samples)
          (List.length c.c_traces);
        Alcotest.(check bool) "epochs survive" true (c.c_epochs = marks);
        Alcotest.(check bool) "ambiguous marks survive in order" true
          (c.c_ambiguous = amb_marks);
        Alcotest.(check bool) "leader marks survive in order" true
          (c.c_leaders = leader_marks)
      | Error e -> Alcotest.failf "load_all failed: %s" e);
      let c, skipped = Codec.load_lenient_all ~path in
      Alcotest.(check bool) "lenient sees epochs" true (c.c_epochs = marks);
      Alcotest.(check bool) "lenient sees ambiguous" true
        (c.c_ambiguous = amb_marks);
      Alcotest.(check bool) "lenient sees leaders" true
        (c.c_leaders = leader_marks);
      Alcotest.(check int) "nothing skipped" 0 (List.length skipped))

let test_ext_file_roundtrip () =
  let path = Filename.temp_file "leopard" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Codec.save_ext ~path ~epochs:marks samples;
      (* markers are merged chronologically: each E line precedes the
         first trace at-or-after its crash instant *)
      (match Codec.load_all ~path with
      | Ok c ->
        Alcotest.(check int) "traces survive" (List.length samples)
          (List.length c.c_traces);
        Alcotest.(check bool) "epochs survive in order" true
          (c.c_epochs = marks)
      | Error e -> Alcotest.failf "load_all failed: %s" e);
      let c, skipped = Codec.load_lenient_all ~path in
      Alcotest.(check bool) "lenient sees epochs too" true (c.c_epochs = marks);
      Alcotest.(check int) "nothing skipped" 0 (List.length skipped))

let suite =
  [
    Alcotest.test_case "roundtrip samples" `Quick test_roundtrip_each;
    Alcotest.test_case "epoch marker roundtrip" `Quick
      test_epoch_line_roundtrip;
    Alcotest.test_case "malformed epoch markers rejected" `Quick
      test_malformed_epoch_lines_rejected;
    Alcotest.test_case "multi-epoch file roundtrip" `Quick
      test_ext_file_roundtrip;
    Alcotest.test_case "ambiguous marker roundtrip" `Quick
      test_ambiguous_line_roundtrip;
    Alcotest.test_case "malformed ambiguous markers rejected" `Quick
      test_malformed_ambiguous_lines_rejected;
    Alcotest.test_case "leader marker roundtrip" `Quick
      test_leader_line_roundtrip;
    Alcotest.test_case "malformed leader markers rejected" `Quick
      test_malformed_leader_lines_rejected;
    Alcotest.test_case "full file roundtrip (U/L markers)" `Quick
      test_full_file_roundtrip;
    Alcotest.test_case "shard marker roundtrip" `Quick
      test_shard_line_roundtrip;
    Alcotest.test_case "malformed shard markers rejected" `Quick
      test_malformed_shard_lines_rejected;
    Alcotest.test_case "prepare marker roundtrip" `Quick
      test_prepare_line_roundtrip;
    Alcotest.test_case "malformed prepare markers rejected" `Quick
      test_malformed_prepare_lines_rejected;
    Alcotest.test_case "sharded file roundtrip (S/P markers)" `Quick
      test_sharded_file_roundtrip;
    Alcotest.test_case "comments and blanks" `Quick test_comments_and_blanks;
    Alcotest.test_case "bad lines rejected" `Quick test_bad_lines;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "error carries line number" `Quick
      test_error_line_number;
    Alcotest.test_case "real run roundtrip + same verdicts" `Quick
      test_real_run_roundtrip;
    Alcotest.test_case "lenient load skips bad lines" `Quick
      test_lenient_skips_bad_lines;
    Alcotest.test_case "lenient load equals strict on clean files" `Quick
      test_lenient_clean_file_equals_strict;
    Alcotest.test_case "lenient load survives truncated tail" `Quick
      test_lenient_truncated_tail;
    Alcotest.test_case "markers pass counts trace lines undecoded" `Quick
      test_load_markers_counts_trace_lines;
    Helpers.qtest prop_roundtrip;
  ]
