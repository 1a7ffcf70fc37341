(* Scenario tests for the Verifier: hand-crafted trace sequences with
   known verdicts, exercising Algorithm 2 end to end. *)

module Checker = Leopard.Checker
module Il = Leopard.Il_profile

let x = Helpers.cell 0
let y = Helpers.cell 1

let rr = Il.tidb_rr  (* ME + CR(txn), no FUW, no SC *)
let rc = Il.postgresql_rc
let si = Il.postgresql_si
let sr = Il.postgresql_serializable

(* --- clean scenarios: no violations --- *)

let test_clean_serial_history () =
  let traces =
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.commit ~txn:1 ~bef:30 ~aft:40 ();
      Helpers.read ~txn:2 ~bef:50 ~aft:60 [ (x, 100) ];
      Helpers.write ~txn:2 ~bef:70 ~aft:80 [ (x, 200) ];
      Helpers.commit ~txn:2 ~bef:90 ~aft:100 ();
      Helpers.read ~txn:3 ~bef:110 ~aft:120 [ (x, 200) ];
      Helpers.commit ~txn:3 ~bef:130 ~aft:140 ();
    ]
  in
  let r = Helpers.check sr traces in
  Alcotest.(check int) "no bugs" 0 r.bugs_total;
  Alcotest.(check int) "committed" 3 r.committed;
  (* wr(1->2), ww(1->2), wr(2->3), rw and friends *)
  Alcotest.(check bool) "deps deduced" true (r.deps_deduced >= 3)

let test_clean_snapshot_read () =
  (* reader's transaction-level snapshot predates a concurrent commit:
     reading the old value is correct under RR/SI *)
  let traces =
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.commit ~txn:1 ~bef:30 ~aft:40 ();
      Helpers.read ~txn:2 ~bef:50 ~aft:60 [ (x, 100) ];  (* snapshot here *)
      Helpers.write ~txn:3 ~bef:70 ~aft:80 [ (x, 300) ];
      Helpers.commit ~txn:3 ~bef:90 ~aft:100 ();
      Helpers.read ~txn:2 ~bef:110 ~aft:120 [ (x, 100) ];  (* still old *)
      Helpers.commit ~txn:2 ~bef:130 ~aft:140 ();
    ]
  in
  let r = Helpers.check rr traces in
  Alcotest.(check int) "repeatable read accepted" 0 r.bugs_total

let test_clean_stmt_level_read () =
  (* the same history is also fine at read committed *)
  let traces =
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.commit ~txn:1 ~bef:30 ~aft:40 ();
      Helpers.read ~txn:2 ~bef:50 ~aft:60 [ (x, 100) ];
      Helpers.write ~txn:3 ~bef:70 ~aft:80 [ (x, 300) ];
      Helpers.commit ~txn:3 ~bef:90 ~aft:100 ();
      Helpers.read ~txn:2 ~bef:110 ~aft:120 [ (x, 300) ];  (* sees new *)
      Helpers.commit ~txn:2 ~bef:130 ~aft:140 ();
    ]
  in
  let r = Helpers.check rc traces in
  Alcotest.(check int) "read committed accepted" 0 r.bugs_total

let test_overlapping_commit_tolerated () =
  (* the version's commit interval overlaps the snapshot: either value is
     possible, no violation *)
  let traces =
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.commit ~txn:1 ~bef:40 ~aft:60 ();
      Helpers.read ~txn:2 ~bef:50 ~aft:70 [ (x, 100) ];
      Helpers.commit ~txn:2 ~bef:80 ~aft:90 ();
    ]
  in
  let r = Helpers.check rr traces in
  Alcotest.(check int) "overlap tolerated" 0 r.bugs_total

(* --- CR violations --- *)

let test_cr_stale_read_flagged () =
  (* two versions certainly installed before the snapshot; reading the
     older (garbage) one is a violation *)
  let traces =
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.commit ~txn:1 ~bef:30 ~aft:40 ();
      Helpers.write ~txn:2 ~bef:50 ~aft:60 [ (x, 200) ];
      Helpers.commit ~txn:2 ~bef:70 ~aft:80 ();
      Helpers.read ~txn:3 ~bef:100 ~aft:110 [ (x, 100) ];
      Helpers.commit ~txn:3 ~bef:120 ~aft:130 ();
    ]
  in
  let r = Helpers.check rr traces in
  Alcotest.(check int) "stale read flagged" 1 r.bugs_total;
  Alcotest.(check (list string)) "CR mechanism" [ "CR" ]
    (Helpers.bug_mechanisms r)

let test_cr_dirty_read_flagged () =
  (* reading a value whose writer never committed *)
  let traces =
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.commit ~txn:1 ~bef:30 ~aft:40 ();
      Helpers.write ~txn:2 ~bef:50 ~aft:60 [ (x, 666) ];
      Helpers.read ~txn:3 ~bef:70 ~aft:80 [ (x, 666) ];
      Helpers.abort ~txn:2 ~bef:90 ~aft:100 ();
      Helpers.commit ~txn:3 ~bef:110 ~aft:120 ();
    ]
  in
  let r = Helpers.check rr traces in
  Alcotest.(check int) "dirty read flagged" 1 r.bugs_total;
  Alcotest.(check (list string)) "CR mechanism" [ "CR" ]
    (Helpers.bug_mechanisms r)

let test_cr_own_write_violation () =
  let traces =
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.read ~txn:1 ~bef:30 ~aft:40 [ (x, 55) ];  (* not 100! *)
      Helpers.commit ~txn:1 ~bef:50 ~aft:60 ();
    ]
  in
  let r = Helpers.check rr traces in
  Alcotest.(check int) "own write missed" 1 r.bugs_total

let test_cr_own_write_ok () =
  let traces =
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.read ~txn:1 ~bef:30 ~aft:40 [ (x, 100) ];
      Helpers.commit ~txn:1 ~bef:50 ~aft:60 ();
    ]
  in
  let r = Helpers.check rr traces in
  Alcotest.(check int) "own write seen" 0 r.bugs_total

let test_cr_future_read_flagged () =
  (* reading a version whose commit is certainly after the snapshot *)
  let traces =
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.commit ~txn:1 ~bef:30 ~aft:40 ();
      (* txn3's snapshot is its first read at (50,60) *)
      Helpers.read ~txn:3 ~bef:50 ~aft:60 [ (y, 0) ];
      Helpers.write ~txn:2 ~bef:70 ~aft:80 [ (x, 200) ];
      Helpers.commit ~txn:2 ~bef:90 ~aft:100 ();
      Helpers.read ~txn:3 ~bef:110 ~aft:120 [ (x, 200) ];  (* future! *)
      Helpers.commit ~txn:3 ~bef:130 ~aft:140 ();
    ]
  in
  let r = Helpers.check rr traces in
  Alcotest.(check int) "future read flagged" 1 r.bugs_total

(* deferred-read machinery: a commit trace whose ts_bef precedes the
   reading trace's ts_bef must still be matched *)
let test_deferred_read_out_of_order_commit () =
  let traces =
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      (* the read is dispatched before the writer's commit trace (smaller
         ts_bef), yet legitimately observed the committed value: the
         deferred check must wait for the commit *)
      Helpers.read ~txn:2 ~bef:22 ~aft:90 [ (x, 100) ];
      Helpers.commit ~txn:1 ~bef:25 ~aft:85 ();
      Helpers.commit ~txn:2 ~bef:95 ~aft:105 ();
    ]
  in
  let r = Helpers.check rr traces in
  Alcotest.(check int) "no false dirty read" 0 r.bugs_total

(* --- ME violations --- *)

let test_me_dirty_write_flagged () =
  (* txn2's whole write+commit nests inside txn1's lock hold *)
  let traces =
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.write ~txn:2 ~bef:30 ~aft:40 [ (x, 200) ];
      Helpers.commit ~txn:2 ~bef:50 ~aft:60 ();
      Helpers.commit ~txn:1 ~bef:70 ~aft:80 ();
    ]
  in
  let r = Helpers.check rr traces in
  Alcotest.(check bool) "ME violation" true
    (List.mem "ME" (Helpers.bug_mechanisms r))

let test_me_locking_read_flagged () =
  (* a FOR UPDATE read slipping inside a writer's lock hold *)
  let traces =
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.read ~locking:true ~txn:2 ~bef:30 ~aft:40 [ (x, 1) ];
      Helpers.commit ~txn:2 ~bef:50 ~aft:60 ();
      Helpers.commit ~txn:1 ~bef:70 ~aft:80 ();
    ]
  in
  let r = Helpers.check rr traces in
  Alcotest.(check bool) "ME violation via locking read" true
    (List.mem "ME" (Helpers.bug_mechanisms r))

let test_me_serial_locks_ok () =
  let traces =
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.commit ~txn:1 ~bef:30 ~aft:40 ();
      Helpers.write ~txn:2 ~bef:50 ~aft:60 [ (x, 200) ];
      Helpers.commit ~txn:2 ~bef:70 ~aft:80 ();
    ]
  in
  let r = Helpers.check rr traces in
  Alcotest.(check int) "serial locks fine" 0 r.bugs_total

let test_me_aborted_txn_still_checked () =
  (* the nested transaction aborts: its lock usage is still a violation *)
  let traces =
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.write ~txn:2 ~bef:30 ~aft:40 [ (x, 200) ];
      Helpers.abort ~txn:2 ~bef:50 ~aft:60 ();
      Helpers.commit ~txn:1 ~bef:70 ~aft:80 ();
    ]
  in
  let r = Helpers.check rr traces in
  Alcotest.(check bool) "aborted holder still flagged" true
    (List.mem "ME" (Helpers.bug_mechanisms r))

(* --- FUW violations --- *)

let test_fuw_lost_update_flagged () =
  (* both updaters snapshot before either commits, both commit *)
  let traces =
    [
      Helpers.read ~txn:1 ~bef:10 ~aft:20 [ (x, 0) ];
      Helpers.read ~txn:2 ~bef:15 ~aft:25 [ (x, 0) ];
      Helpers.write ~txn:1 ~bef:30 ~aft:40 [ (x, 100) ];
      Helpers.commit ~txn:1 ~bef:50 ~aft:60 ();
      Helpers.write ~txn:2 ~bef:70 ~aft:80 [ (x, 200) ];
      Helpers.commit ~txn:2 ~bef:90 ~aft:100 ();
    ]
  in
  let r = Helpers.check si traces in
  Alcotest.(check bool) "FUW violation" true
    (List.mem "FUW" (Helpers.bug_mechanisms r))

let test_fuw_serial_updates_ok () =
  let traces =
    [
      Helpers.read ~txn:1 ~bef:10 ~aft:20 [ (x, 0) ];
      Helpers.write ~txn:1 ~bef:30 ~aft:40 [ (x, 100) ];
      Helpers.commit ~txn:1 ~bef:50 ~aft:60 ();
      Helpers.read ~txn:2 ~bef:70 ~aft:80 [ (x, 100) ];
      Helpers.write ~txn:2 ~bef:90 ~aft:100 [ (x, 200) ];
      Helpers.commit ~txn:2 ~bef:110 ~aft:120 ();
    ]
  in
  let r = Helpers.check si traces in
  Alcotest.(check int) "serial updates fine" 0 r.bugs_total

(* --- SC violation (write skew at PostgreSQL serializable) --- *)

let test_sc_write_skew_flagged () =
  let traces =
    [
      (* initial versions, serial prefix *)
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 10); (y, 20) ];
      Helpers.commit ~txn:1 ~bef:30 ~aft:40 ();
      (* concurrent skew pair; note disjoint write rows so FUW/ME silent *)
      Helpers.read ~txn:2 ~bef:100 ~aft:110 [ (x, 10); (y, 20) ];
      Helpers.read ~txn:3 ~bef:105 ~aft:115 [ (x, 10); (y, 20) ];
      Helpers.write ~txn:2 ~bef:120 ~aft:130 [ (x, 11) ];
      Helpers.write ~txn:3 ~bef:125 ~aft:135 [ (y, 21) ];
      Helpers.commit ~txn:2 ~bef:140 ~aft:150 ();
      Helpers.commit ~txn:3 ~bef:160 ~aft:170 ();
    ]
  in
  let r = Helpers.check sr traces in
  Alcotest.(check bool) "SC violation" true
    (List.mem "SC" (Helpers.bug_mechanisms r))

let test_sc_serial_ok () =
  let traces =
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 10); (y, 20) ];
      Helpers.commit ~txn:1 ~bef:30 ~aft:40 ();
      Helpers.read ~txn:2 ~bef:100 ~aft:110 [ (x, 10); (y, 20) ];
      Helpers.write ~txn:2 ~bef:120 ~aft:130 [ (x, 11) ];
      Helpers.commit ~txn:2 ~bef:140 ~aft:150 ();
      Helpers.read ~txn:3 ~bef:200 ~aft:210 [ (x, 11); (y, 20) ];
      Helpers.write ~txn:3 ~bef:220 ~aft:230 [ (y, 21) ];
      Helpers.commit ~txn:3 ~bef:240 ~aft:250 ();
    ]
  in
  let r = Helpers.check sr traces in
  Alcotest.(check int) "serial history fine" 0 r.bugs_total

(* --- §V-A cooperation: ww deductions narrow the candidate set --- *)

(* Two versions of x with overlapping commit intervals: intervals alone
   cannot order them, so both stay candidates and a stale read slips
   through.  The lock intervals, however, prove the order (Theorem 3), and
   the deduced ww lets the CR check drop the overwritten version. *)
let narrowing_traces =
  [
    Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
    Helpers.write ~txn:2 ~bef:35 ~aft:70 [ (x, 200) ];
    Helpers.commit ~txn:1 ~bef:30 ~aft:80 ();
    Helpers.commit ~txn:2 ~bef:75 ~aft:85 ();
    (* stale read: returns the overwritten version *)
    Helpers.read ~txn:3 ~bef:100 ~aft:110 [ (x, 100) ];
    Helpers.commit ~txn:3 ~bef:120 ~aft:130 ();
  ]

let run_narrowing ~narrow_candidates =
  let checker = Checker.create ~narrow_candidates rr in
  List.iter (Checker.feed checker)
    (List.sort Leopard_trace.Trace.compare_by_bef narrowing_traces);
  Checker.finalize checker;
  Checker.report checker

let test_narrowing_catches_stale_read () =
  let r = run_narrowing ~narrow_candidates:true in
  Alcotest.(check int) "stale read caught with narrowing" 1 r.bugs_total;
  Alcotest.(check (list string)) "CR" [ "CR" ] (Helpers.bug_mechanisms r);
  (* the enabling ww deduction came from mutual exclusion *)
  Alcotest.(check bool) "ww(1->2) deduced" true
    (List.exists
       (fun (s, n) -> s = Leopard.Dep.From_me && n > 0)
       r.deduced_by_source)

let test_narrowing_ablation () =
  let r = run_narrowing ~narrow_candidates:false in
  Alcotest.(check int) "interval reasoning alone misses it" 0 r.bugs_total

let test_narrowing_no_false_positive () =
  (* same history but the read returns the surviving version: fine *)
  let traces =
    List.map
      (fun tr ->
        match tr.Leopard_trace.Trace.payload with
        | Leopard_trace.Trace.Read _ when tr.Leopard_trace.Trace.txn = 3 ->
          Helpers.read ~txn:3 ~bef:100 ~aft:110 [ (x, 200) ]
        | _ -> tr)
      narrowing_traces
  in
  let checker = Checker.create ~narrow_candidates:true rr in
  List.iter (Checker.feed checker)
    (List.sort Leopard_trace.Trace.compare_by_bef traces);
  Checker.finalize checker;
  Alcotest.(check int) "correct read accepted" 0
    (Checker.report checker).bugs_total

(* --- table-granularity mutual exclusion (SQLite) --- *)

let test_table_lock_violation () =
  (* two writers of *different rows* of the same table, nested: fine under
     row locks, a violation under SQLite's table locks *)
  let traces =
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.write ~txn:2 ~bef:30 ~aft:40 [ (y, 200) ];  (* same table *)
      Helpers.commit ~txn:2 ~bef:50 ~aft:60 ();
      Helpers.commit ~txn:1 ~bef:70 ~aft:80 ();
    ]
  in
  let sqlite = Helpers.check Il.sqlite_serializable traces in
  Alcotest.(check bool) "table-lock violation" true
    (List.mem "ME" (Helpers.bug_mechanisms sqlite));
  let row_level = Helpers.check rr traces in
  Alcotest.(check int) "row locks accept it" 0 row_level.bugs_total

(* --- plumbing --- *)

let test_feed_rejects_unsorted () =
  let checker = Checker.create rr in
  Checker.feed checker (Helpers.commit ~txn:1 ~bef:100 ~aft:110 ());
  Alcotest.(check bool) "raises on regression" true
    (try
       Checker.feed checker (Helpers.commit ~txn:2 ~bef:50 ~aft:60 ());
       false
     with Invalid_argument _ -> true)

let test_gc_stability () =
  (* verdicts must not depend on GC frequency *)
  let traces =
    List.concat
      (List.init 40 (fun i ->
           let base = i * 100 in
           let txn = i in
           [
             Helpers.write ~txn ~bef:(base + 10) ~aft:(base + 20)
               [ (x, 1000 + i) ];
             Helpers.commit ~txn ~bef:(base + 30) ~aft:(base + 40) ();
           ]))
  in
  let run gc_every =
    let checker = Checker.create ~gc_every rr in
    List.iter (Checker.feed checker) traces;
    Checker.finalize checker;
    (Checker.report checker).bugs_total
  in
  Alcotest.(check int) "gc=1 equals gc=off" (run 0) (run 1);
  let checker = Checker.create ~gc_every:4 rr in
  List.iter (Checker.feed checker) traces;
  Checker.finalize checker;
  let r = Checker.report checker in
  Alcotest.(check bool) "gc reclaimed state" true (r.pruned_versions > 0);
  Alcotest.(check bool) "final live below peak" true
    (r.final_live <= r.peak_live)

let test_deduction_log_exposed () =
  let traces =
    [
      Helpers.write ~txn:1 ~bef:10 ~aft:20 [ (x, 100) ];
      Helpers.commit ~txn:1 ~bef:30 ~aft:40 ();
      Helpers.read ~txn:2 ~bef:50 ~aft:60 [ (x, 100) ];
      Helpers.commit ~txn:2 ~bef:70 ~aft:80 ();
    ]
  in
  let checker = Checker.create rr in
  List.iter (Checker.feed checker) traces;
  Checker.finalize checker;
  Alcotest.(check bool) "wr 1->2 deduced" true
    (Checker.deduced checker Leopard.Dep.Wr 1 2)

(* A hub: 2,000 transactions read the one version of [x], and reader
   1,000 reads it again after 500 later readers have registered.
   Registration is exact — each reader is on the version's list once,
   newest first — and costs O(1) a read, which the 100,000-reader form
   of this history needs to finish in seconds. *)
let test_hub_readers_registered_once () =
  let n = 2000 and twice = 1000 in
  let read ~client i bef =
    Helpers.read ~client ~txn:i ~bef ~aft:(bef + 1) [ (x, 1) ]
  in
  let reader i =
    if i = twice then
      let later = (10 * (i + 500)) + 6 in
      [
        read ~client:8 i (10 * i); read ~client:8 i later;
        Helpers.commit ~client:8 ~txn:i ~bef:(later + 2) ~aft:(later + 3) ();
      ]
    else
      let client = i mod 8 in
      [
        read ~client i (10 * i);
        Helpers.commit ~client ~txn:i ~bef:((10 * i) + 2)
          ~aft:((10 * i) + 3) ();
      ]
  in
  let traces =
    Helpers.write ~txn:0 ~bef:1 ~aft:2 [ (x, 1) ]
    :: Helpers.commit ~txn:0 ~bef:3 ~aft:4 ()
    :: List.concat (List.init n (fun k -> reader (k + 1)))
    |> List.sort Leopard_trace.Trace.compare_by_bef
  in
  let checker = Checker.create sr in
  List.iter (Checker.feed checker) traces;
  Checker.finalize checker;
  let r = Checker.report checker in
  Alcotest.(check bool) "verified" true (Checker.verdict r = Checker.Verified);
  let readers =
    List.filter_map
      (fun line ->
        match String.split_on_char '\t' line with
        | "vo" :: fields -> (
          match List.rev fields with
          | readers :: _ ->
            Some (List.map int_of_string (String.split_on_char ',' readers))
          | [] -> None)
        | _ -> None)
      (Checker.encode checker)
  in
  Alcotest.(check (list (list int)))
    "one vo record, every reader once, newest first"
    [ List.init n (fun k -> n - k) ]
    readers

let suite =
  [
    Alcotest.test_case "clean serial history" `Quick test_clean_serial_history;
    Alcotest.test_case "clean snapshot read" `Quick test_clean_snapshot_read;
    Alcotest.test_case "clean stmt-level read" `Quick test_clean_stmt_level_read;
    Alcotest.test_case "overlapping commit tolerated" `Quick
      test_overlapping_commit_tolerated;
    Alcotest.test_case "CR: stale read flagged" `Quick test_cr_stale_read_flagged;
    Alcotest.test_case "CR: dirty read flagged" `Quick test_cr_dirty_read_flagged;
    Alcotest.test_case "CR: own-write violation" `Quick
      test_cr_own_write_violation;
    Alcotest.test_case "CR: own-write ok" `Quick test_cr_own_write_ok;
    Alcotest.test_case "CR: future read flagged" `Quick
      test_cr_future_read_flagged;
    Alcotest.test_case "deferred read, out-of-order commit" `Quick
      test_deferred_read_out_of_order_commit;
    Alcotest.test_case "ME: dirty write flagged" `Quick
      test_me_dirty_write_flagged;
    Alcotest.test_case "ME: locking read flagged" `Quick
      test_me_locking_read_flagged;
    Alcotest.test_case "ME: serial locks ok" `Quick test_me_serial_locks_ok;
    Alcotest.test_case "ME: aborted txn still checked" `Quick
      test_me_aborted_txn_still_checked;
    Alcotest.test_case "FUW: lost update flagged" `Quick
      test_fuw_lost_update_flagged;
    Alcotest.test_case "FUW: serial updates ok" `Quick test_fuw_serial_updates_ok;
    Alcotest.test_case "SC: write skew flagged" `Quick test_sc_write_skew_flagged;
    Alcotest.test_case "SC: serial ok" `Quick test_sc_serial_ok;
    Alcotest.test_case "narrowing catches stale read" `Quick
      test_narrowing_catches_stale_read;
    Alcotest.test_case "narrowing ablation (off misses it)" `Quick
      test_narrowing_ablation;
    Alcotest.test_case "narrowing no false positive" `Quick
      test_narrowing_no_false_positive;
    Alcotest.test_case "table-lock ME granularity" `Quick
      test_table_lock_violation;
    Alcotest.test_case "feed rejects unsorted" `Quick test_feed_rejects_unsorted;
    Alcotest.test_case "gc stability" `Quick test_gc_stability;
    Alcotest.test_case "deduction log exposed" `Quick test_deduction_log_exposed;
    Alcotest.test_case "hub version registers each reader once" `Quick
      test_hub_readers_registered_once;
  ]
