(* Bounded-memory continuous verification and crash-tolerant checker
   checkpoints.

   The contract under test, in order of increasing machinery:

   - the pipeline's stall-bound footgun fails fast (a bound without a
     clock would silently never trip);
   - the online monitor's residual-lag accounting is exact: every
     produced trace is dispatched, dropped-late or stranded — never
     silently lost;
   - [Checker.truncate] changes memory, never verdicts: a truncating
     pass reports the same totals, the same bugs and the same verdict
     as an untruncated pass, across a 50-seed sweep;
   - truncated live state is O(window), not O(history), lossy collection
     included: a transaction whose terminal trace was lost is superseded
     by its client's next one and stops pinning the horizon;
   - a client that interleaves transactions (outside the trace model)
     gets the report of the same history on separate clients when
     nothing was pruned past its transactions, and an
     Inconclusive verdict, never a false Violation, when it was;
   - [Checker.encode]/[decode] round-trip mid-stream: a decoded checker
     fed the remaining stream reproduces the uninterrupted report
     field-for-field, superseded state included, and refuses foreign
     profiles/flags; a snapshot without that state still resumes to the
     same verdict;
   - a snapshot corpus holding all 21 record kinds encodes to committed
     golden bytes, and every one of its records, damaged, is rejected
     by name;
   - the [Ckpt] container survives the campaign checkpoint's 18-way
     damage ladder: any corruption degrades to an older frame or a
     fresh start with a warning, never to trusting damaged bytes;
   - the CLI flag grammar rejects silently-inert combinations. *)

module H = Leopard_harness
module W = Leopard_workload
module Il = Leopard.Il_profile
module Trace = Leopard_trace.Trace
module Cell = Leopard_trace.Cell
module Ckpt = Leopard_trace.Ckpt
module Rng = Leopard_util.Rng

let il_sr = Il.postgresql_serializable

(* The cadence-independent outputs: what the verifier {e asserts} about
   a history.  Truncation legitimately changes how deps are deduced
   (fewer transactions coexist, so ME deduces fewer pairs and the
   version order deduces more) and the free-text bug detail (candidate
   and known-version counts reflect pruned state), so this digest keeps
   verdict, bug identities (mechanism, transactions, cell), the history
   counts and the degradation ledger — and leaves out deduction tallies,
   bug prose and memory/gc counters. *)
let verdict_digest (r : Leopard.Checker.report) =
  let d = r.degradation in
  let bug_id (b : Leopard.Bug.t) =
    Printf.sprintf "%s{%s}%s"
      (Leopard.Bug.mechanism_to_string b.mechanism)
      (String.concat "," (List.map string_of_int b.txns))
      (match b.cell with Some c -> Cell.to_string c | None -> "-")
  in
  Printf.sprintf
    "t=%d c=%d a=%d bugs=%d [%s] mech=[%s] reads=%d res=%d \
     deg=%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d verdict=%s"
    r.traces r.committed r.aborted r.bugs_total
    (String.concat ";" (List.sort String.compare (List.map bug_id r.bugs)))
    (String.concat ";"
       (List.map
          (fun (m, n) ->
            Printf.sprintf "%s=%d" (Leopard.Bug.mechanism_to_string m) n)
          r.bugs_by_mechanism))
    r.reads_checked r.resolved_ambiguous d.crashed_clients
    d.indeterminate_txns d.dup_traces_dropped d.late_traces_dropped
    d.lost_traces d.inconclusive_reads d.unterminated_txns d.restarts
    d.recovery_lost_records d.ambiguous_commits d.failovers
    d.lost_suffix_commits d.coord_ambiguous_commits
    (match Leopard.Checker.verdict r with
    | Leopard.Checker.Verified -> "V"
    | Leopard.Checker.Violation -> "B"
    | Leopard.Checker.Inconclusive why -> "I:" ^ why)

(* The strict digest adds deduction tallies and full bug prose — it only
   holds between runs with the {e same} truncation cadence (a resumed
   checker vs. the uninterrupted one), where the pruned state is
   identical at every step. *)
let digest (r : Leopard.Checker.report) =
  let d = r.degradation in
  Printf.sprintf
    "t=%d c=%d a=%d bugs=%d [%s] mech=[%s] deps=%d [%s] reads=%d res=%d \
     deg=%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d verdict=%s"
    r.traces r.committed r.aborted r.bugs_total
    (String.concat ";" (List.map Leopard.Bug.to_string r.bugs))
    (String.concat ";"
       (List.map
          (fun (m, n) ->
            Printf.sprintf "%s=%d" (Leopard.Bug.mechanism_to_string m) n)
          r.bugs_by_mechanism))
    r.deps_deduced
    (String.concat ";"
       (List.map
          (fun (s, n) ->
            Printf.sprintf "%s=%d" (Leopard.Dep.source_to_string s) n)
          r.deduced_by_source))
    r.reads_checked r.resolved_ambiguous d.crashed_clients
    d.indeterminate_txns d.dup_traces_dropped d.late_traces_dropped
    d.lost_traces d.inconclusive_reads d.unterminated_txns d.restarts
    d.recovery_lost_records d.ambiguous_commits d.failovers
    d.lost_suffix_commits d.coord_ambiguous_commits
    (match Leopard.Checker.verdict r with
    | Leopard.Checker.Verified -> "V"
    | Leopard.Checker.Violation -> "B"
    | Leopard.Checker.Inconclusive why -> "I:" ^ why)

(* A feeding pass that truncates every [window] traces at the current
   trace's ts_bef — the sorted stream's own watermark.  [on_dep] sees
   each deduction the checker reports fresh. *)
let check_truncating ?(window = 40) ?on_dep profile traces =
  let checker = Leopard.Checker.create profile in
  Option.iter (Leopard.Checker.set_dep_hook checker) on_dep;
  let n = ref 0 in
  List.iter
    (fun (tr : Trace.t) ->
      Leopard.Checker.feed checker tr;
      incr n;
      if !n mod window = 0 then
        Leopard.Checker.truncate checker ~watermark:tr.Trace.ts_bef)
    (List.sort Trace.compare_by_bef traces);
  Leopard.Checker.finalize checker;
  Leopard.Checker.report checker

(* --- satellite: the stall bound demands a clock -------------------- *)

let test_stall_bound_requires_clock () =
  let sources = [| (fun () -> Leopard.Pipeline.Closed) |] in
  Alcotest.check_raises "max_stall_ns without now fails fast"
    (Invalid_argument
       "Pipeline.create: max_stall_ns requires a real clock (pass ~now)")
    (fun () ->
      ignore (Leopard.Pipeline.create ~max_stall_ns:1_000 ~sources ()));
  (* with a clock the bound is accepted; without the bound no clock is
     needed (offline mode's complete-streams assumption) *)
  ignore
    (Leopard.Pipeline.create ~max_stall_ns:1_000 ~now:(fun () -> 0) ~sources
       ());
  ignore (Leopard.Pipeline.create ~sources ())

(* --- satellite: honest residual-lag accounting --------------------- *)

let online_config ?faults ?chaos ~seed ~txns () =
  H.Run.config ?faults ?chaos ~clients:12 ~seed
    ~spec:(W.Blindw.spec W.Blindw.RW) ~profile:Minidb.Profile.postgresql
    ~level:Minidb.Isolation.Serializable ~stop:(H.Run.Txn_count txns) ()

let test_online_lag_identity () =
  (* clean run: the verifier saw everything *)
  let r = H.Online.run ~il:il_sr (online_config ~seed:3 ~txns:600 ()) in
  Alcotest.(check int) "clean run: no residual lag" 0 r.final_lag;
  Alcotest.(check int) "clean run: nothing stranded" 0 r.stranded;
  (* crashy runs: produced = dispatched + late_dropped + stranded, and
     everything the verifier never saw is accounted as degradation *)
  for seed = 0 to 9 do
    let chaos =
      H.Chaos.config ~seed ~crash_prob:0.004 ~drop_prob:0.02 ~dup_prob:0.01
        ~delay_prob:0.05 ~max_delay_ns:800_000 ~clock_skew_ns:0 ()
    in
    let r =
      H.Online.run ~max_stall_ns:2_000_000 ~il:il_sr
        (online_config ~chaos ~seed ~txns:600 ())
    in
    let d = r.report.Leopard.Checker.degradation in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: final_lag = late_dropped + stranded" seed)
      (d.Leopard.Checker.late_traces_dropped + r.stranded)
      r.final_lag;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: stranded traces are counted lost" seed)
      true
      (d.Leopard.Checker.lost_traces >= r.stranded)
  done

(* --- tentpole: truncation never changes the verdict ---------------- *)

(* TPC-C keeps inserting rows, so its key space grows with the history:
   most cells get one version, and many are read before any is known. *)
let tpcc_traces ~seed ~txns =
  H.Run.all_traces_sorted
    (H.Run.execute
       (H.Run.config ~clients:8 ~seed ~spec:(W.Tpcc.spec ())
          ~profile:Minidb.Profile.postgresql
          ~level:Minidb.Isolation.Serializable ~stop:(H.Run.Txn_count txns) ()))

(* A truncating pass that also asserts what a cut may fold: an entry no
   later trace deduces again.  So no (kind, from, to) triple is reported
   fresh twice, and [deps_deduced] counts each distinct triple once. *)
let check_folding ~what ~window il traces =
  let seen = Hashtbl.create 1024 and repeats = ref 0 in
  let r =
    check_truncating ~window il traces ~on_dep:(fun (d : Leopard.Dep.t) ->
        let key = (Leopard.Dep.kind_to_string d.kind, d.from_txn, d.to_txn) in
        if Hashtbl.mem seen key then incr repeats
        else Hashtbl.replace seen key ())
  in
  Alcotest.(check int) (what ^ ": no folded triple deduced again") 0 !repeats;
  Alcotest.(check int)
    (what ^ ": deps_deduced counts distinct triples")
    (Hashtbl.length seen) r.Leopard.Checker.deps_deduced;
  r

let test_truncated_equals_untruncated_sweep () =
  (* 50 seeds; every fifth one runs a faulted probe so the Violation
     path is exercised, the rest run clean chaos-free histories; every
     seed also runs a TPC-C leg, and the first three cut after every
     trace too *)
  for seed = 0 to 49 do
    let traces, il =
      if seed mod 5 = 0 then begin
        let p = W.Probes.for_fault Minidb.Fault.Stale_read in
        let o =
          H.Run.execute
            (H.Run.config
               ~faults:(Minidb.Fault.Set.singleton p.fault)
               ~clients:p.clients ~seed ~spec:p.spec ~profile:p.db_profile
               ~level:p.level ~stop:(H.Run.Txn_count 300) ())
        in
        (H.Run.all_traces_sorted o, Option.get (Il.find p.verifier_profile))
      end
      else begin
        let o = H.Run.execute (online_config ~seed ~txns:300 ()) in
        (H.Run.all_traces_sorted o, il_sr)
      end
    in
    List.iter
      (fun (leg, traces, il) ->
        let plain = Helpers.check il traces in
        let what = Printf.sprintf "%s seed %d" leg seed in
        let truncated = check_folding ~what ~window:37 il traces in
        Alcotest.(check string)
          (what ^ ": truncated digest equals untruncated")
          (verdict_digest plain)
          (verdict_digest truncated);
        if seed < 3 then
          Alcotest.(check string)
            (what ^ ": cut every trace, digest equals untruncated")
            (verdict_digest plain)
            (verdict_digest
               (check_folding ~what:(what ^ " every trace") ~window:1 il
                  traces));
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d: truncations happened" leg seed)
          true
          (truncated.Leopard.Checker.truncations > 0))
      [ ("base", traces, il); ("tpcc", tpcc_traces ~seed ~txns:300, il_sr) ]
  done

(* The GC cadence changes how many deps get deduced (fewer transactions
   coexist), never what the verifier asserts.  With GC off as the
   reference, a GC after every trace must reach the same verdict. *)
let test_tpcc_gc_cadence () =
  let traces = tpcc_traces ~seed:7 ~txns:600 in
  let digest gc_every =
    let checker = Leopard.Checker.create ~gc_every il_sr in
    List.iter (Leopard.Checker.feed checker) traces;
    Leopard.Checker.finalize checker;
    verdict_digest (Leopard.Checker.report checker)
  in
  let reference = digest 0 in
  List.iter
    (fun gc_every ->
      Alcotest.(check string)
        (Printf.sprintf "gc_every %d digest equals gc off" gc_every)
        reference (digest gc_every))
    [ 1; 64; 512 ]

(* --- tentpole: live state is O(window), not O(history) ------------- *)

(* A synthetic stream: txn i reads the previous value of cell
   (i mod cells), overwrites it with i+1, commits, in disjoint
   intervals — Verified at any scale, with a version chain per cell and
   a dependency log that only truncation bounds. *)
let synthetic_soak ~txns ~window =
  let cells = 16 in
  let checker = Leopard.Checker.create il_sr in
  let cell i = Cell.make ~table:0 ~row:(i mod cells) ~col:0 in
  let worst = ref 0 in
  for i = 0 to txns - 1 do
    let t = i * 8 in
    if i >= cells then
      Leopard.Checker.feed checker
        (Helpers.read ~txn:i ~bef:t ~aft:(t + 1)
           [ (cell i, i - cells + 1) ]);
    Leopard.Checker.feed checker
      (Helpers.write ~txn:i ~bef:(t + 2) ~aft:(t + 3) [ (cell i, i + 1) ]);
    Leopard.Checker.feed checker
      (Helpers.commit ~txn:i ~bef:(t + 4) ~aft:(t + 5) ());
    if window > 0 && i mod window = window - 1 then begin
      Leopard.Checker.truncate checker ~watermark:t;
      worst := max !worst (Leopard.Checker.live_size checker)
    end
  done;
  Leopard.Checker.finalize checker;
  (Leopard.Checker.report checker, !worst)

let test_live_size_bounded_by_window () =
  let r1, _ = synthetic_soak ~txns:4_000 ~window:500 in
  let r4, post4 = synthetic_soak ~txns:16_000 ~window:500 in
  let u4, _ = synthetic_soak ~txns:16_000 ~window:0 in
  Alcotest.(check int) "soak verifies clean" 0 r4.Leopard.Checker.bugs_total;
  (match Leopard.Checker.verdict r4 with
  | Leopard.Checker.Verified -> ()
  | _ -> Alcotest.fail "synthetic soak must verify");
  (* 4x the history, (almost) the same peak: O(window) *)
  Alcotest.(check bool)
    (Printf.sprintf "peak live flat across scales (%d vs %d)"
       r1.Leopard.Checker.peak_live r4.Leopard.Checker.peak_live)
    true
    (r4.Leopard.Checker.peak_live
    <= r1.Leopard.Checker.peak_live + (r1.Leopard.Checker.peak_live / 5));
  (* the untruncated checker is history-bound: gc alone cannot bound
     the deduction log, so its peak keeps growing with the history *)
  Alcotest.(check bool)
    (Printf.sprintf "untruncated peak is history-bound (%d vs %d)"
       u4.Leopard.Checker.peak_live r4.Leopard.Checker.peak_live)
    true
    (u4.Leopard.Checker.peak_live > 2 * r4.Leopard.Checker.peak_live);
  (* post-truncation live size never exceeds a window's worth of state *)
  Alcotest.(check bool)
    (Printf.sprintf "post-truncation live size bounded (%d)" post4)
    true
    (post4 < u4.Leopard.Checker.peak_live / 2);
  (* the verdict-level outputs survive the folding *)
  Alcotest.(check string) "verdict digest matches untruncated"
    (verdict_digest u4) (verdict_digest r4)

(* A and B write 5 to x.  Their commits overlap, so the version order
   cannot order them, but B wrote x after A's commit may have released
   the lock, so ME and FUW deduce ww A -> B.  Both settle, and a cut
   runs while C's read holds the horizon.  R then reads 5 with a
   snapshot after both: A's and B's versions are both candidates, and
   only the ww edge rules A's out, which leaves R a wr edge from B.
   Neither A nor B is tracked at the cut; the edge survives it because
   both wrote versions on one multi-version chain. *)
let test_cut_keeps_narrowing_ww () =
  let x = Helpers.cell 0 and y = Helpers.cell 1 in
  let a = 1 and b = 2 and c = 3 and r = 4 in
  let run ~cut =
    let checker = Leopard.Checker.create il_sr in
    List.iter (Leopard.Checker.feed checker)
      [
        Helpers.write ~client:1 ~txn:a ~bef:10 ~aft:12 [ (x, 5) ];
        Helpers.commit ~client:1 ~txn:a ~bef:20 ~aft:40 ();
        Helpers.write ~client:2 ~txn:b ~bef:30 ~aft:32 [ (x, 5) ];
        Helpers.commit ~client:2 ~txn:b ~bef:35 ~aft:45 ();
        Helpers.read ~client:3 ~txn:c ~bef:60 ~aft:61 [ (y, 0) ];
      ];
    if cut then Leopard.Checker.truncate checker ~watermark:60;
    List.iter (Leopard.Checker.feed checker)
      [
        Helpers.commit ~client:3 ~txn:c ~bef:62 ~aft:63 ();
        Helpers.read ~client:4 ~txn:r ~bef:100 ~aft:101 [ (x, 5) ];
        Helpers.commit ~client:4 ~txn:r ~bef:102 ~aft:103 ();
      ];
    Leopard.Checker.finalize checker;
    checker
  in
  List.iter
    (fun (what, checker) ->
      Alcotest.(check bool)
        (what ^ ": wr b->r deduced") true
        (Leopard.Checker.deduced checker Leopard.Dep.Wr b r);
      Alcotest.(check bool)
        (what ^ ": ww a->b still logged") true
        (Leopard.Checker.deduced checker Leopard.Dep.Ww a b);
      Alcotest.(check bool)
        (what ^ ": verified") true
        (Leopard.Checker.verdict (Leopard.Checker.report checker)
        = Leopard.Checker.Verified))
    [ ("untruncated", run ~cut:false); ("cut", run ~cut:true) ]

(* One version of x, then [readers] transactions that each read it and
   commit, cut every [window] traces.  The version lists every reader,
   yet a settled reader is tracked no more, so each cut folds its wr
   edge.  Returns the report and the largest live size right after a
   cut. *)
let hub_soak ~readers ~window =
  let x = Helpers.cell 0 in
  let checker = Leopard.Checker.create il_sr in
  let fed = ref 0 and worst = ref 0 in
  let feed (tr : Trace.t) =
    Leopard.Checker.feed checker tr;
    incr fed;
    if !fed mod window = 0 then begin
      Leopard.Checker.truncate checker ~watermark:tr.ts_bef;
      worst := max !worst (Leopard.Checker.live_size checker)
    end
  in
  feed (Helpers.write ~txn:0 ~bef:0 ~aft:1 [ (x, 42) ]);
  feed (Helpers.commit ~txn:0 ~bef:2 ~aft:3 ());
  for i = 1 to readers do
    let t = 10 + (4 * (i - 1)) and client = i mod 8 in
    feed (Helpers.read ~client ~txn:i ~bef:t ~aft:(t + 1) [ (x, 42) ]);
    feed (Helpers.commit ~client ~txn:i ~bef:(t + 2) ~aft:(t + 3) ())
  done;
  Leopard.Checker.finalize checker;
  (Leopard.Checker.report checker, !worst)

let test_hub_readers_fold () =
  let window = 500 in
  let small, after_small = hub_soak ~readers:4_000 ~window in
  let large, after_large = hub_soak ~readers:16_000 ~window in
  List.iter
    (fun (readers, (r : Leopard.Checker.report), after) ->
      Alcotest.(check bool)
        (Printf.sprintf "%d readers: verified" readers)
        true
        (Leopard.Checker.verdict r = Leopard.Checker.Verified);
      Alcotest.(check bool)
        (Printf.sprintf "%d readers: live size after a cut (%d) within the \
                         window"
           readers after)
        true (after <= window))
    [ (4_000, small, after_small); (16_000, large, after_large) ];
  Alcotest.(check bool)
    (Printf.sprintf "peak live flat across 4x readers (%d vs %d)"
       small.peak_live large.peak_live)
    true
    (large.peak_live <= small.peak_live + (small.peak_live / 5))

(* --- tentpole: encode/decode round-trips mid-stream ---------------- *)

let split_at n l =
  let rec go i acc = function
    | rest when i = n -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (i + 1) (x :: acc) rest
  in
  go 0 [] l

let test_encode_decode_roundtrip () =
  for seed = 0 to 9 do
    let p = W.Probes.for_fault Minidb.Fault.Stale_read in
    let o =
      H.Run.execute
        (H.Run.config
           ~faults:(Minidb.Fault.Set.singleton p.fault)
           ~clients:p.clients ~seed ~spec:p.spec ~profile:p.db_profile
           ~level:p.level ~stop:(H.Run.Txn_count 300) ())
    in
    let il = Option.get (Il.find p.verifier_profile) in
    let traces = H.Run.all_traces_sorted o in
    let cut = List.length traces / 2 in
    let first, rest = split_at cut traces in
    let a = Leopard.Checker.create il in
    List.iter (Leopard.Checker.feed a) first;
    (match first with
    | [] -> ()
    | _ ->
      let last = List.nth first (cut - 1) in
      Leopard.Checker.truncate a ~watermark:last.Trace.ts_bef);
    let lines = Leopard.Checker.encode a in
    let b =
      match Leopard.Checker.decode il lines with
      | Ok b -> b
      | Error msg -> Alcotest.fail ("decode failed: " ^ msg)
    in
    (* the decoded image re-encodes to the same bytes: the snapshot is
       canonical, so frames are reproducible across kill/resume chains *)
    Alcotest.(check (list string))
      (Printf.sprintf "seed %d: encode is a fixpoint" seed)
      lines
      (Leopard.Checker.encode b);
    List.iter (Leopard.Checker.feed a) rest;
    List.iter (Leopard.Checker.feed b) rest;
    Leopard.Checker.finalize a;
    Leopard.Checker.finalize b;
    Alcotest.(check string)
      (Printf.sprintf "seed %d: resumed report equals uninterrupted" seed)
      (digest (Leopard.Checker.report a))
      (digest (Leopard.Checker.report b))
  done

let test_decode_rejects_foreign () =
  let o = H.Run.execute (online_config ~seed:1 ~txns:200 ()) in
  let a = Leopard.Checker.create il_sr in
  List.iter (Leopard.Checker.feed a) (H.Run.all_traces_sorted o);
  let lines = Leopard.Checker.encode a in
  (match Leopard.Checker.decode Il.postgresql_si lines with
  | Ok _ -> Alcotest.fail "decode accepted a foreign profile"
  | Error _ -> ());
  (match Leopard.Checker.decode ~relaxed_reads:true il_sr lines with
  | Ok _ -> Alcotest.fail "decode accepted mismatched flags"
  | Error _ -> ());
  (* flag mismatch is about equality, not direction *)
  match Leopard.Checker.decode il_sr lines with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("decode rejected its own flags: " ^ msg)

(* A lossy history: every 40th commit trace lost in collection, so its
   transaction stays unterminated and is superseded by its client's
   next one. *)
let lossy_traces seed =
  let o = H.Run.execute (online_config ~seed ~txns:600 ()) in
  let commits = ref 0 in
  List.filter
    (fun (tr : Trace.t) ->
      match tr.payload with
      | Trace.Commit ->
        incr commits;
        !commits mod 40 <> 0
      | Trace.Read _ | Trace.Write _ | Trace.Abort -> true)
    (H.Run.all_traces_sorted o)

(* Feed [traces] as trace [start], [start + 1], ... of a stream that
   truncates after every [window]-th trace. *)
let feed_from ?(window = 40) checker ~start traces =
  List.iteri
    (fun i (tr : Trace.t) ->
      Leopard.Checker.feed checker tr;
      if (start + i + 1) mod window = 0 then
        Leopard.Checker.truncate checker ~watermark:tr.Trace.ts_bef)
    traces

let test_lossy_snapshot_roundtrip () =
  for seed = 0 to 4 do
    let traces = lossy_traces seed in
    let cut = 40 * (List.length traces / 80) in
    let first, rest = split_at cut traces in
    let a = Leopard.Checker.create il_sr in
    (* reads of a lost commit's writes are then inconclusive, not bugs *)
    Leopard.Checker.note_lost_traces a 1;
    feed_from a ~start:0 first;
    let lines = Leopard.Checker.encode a in
    let superseded =
      List.exists
        (fun l ->
          String.starts_with ~prefix:"id\tsuperseded\t" l
          && l <> "id\tsuperseded\t")
        lines
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: the snapshot carries superseded marks" seed)
      true superseded;
    let decode lines =
      match Leopard.Checker.decode il_sr lines with
      | Ok c -> c
      | Error msg -> Alcotest.fail ("decode failed: " ^ msg)
    in
    let b = decode lines in
    Alcotest.(check (list string))
      (Printf.sprintf "seed %d: encode is a fixpoint" seed)
      lines (Leopard.Checker.encode b);
    (* a snapshot written before superseding existed has neither the
       client record nor the superseded set *)
    let old =
      decode
        (List.filter
           (fun l ->
             not
               (String.starts_with ~prefix:"cl\t" l
               || String.starts_with ~prefix:"id\tsuperseded\t" l))
           lines)
    in
    List.iter (fun c -> feed_from c ~start:cut rest) [ a; b; old ];
    List.iter Leopard.Checker.finalize [ a; b; old ];
    let ra = Leopard.Checker.report a and rb = Leopard.Checker.report b in
    Alcotest.(check string)
      (Printf.sprintf "seed %d: resumed report equals uninterrupted" seed)
      (digest ra) (digest rb);
    Alcotest.(check (pair int int))
      (Printf.sprintf "seed %d: resumed peak and folded deps" seed)
      (ra.peak_live, ra.truncated_deps)
      (rb.peak_live, rb.truncated_deps);
    Alcotest.(check string)
      (Printf.sprintf "seed %d: an old snapshot resumes to the same verdict"
         seed)
      (verdict_digest ra)
      (verdict_digest (Leopard.Checker.report old))
  done

(* --- the snapshot corpus: every record kind, pinned byte for byte --- *)

(* Every record tag [Checker.encode] writes. *)
let snapshot_tags =
  [
    "h"; "s"; "fs"; "mc"; "b"; "x"; "xw"; "xd"; "df"; "ir"; "av"; "nv"; "id";
    "cl"; "aw"; "du"; "vo"; "me"; "fw"; "sc"; "dl";
  ]

(* A checker cut mid-stream: [prefix] builds it, [rest] is the stream
   still to come. *)
type snapshot = {
  name : string;
  il : Il.t;
  prefix : unit -> Leopard.Checker.t;
  rest : Trace.t list;
}

(* A planted stale read on TPC-C, cut untruncated halfway: bugs, aborted
   writes, initial readers, deferred reads and all four mirrors. *)
let stale_tpcc () =
  let traces =
    H.Run.all_traces_sorted
      (H.Run.execute
         (H.Run.config ~clients:8 ~seed:3 ~spec:(W.Tpcc.spec ())
            ~faults:(Minidb.Fault.Set.singleton Minidb.Fault.Stale_read)
            ~profile:Minidb.Profile.postgresql
            ~level:Minidb.Isolation.Serializable ~stop:(H.Run.Txn_count 60) ()))
  in
  let first, rest = split_at (List.length traces / 2) traces in
  let prefix () =
    let c = Leopard.Checker.create il_sr in
    List.iter (Leopard.Checker.feed c) first;
    c
  in
  { name = "tpcc stale-read"; il = il_sr; prefix; rest }

(* Readers checked while their transactions are still open: T2 read a
   value of T1, whose COMMIT went unacknowledged, so T2 is parked on an
   ambiguous writer ([aw], [nv]); T5 read T4's committed value, so the
   wr dep waits for T5's terminal ([xd]).  T3's read moved the frontier
   past both.  T2's commit after the cut resolves T1. *)
let parked_readers () =
  let x = Helpers.cell 0 and y = Helpers.cell 1 and z = Helpers.cell 2 in
  let prefix () =
    let c = Leopard.Checker.create il_sr in
    Leopard.Checker.(mark c ~txn:1 Wire);
    List.iter (Leopard.Checker.feed c)
      [
        Helpers.write ~client:1 ~txn:1 ~bef:10 ~aft:12 [ (x, 5) ];
        Helpers.write ~client:4 ~txn:4 ~bef:13 ~aft:14 [ (z, 7) ];
        Helpers.commit ~client:4 ~txn:4 ~bef:15 ~aft:16 ();
        Helpers.read ~client:2 ~txn:2 ~bef:20 ~aft:22 [ (x, 5) ];
        Helpers.read ~client:5 ~txn:5 ~bef:23 ~aft:24 [ (z, 7) ];
        Helpers.read ~client:3 ~txn:3 ~bef:30 ~aft:31 [ (y, 0) ];
      ];
    c
  in
  {
    name = "parked readers";
    il = il_sr;
    prefix;
    rest =
      [
        Helpers.commit ~client:2 ~txn:2 ~bef:40 ~aft:41 ();
        Helpers.commit ~client:5 ~txn:5 ~bef:42 ~aft:43 ();
        Helpers.commit ~client:3 ~txn:3 ~bef:44 ~aft:45 ();
      ];
  }

(* One transaction per outcome: T1 crashed, T2 a wire give-up that T3's
   committed read resolves, T4 a coordinator give-up whose value T9
   reads (still deferred at the cut), T5 lost at a failover.  T8
   supersedes T7 on client 6.  The cut fills every [id] set; T9's
   commit after it resolves T4. *)
let every_outcome () =
  let c = Helpers.cell in
  let prefix () =
    let ck = Leopard.Checker.create il_sr in
    Leopard.Checker.(mark ck ~txn:1 Crashed);
    Leopard.Checker.(mark ck ~txn:2 Wire);
    Leopard.Checker.(mark ck ~txn:4 Coord);
    Leopard.Checker.note_failover ck ~at:5 ~epoch:2 ~lost:[ 5 ];
    List.iter (Leopard.Checker.feed ck)
      [
        Helpers.write ~client:1 ~txn:1 ~bef:10 ~aft:11 [ (c 1, 11) ];
        Helpers.write ~client:2 ~txn:2 ~bef:12 ~aft:13 [ (c 2, 22) ];
        Helpers.write ~client:4 ~txn:4 ~bef:14 ~aft:15 [ (c 4, 44) ];
        Helpers.write ~client:5 ~txn:5 ~bef:16 ~aft:17 [ (c 5, 55) ];
        Helpers.read ~client:3 ~txn:3 ~bef:20 ~aft:21 [ (c 2, 22) ];
        Helpers.commit ~client:3 ~txn:3 ~bef:22 ~aft:23 ();
        Helpers.write ~client:6 ~txn:7 ~bef:24 ~aft:25 [ (c 7, 77) ];
        Helpers.read ~client:6 ~txn:8 ~bef:26 ~aft:27 [ (c 8, 0) ];
        Helpers.read ~client:9 ~txn:9 ~bef:28 ~aft:29 [ (c 4, 44) ];
      ];
    ck
  in
  {
    name = "every outcome";
    il = il_sr;
    prefix;
    rest =
      [
        Helpers.commit ~client:6 ~txn:8 ~bef:30 ~aft:31 ();
        Helpers.commit ~client:9 ~txn:9 ~bef:32 ~aft:33 ();
      ];
  }

let snapshot_corpus () = [ stale_tpcc (); parked_readers (); every_outcome () ]

let tag_of line =
  match String.index_opt line '\t' with
  | Some i -> String.sub line 0 i
  | None -> line

let decode_ok il lines =
  match Leopard.Checker.decode il lines with
  | Ok c -> c
  | Error msg -> Alcotest.fail ("decode failed: " ^ msg)

let finish_with rest c =
  List.iter (Leopard.Checker.feed c) rest;
  Leopard.Checker.finalize c;
  digest (Leopard.Checker.report c)

let test_snapshot_corpus_covers_every_record () =
  let corpus = snapshot_corpus () in
  let snapshots =
    List.map (fun s -> (s, Leopard.Checker.encode (s.prefix ()))) corpus
  in
  let tags =
    List.concat_map (fun (_, lines) -> List.map tag_of lines) snapshots
  in
  List.iter
    (fun tag ->
      Alcotest.(check bool)
        (Printf.sprintf "the corpus holds a %s record" tag)
        true (List.mem tag tags))
    snapshot_tags;
  List.iter
    (fun (s, lines) ->
      let b = decode_ok s.il lines in
      Alcotest.(check (list string))
        (s.name ^ ": encode is a fixpoint")
        lines (Leopard.Checker.encode b);
      Alcotest.(check string)
        (s.name ^ ": resumed report equals uninterrupted")
        (finish_with s.rest (s.prefix ()))
        (finish_with s.rest b))
    snapshots

(* [snapshot_corpus.golden] holds each corpus snapshot as a "== NAME"
   line followed by its records, as the codec wrote them when the file
   was committed.  A round trip cannot catch an encoder and a decoder
   that change the format together; these bytes can. *)
let golden_path = "snapshot_corpus.golden"

let read_golden () =
  let sections = ref [] in
  List.iter
    (fun line ->
      match (String.starts_with ~prefix:"== " line, !sections) with
      | true, _ ->
        let name = String.sub line 3 (String.length line - 3) in
        sections := (name, []) :: !sections
      | false, (name, lines) :: older ->
        sections := (name, line :: lines) :: older
      | false, [] -> Alcotest.fail "golden file starts without a section")
    (String.split_on_char '\n' (Helpers.read_file golden_path)
    |> List.filter (fun l -> l <> ""));
  List.rev_map (fun (name, lines) -> (name, List.rev lines)) !sections

let test_snapshot_corpus_golden_bytes () =
  let golden = read_golden () in
  List.iter
    (fun s ->
      let expected =
        match List.assoc_opt s.name golden with
        | Some lines -> lines
        | None -> Alcotest.fail ("golden file lacks " ^ s.name)
      in
      Alcotest.(check (list string))
        (s.name ^ ": encode writes the golden bytes")
        expected
        (Leopard.Checker.encode (s.prefix ()));
      Alcotest.(check (list string))
        (s.name ^ ": the golden snapshot re-encodes unchanged")
        expected
        (Leopard.Checker.encode (decode_ok s.il expected)))
    (snapshot_corpus ())

(* Where a record's first interval starts, counting the tag as field 0
   (an [me] lock-entry line; a [t] line is too short to have one). *)
let first_interval_field = function
  | "x" -> Some 3
  | "df" | "sc" -> Some 2
  | "fw" -> Some 4
  | "xw" | "vo" | "me" -> Some 6
  | _ -> None

(* [line] with its first dep-kind piece (a field, or a [,]/[;]-separated
   part of one, reading ww, wr or rw) made "zz". *)
let first_dep_kind_to_zz line =
  let n = String.length line in
  let sep i = i < 0 || i >= n || String.contains "\t;," line.[i] in
  let rec go i =
    if i + 2 > n then line
    else if
      sep (i - 1)
      && sep (i + 2)
      && List.mem (String.sub line i 2) [ "ww"; "wr"; "rw" ]
    then String.sub line 0 i ^ "zz" ^ String.sub line (i + 2) (n - i - 2)
    else go (i + 1)
  in
  go 0

(* Each line of each corpus snapshot, damaged five ways in turn: its
   last field dropped, a field appended, its first integer field made
   "x", its first interval inverted, its first dep kind unknown.  Decode
   must answer [Error] naming the record, never raise and never
   accept. *)
let test_snapshot_malformed_records () =
  List.iter
    (fun s ->
      let lines = Array.of_list (Leopard.Checker.encode (s.prefix ())) in
      Array.iteri
        (fun i line ->
          let tag = tag_of line in
          let fields = String.split_on_char '\t' line in
          let rec first_int_to_x = function
            | [] -> []
            | f :: rest when Option.is_some (int_of_string_opt f) -> "x" :: rest
            | f :: rest -> f :: first_int_to_x rest
          in
          let invert_first_interval =
            match first_interval_field tag with
            | Some k when k + 1 < List.length fields ->
              List.mapi
                (fun j f ->
                  if j = k then List.nth fields (k + 1)
                  else if j = k + 1 then List.nth fields k
                  else f)
                fields
            | _ -> fields
          in
          let mutations =
            [
              ( "drop the last field",
                List.filteri (fun k _ -> k < List.length fields - 1) fields );
              ("append a field", fields @ [ "0" ]);
              ("first integer field made x", first_int_to_x fields);
              ("first interval inverted", invert_first_interval);
              ( "first dep kind made zz",
                String.split_on_char '\t' (first_dep_kind_to_zz line) );
            ]
          in
          List.iter
            (fun (what, damaged) ->
              if damaged <> fields then begin
                let copy = Array.copy lines in
                copy.(i) <- String.concat "\t" damaged;
                let what =
                  Printf.sprintf "%s line %d (%s), %s" s.name i tag what
                in
                match Leopard.Checker.decode s.il (Array.to_list copy) with
                | Ok _ -> Alcotest.fail (what ^ ": decode accepted it")
                | Error msg ->
                  Alcotest.(check string) what ("malformed " ^ tag) msg
                | exception e ->
                  Alcotest.fail
                    (what ^ ": decode raised " ^ Printexc.to_string e)
              end)
            mutations)
        lines)
    (snapshot_corpus ())

(* --- the horizon premise: sequential clients ------------------------- *)

(* T1 takes its snapshot at [60,65], then client 0 moves on to T2 and
   later resumes T1 — the interleaving the trace model excludes.  x's
   versions are chosen so that T1 may legally read x=2 (To's commit
   overlaps Tq's, and ME/FUW order Tq before To), yet a prune at 80,
   which the superseded T1 no longer pins, drops To's version while
   keeping Tq's as a pivot: checked against the pruned chain, T1's read
   would be a false stale read.  [t1_client] moves T1 to a client of its
   own, where nothing is ever superseded. *)
let interleaved ~t1_client =
  let x = Helpers.cell 0 and y = Helpers.cell 1 in
  let z = Helpers.cell 2 and w = Helpers.cell 3 in
  [
    Helpers.write ~client:1 ~txn:10 ~bef:0 ~aft:5 [ (x, 1) ];
    Helpers.commit ~client:1 ~txn:10 ~bef:10 ~aft:60 ();
    Helpers.write ~client:2 ~txn:11 ~bef:20 ~aft:25 [ (x, 2) ];
    Helpers.commit ~client:2 ~txn:11 ~bef:30 ~aft:40 ();
    Helpers.write ~client:3 ~txn:12 ~bef:45 ~aft:48 [ (x, 3) ];
    Helpers.commit ~client:3 ~txn:12 ~bef:50 ~aft:70 ();
    Helpers.read ~client:t1_client ~txn:1 ~bef:60 ~aft:65 [ (y, 0) ];
    Helpers.write ~client:0 ~txn:2 ~bef:66 ~aft:67 [ (z, 1) ];
    Helpers.commit ~client:0 ~txn:2 ~bef:68 ~aft:69 ();
    Helpers.read ~client:4 ~txn:3 ~bef:80 ~aft:81 [ (w, 0) ];
    Helpers.commit ~client:4 ~txn:3 ~bef:82 ~aft:83 ();
    Helpers.read ~client:t1_client ~txn:1 ~bef:100 ~aft:101 [ (x, 2) ];
    Helpers.commit ~client:t1_client ~txn:1 ~bef:102 ~aft:103 ();
  ]

(* Every transaction on client 0, interleaved: T1 and T2 both update x
   concurrently, a lost update that FUW and ME must still convict. *)
let interleaved_lost_update ~t2_client =
  let x = Helpers.cell 0 in
  [
    Helpers.read ~txn:1 ~bef:0 ~aft:1 [ (x, 0) ];
    Helpers.read ~client:t2_client ~txn:2 ~bef:2 ~aft:3 [ (x, 0) ];
    Helpers.write ~txn:1 ~bef:4 ~aft:5 [ (x, 1) ];
    Helpers.write ~client:t2_client ~txn:2 ~bef:6 ~aft:7 [ (x, 2) ];
    Helpers.commit ~txn:1 ~bef:8 ~aft:9 ();
    Helpers.commit ~client:t2_client ~txn:2 ~bef:10 ~aft:11 ();
  ]

let test_interleaved_client_unpruned () =
  let si = Il.postgresql_si in
  let same name on_client_0 on_own_client =
    Alcotest.(check string) name
      (digest (Helpers.check si on_own_client))
      (digest (Helpers.check si on_client_0))
  in
  same "clean history: interleaving changes nothing"
    (interleaved ~t1_client:0) (interleaved ~t1_client:5);
  same "lost update: interleaving changes nothing"
    (interleaved_lost_update ~t2_client:0)
    (interleaved_lost_update ~t2_client:5);
  let r = Helpers.check si (interleaved ~t1_client:0) in
  Alcotest.(check bool) "clean history verifies" true
    (Leopard.Checker.verdict r = Leopard.Checker.Verified);
  Alcotest.(check bool) "the lost update is still convicted" true
    ((Helpers.check si (interleaved_lost_update ~t2_client:0)).bugs_total > 0)

let test_interleaved_client_pruned () =
  let checker = Leopard.Checker.create ~gc_every:1 Il.postgresql_si in
  List.iter (Leopard.Checker.feed checker) (interleaved ~t1_client:0);
  Leopard.Checker.finalize checker;
  let r = Leopard.Checker.report checker in
  Alcotest.(check int) "no false violation" 0 r.bugs_total;
  Alcotest.(check int) "the resumed transaction is indeterminate" 1
    r.degradation.indeterminate_txns;
  Alcotest.(check int) "its read is inconclusive" 1
    r.degradation.inconclusive_reads;
  match Leopard.Checker.verdict r with
  | Leopard.Checker.Inconclusive _ -> ()
  | Leopard.Checker.Verified | Leopard.Checker.Violation ->
    Alcotest.fail "expected Inconclusive"

(* --- lossy chaos: superseding never changes a verdict ---------------- *)

let lossy_chaos seed =
  H.Chaos.config ~seed
    ~crash_prob:(if seed mod 3 = 0 then 0.002 else 0.0)
    ~drop_prob:0.005 ~dup_prob:0.01 ~delay_prob:0.03 ()

let sweep_specs =
  [ ("blindw-rw", W.Blindw.spec W.Blindw.RW); ("smallbank", W.Smallbank.spec ()) ]

let test_lossy_chaos_sweep () =
  List.iter
    (fun (name, spec) ->
      for seed = 0 to 29 do
        (* a config carries its run's chaos state: one per run *)
        let cfg () =
          H.Run.config ~chaos:(lossy_chaos seed) ~clients:8 ~seed ~spec
            ~profile:Minidb.Profile.postgresql
            ~level:Minidb.Isolation.Serializable ~stop:(H.Run.Txn_count 300) ()
        in
        let o = H.Run.execute (cfg ()) in
        let offline ?gc_every ?gc_watermark () =
          verdict_digest
            (H.Session.of_outcome ?gc_every ?gc_watermark il_sr o).report
        in
        (* no pruning at all, so no horizon rule can act *)
        let unpruned = offline ~gc_every:0 () in
        let what = Printf.sprintf "%s seed %d" name seed in
        Alcotest.(check string) (what ^ ": truncating session") unpruned
          (offline ~gc_watermark:97 ());
        (* the live monitor drops late traces an offline pass never sees,
           so it is compared with its own unpruned run *)
        let online ?gc_every ?gc_watermark () =
          verdict_digest
            (H.Online.run ~max_stall_ns:2_000_000 ?gc_every ?gc_watermark
               ~il:il_sr (cfg ()))
              .report
        in
        Alcotest.(check string) (what ^ ": truncating online monitor")
          (online ~gc_every:0 ()) (online ~gc_watermark:200 ())
      done)
    sweep_specs

let test_lossy_chaos_probes () =
  List.iter
    (fun (p : W.Probes.probe) ->
      for seed = 0 to 1 do
        let o =
          H.Run.execute
            (H.Run.config ~chaos:(lossy_chaos seed)
               ~faults:(Minidb.Fault.Set.singleton p.fault)
               ~clients:p.clients ~seed ~spec:p.spec ~profile:p.db_profile
               ~level:p.level ~stop:(H.Run.Txn_count (min p.txns 400)) ())
        in
        let il = Option.get (Il.find p.verifier_profile) in
        let per_mechanism ?gc_every ?gc_watermark () =
          List.map
            (fun (m, n) -> (Leopard.Bug.mechanism_to_string m, n))
            (H.Session.of_outcome ?gc_every ?gc_watermark il o).report
              .bugs_by_mechanism
        in
        Alcotest.(check (list (pair string int)))
          (Printf.sprintf "%s seed %d: bugs per mechanism"
             (Minidb.Fault.to_string p.fault) seed)
          (per_mechanism ~gc_every:0 ())
          (per_mechanism ~gc_watermark:97 ())
      done)
    (W.Probes.all ())

(* --- bounded memory under loss -------------------------------------- *)

(* The benchmark's lossy online configuration at two history sizes: a
   lost terminal trace must not freeze pruning, so peak live state
   stays flat as the history grows 4x. *)
let test_lossy_online_memory_flat () =
  let run txns =
    let cfg =
      H.Run.config
        ~chaos:
          (H.Chaos.config ~seed:3 ~drop_prob:0.001 ~dup_prob:0.01
             ~delay_prob:0.02 ~max_delay_ns:300_000 ())
        ~clients:8 ~seed:1 ~spec:(W.Smallbank.spec ())
        ~profile:Minidb.Profile.postgresql ~level:Minidb.Isolation.Serializable
        ~stop:(H.Run.Txn_count txns) ()
    in
    (H.Online.run ~max_stall_ns:2_000_000 ~gc_watermark:2_000 ~il:il_sr cfg)
      .report
  in
  let small = run 8_000 and large = run 32_000 in
  Alcotest.(check bool) "terminal traces were lost" true
    (large.degradation.unterminated_txns > 0);
  Alcotest.(check bool)
    (Printf.sprintf "peak live flat across 4x history (%d vs %d)"
       small.peak_live large.peak_live)
    true
    (large.peak_live <= small.peak_live + (small.peak_live / 5))

(* --- the checkpoint container: damage degrades, never lies --------- *)

let frame_payloads =
  [
    [ "plain line"; "tab\there"; "back\\slash"; "new\nline"; "" ];
    [ "second frame"; String.make 300 'x' ];
    [ "third\tframe"; "\x00\x01binary\xff" ];
  ]

let write_ckpt ~path ~fingerprint frames =
  let w = Ckpt.writer ~path ~fingerprint in
  List.iter (Ckpt.append w) frames;
  Ckpt.close w

(* Every frame the loader accepts, oldest first, and its warning. *)
let load_frames ~path ~fingerprint =
  let frames = ref [] in
  let warning =
    Ckpt.load ~path ~fingerprint (fun f ->
        frames := f :: !frames;
        Ok ())
  in
  (List.rev !frames, warning)

(* The newest accepted frame, as a resuming session keeps it. *)
let load_newest ~path ~fingerprint =
  let frames, warning = load_frames ~path ~fingerprint in
  (List.nth_opt (List.rev frames) 0, warning)

let test_ckpt_roundtrip () =
  let path = Filename.temp_file "leopard_ckpt" ".ck" in
  let fp = Ckpt.fingerprint [ "unit"; "roundtrip" ] in
  write_ckpt ~path ~fingerprint:fp frame_payloads;
  let frames, warning = load_frames ~path ~fingerprint:fp in
  Alcotest.(check (option string)) "no warning on pristine file" None warning;
  Alcotest.(check (list (list string)))
    "every frame round-trips exactly, oldest first (tabs, newlines, binary)"
    frame_payloads frames;
  (* a frame the reader rejects is damage: the scan stops there, the
     frames before it stay accepted, one warning names the reason *)
  let accepted = ref 0 in
  let warning =
    Ckpt.load ~path ~fingerprint:fp (fun _ ->
        if !accepted = 1 then Error "rejected by the reader"
        else begin
          incr accepted;
          Ok ()
        end)
  in
  Alcotest.(check int) "frames before the rejection kept" 1 !accepted;
  Alcotest.(check (option string)) "rejection warns once"
    (Some
       (Printf.sprintf
          "checkpoint %s: frame 1: rejected by the reader; keeping the 1 \
           frame(s) before it"
          path))
    warning;
  (* missing file: silent fresh start *)
  Sys.remove path;
  let frame, warning = load_newest ~path ~fingerprint:fp in
  Alcotest.(check bool) "missing file: no frame" true (frame = None);
  Alcotest.(check (option string)) "missing file: silent" None warning

let test_ckpt_foreign_fingerprint () =
  let path = Filename.temp_file "leopard_ckpt" ".ck" in
  write_ckpt ~path ~fingerprint:(Ckpt.fingerprint [ "run"; "a" ])
    frame_payloads;
  let frame, warning =
    load_newest ~path ~fingerprint:(Ckpt.fingerprint [ "run"; "b" ])
  in
  Alcotest.(check bool) "foreign fingerprint: ignored" true (frame = None);
  Alcotest.(check bool) "foreign fingerprint: warned" true (warning <> None);
  Sys.remove path

let test_ckpt_damage_ladder () =
  let path = Filename.temp_file "leopard_ckpt" ".ck" in
  let fp = Ckpt.fingerprint [ "unit"; "damage" ] in
  write_ckpt ~path ~fingerprint:fp frame_payloads;
  let pristine =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let restore damaged =
    let oc = open_out_bin path in
    output_string oc damaged;
    close_out oc
  in
  let len = String.length pristine in
  let rng = Rng.create 99 in
  let damage_one i =
    match i mod 3 with
    | 0 -> String.sub pristine 0 (1 + Rng.int rng (len - 1))
    | 1 ->
      let pos = Rng.int rng len in
      let b = Bytes.of_string pristine in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x20));
      Bytes.to_string b
    | _ -> pristine ^ "l\tdeadbeef\tnot a frame\n"
  in
  for i = 0 to 17 do
    restore (damage_one i);
    (* damage may cost frames, never truth: whatever loads is a prefix
       of the frames actually written, and damaged loads always warn *)
    let frames, warning = load_frames ~path ~fingerprint:fp in
    Alcotest.(check bool)
      (Printf.sprintf "damage %d: loaded frames were actually written" i)
      true
      (List.filteri (fun k _ -> k < List.length frames) frame_payloads
      = frames);
    let intact =
      match warning with
      | None -> frames = frame_payloads
      | Some _ -> true
    in
    Alcotest.(check bool)
      (Printf.sprintf "damage %d: degraded loads warn" i)
      true intact
  done;
  Sys.remove path

(* --- online monitor: truncation + checkpoint wiring ---------------- *)

let test_online_truncating_same_verdict () =
  let plain = H.Online.run ~il:il_sr (online_config ~seed:11 ~txns:800 ()) in
  let path = Filename.temp_file "leopard_online" ".ck" in
  let truncating =
    H.Online.run ~gc_watermark:300 ~checkpoint:path ~il:il_sr
      (online_config ~seed:11 ~txns:800 ())
  in
  Alcotest.(check string) "truncating online digest equals plain"
    (verdict_digest plain.report)
    (verdict_digest truncating.report);
  Alcotest.(check bool) "monitor truncated" true
    (truncating.report.Leopard.Checker.truncations > 0);
  (* the checkpoint file holds a loadable final frame *)
  let fp =
    Ckpt.fingerprint [ "online"; il_sr.Il.name; "512"; "300" ]
  in
  let frame, warning = load_newest ~path ~fingerprint:fp in
  Alcotest.(check (option string)) "checkpoint pristine" None warning;
  (match frame with
  | Some lines -> (
    match Leopard.Checker.decode il_sr lines with
    | Ok c ->
      Alcotest.(check string) "final frame decodes to the final report"
        (digest truncating.report)
        (digest (Leopard.Checker.report c))
    | Error msg -> Alcotest.fail ("final frame rejected: " ^ msg))
  | None -> Alcotest.fail "online checkpoint must load");
  Sys.remove path

let test_online_checkpoint_requires_watermark () =
  Alcotest.check_raises "checkpoint without gc_watermark fails fast"
    (Invalid_argument "Online.run: checkpoint requires gc_watermark")
    (fun () ->
      ignore
        (H.Online.run ~checkpoint:"/tmp/never-written.ck" ~il:il_sr
           (online_config ~seed:1 ~txns:50 ())))

(* --- CLI flag grammar ---------------------------------------------- *)

let test_cli_checkpointing_rules () =
  let open H.Cli_validate in
  let base =
    {
      gc_watermark = 0;
      check_checkpoint = false;
      resume_check = false;
      kill_after = 0;
      check_mode = true;
    }
  in
  let flag_of = Option.map (fun e -> e.flag) in
  Alcotest.(check (option string)) "all off: fine" None
    (flag_of (checkpointing base));
  Alcotest.(check (option string)) "plain truncation: fine" None
    (flag_of (checkpointing { base with gc_watermark = 1000 }));
  Alcotest.(check (option string)) "negative watermark rejected"
    (Some "--gc-watermark")
    (flag_of (checkpointing { base with gc_watermark = -1 }));
  Alcotest.(check (option string)) "checkpoint needs truncation"
    (Some "--check-checkpoint")
    (flag_of (checkpointing { base with check_checkpoint = true }));
  Alcotest.(check (option string)) "resume needs a checkpoint file"
    (Some "--resume-check")
    (flag_of
       (checkpointing { base with gc_watermark = 1000; resume_check = true }));
  Alcotest.(check (option string)) "resume needs --check"
    (Some "--resume-check")
    (flag_of
       (checkpointing
          {
            gc_watermark = 1000;
            check_checkpoint = true;
            resume_check = true;
            kill_after = 0;
            check_mode = false;
          }));
  Alcotest.(check (option string)) "kill drill needs a checkpoint"
    (Some "--check-kill-after")
    (flag_of
       (checkpointing { base with gc_watermark = 1000; kill_after = 5 }));
  Alcotest.(check (option string)) "the full resume chain is fine" None
    (flag_of
       (checkpointing
          {
            gc_watermark = 1000;
            check_checkpoint = true;
            resume_check = true;
            kill_after = 5;
            check_mode = true;
          }));
  Alcotest.(check (option string)) "--lenient with --check: fine" None
    (flag_of (mode ~check_mode:true ~record:false ~lenient:true));
  Alcotest.(check (option string)) "--lenient needs --check"
    (Some "--lenient")
    (flag_of (mode ~check_mode:false ~record:false ~lenient:true))

let suite =
  [
    Alcotest.test_case "pipeline stall bound requires a clock" `Quick
      test_stall_bound_requires_clock;
    Alcotest.test_case "online residual lag is exact under chaos" `Quick
      test_online_lag_identity;
    Alcotest.test_case "truncated verdict equals untruncated (50 seeds)"
      `Quick test_truncated_equals_untruncated_sweep;
    Alcotest.test_case "TPC-C verdict is the same at every GC cadence"
      `Quick test_tpcc_gc_cadence;
    Alcotest.test_case "truncated live size is O(window)" `Quick
      test_live_size_bounded_by_window;
    Alcotest.test_case "a cut keeps the ww edges narrowing needs" `Quick
      test_cut_keeps_narrowing_ww;
    Alcotest.test_case "a hub's settled readers fold at each cut" `Quick
      test_hub_readers_fold;
    Alcotest.test_case "encode/decode round-trips mid-stream" `Quick
      test_encode_decode_roundtrip;
    Alcotest.test_case "decode rejects foreign profile and flags" `Quick
      test_decode_rejects_foreign;
    Alcotest.test_case "lossy snapshot carries the superseded state" `Quick
      test_lossy_snapshot_roundtrip;
    Alcotest.test_case "interleaved client, never pruned: same report"
      `Quick test_interleaved_client_unpruned;
    Alcotest.test_case "interleaved client, pruned: inconclusive" `Quick
      test_interleaved_client_pruned;
    Alcotest.test_case "lossy chaos: truncation keeps verdicts (60 runs)"
      `Quick test_lossy_chaos_sweep;
    Alcotest.test_case "lossy chaos: planted faults keep their bugs" `Quick
      test_lossy_chaos_probes;
    Alcotest.test_case "lossy online monitor: peak live flat" `Quick
      test_lossy_online_memory_flat;
    Alcotest.test_case "ckpt container round-trips exactly" `Quick
      test_ckpt_roundtrip;
    Alcotest.test_case "ckpt ignores foreign fingerprints" `Quick
      test_ckpt_foreign_fingerprint;
    Alcotest.test_case "ckpt survives the 18-way damage ladder" `Quick
      test_ckpt_damage_ladder;
    Alcotest.test_case "truncating online monitor: same verdict" `Quick
      test_online_truncating_same_verdict;
    Alcotest.test_case "online checkpoint requires gc_watermark" `Quick
      test_online_checkpoint_requires_watermark;
    Alcotest.test_case "cli checkpoint flag grammar" `Quick
      test_cli_checkpointing_rules;
    Alcotest.test_case "snapshot corpus holds every record kind" `Quick
      test_snapshot_corpus_covers_every_record;
    Alcotest.test_case "snapshot corpus encodes to the golden bytes" `Quick
      test_snapshot_corpus_golden_bytes;
    Alcotest.test_case "malformed snapshot records name their tag" `Quick
      test_snapshot_malformed_records;
  ]
