(* Campaign robustness: the properties ISSUE 8 promises.

   - A >=1000-cell grid spanning all six fault planes sweeps to
     byte-identical results DBs under --jobs 1 and --jobs N.
   - Crash and hang cells are recorded (Crashed / Timeout) without
     aborting the sweep.
   - An interrupted campaign resumed against its checkpoint re-runs
     only the incomplete cells and still produces the same bytes.
   - A truncated or corrupted checkpoint degrades to a (partial) fresh
     start with a warning — never a crash, never a silently skipped
     cell.
   - Shrunk reproducers replay byte-for-byte, across 50 seeds of
     forced-unexpected cells.
   - Repeated flags shrink to one occurrence, never to none: a shrunk
     line keeps every planted fault, and replays through the CLI.
   - Pool workers never evaluate cmdliner: every line is parsed on the
     main domain.

   Cell sizes here are tiny (tens of transactions) and the workloads
   small-footprint (smallbank, blindw-rw): the properties are
   structural, not statistical, so nothing is lost by shrinking the
   cells to keep the suite fast. *)

module G = Leopard_campaign.Grid
module Runner = Leopard_campaign.Runner
module O = Leopard_campaign.Orchestrator
module Shrink = Leopard_campaign.Shrink
module Checkpoint = Leopard_campaign.Checkpoint
module Ckpt = Leopard_trace.Ckpt
module H = Leopard_harness
module Rng = Leopard_util.Rng

let si = Minidb.Isolation.Snapshot_isolation

let clazz ?(txns = 25) ?(clients = 2) ?(expect = G.Any) cname workload flags =
  G.clazz cname ~workload ~txns ~clients ~expect flags

(* One tiny class per fault plane — the six-plane matrix of the
   identity test. *)
let six_planes =
  [
    clazz "chaos" "blindw-rw"
      "--chaos-crash 0.003 --chaos-drop 0.02 --chaos-dup 0.02 \
       --chaos-delay 0.05";
    clazz "recovery" "smallbank"
      "--max-retries 2 --crash-at 200000 --wal-fault-torn 0.1 \
       --wal-fault-lost-fsync 0.3 --wal-fault-dup 0.2";
    clazz "net" "blindw-rw"
      "--net --net-fault-drop 0.05 --net-fault-dup 0.05 --net-fault-reset \
       0.05 --net-fault-delay 0.05";
    clazz "repl" "smallbank"
      "--repl 1 --repl-ack sync --repl-drop 0.02 --repl-dup 0.02 \
       --repl-hop-ns 2000";
    clazz "shard" "blindw-rw" "--shards 2 --shard-hop-ns 1000";
    clazz "stacked" "smallbank"
      "--shards 2 --repl-per-shard 1 --shard-hop-ns 1000";
  ]

let sweep ?(shrink = false) ?checkpoint ?limit ?(log = ignore) ~jobs grid =
  O.run ~opts:{ O.default_opts with jobs; shrink; checkpoint; limit; log } grid

let json_of outcome =
  match outcome.O.json with
  | Some j -> j
  | None -> Alcotest.fail "sweep did not complete"

(* --- seed derivation ---------------------------------------------- *)

let test_derived_seeds () =
  (* positional: each index gets its own stream root, stable across
     calls and distinct across indices *)
  Alcotest.(check int)
    "derive is deterministic"
    (Rng.derive ~seed:42 ~index:7)
    (Rng.derive ~seed:42 ~index:7);
  let seeds = List.init 64 (fun i -> Rng.derive ~seed:42 ~index:i) in
  Alcotest.(check int)
    "derived seeds distinct" 64
    (List.length (List.sort_uniq Int.compare seeds));
  (* the grid's cells carry exactly these seeds, so (campaign seed,
     index) printed in a report header is a complete citation *)
  let grid = G.make ~campaign_seed:42 ~seeds_per_class:4 six_planes in
  Array.iter
    (fun (c : G.cell) ->
      Alcotest.(check int)
        (Printf.sprintf "cell %d seed" c.G.index)
        (Rng.derive ~seed:42 ~index:c.G.index)
        c.G.seed)
    (G.cells grid);
  (* and the standalone CLI line cites the derived seed verbatim *)
  let c = (G.cells grid).(5) in
  let needle = Printf.sprintf "--seed %d" c.G.seed in
  let hay = G.cli_line c in
  let n = String.length needle and h = String.length hay in
  let rec has i = i + n <= h && (String.sub hay i n = needle || has (i + 1)) in
  Alcotest.(check bool) "cli line cites derived seed" true (has 0)

(* --- serial/parallel byte identity at scale ------------------------ *)

let test_thousand_cell_identity () =
  let grid = G.make ~campaign_seed:9 ~seeds_per_class:167 six_planes in
  Alcotest.(check bool)
    ">=1000 cells" true
    (G.cell_count grid >= 1000);
  let serial = sweep ~jobs:1 grid in
  let parallel = sweep ~jobs:4 grid in
  Alcotest.(check bool) "serial complete" true serial.O.complete;
  Alcotest.(check bool) "parallel complete" true parallel.O.complete;
  Alcotest.(check string)
    "results DB byte-identical" (json_of serial) (json_of parallel)

(* --- the results DB is valid JSON ----------------------------------- *)

(* The number tokens of a JSON document, string literals skipped. *)
let json_numbers doc =
  let n = String.length doc in
  let in_number c = String.contains "0123456789+-.eE" c in
  let rec go i in_string acc =
    if i >= n then List.rev acc
    else
      match doc.[i] with
      | '\\' when in_string -> go (i + 2) true acc
      | '"' -> go (i + 1) (not in_string) acc
      | c when (not in_string) && String.contains "-0123456789" c ->
        let j = ref i in
        while !j < n && in_number doc.[!j] do
          incr j
        done;
        go !j false (String.sub doc i (!j - i) :: acc)
      | _ -> go (i + 1) in_string acc
  in
  go 0 false []

let test_results_json_numbers () =
  let o =
    sweep ~jobs:2 (G.make ~campaign_seed:21 ~seeds_per_class:2 six_planes)
  in
  (* integral latencies are what used to print as "102002." *)
  Alcotest.(check bool) "some latency is integral" true
    (Array.exists
       (fun (r : Runner.result) ->
         match r.Runner.outcome with
         | Runner.Completed c -> Float.is_integer c.Runner.p50_ns
         | Runner.Crashed _ | Runner.Timeout _ -> false)
       o.O.results);
  let numbers = json_numbers (json_of o) in
  Alcotest.(check bool) "numbers found" true (List.length numbers > 100);
  List.iter
    (fun tok ->
      Alcotest.(check bool)
        (Printf.sprintf "%S is a JSON number" tok)
        true
        (tok.[String.length tok - 1] <> '.'
        && Option.is_some (float_of_string_opt tok)))
    numbers

(* --- crash isolation and step budgets ------------------------------ *)

let test_crash_and_timeout_recorded () =
  let grid =
    G.make ~campaign_seed:3 ~seeds_per_class:3
      [
        clazz "boom" "blindw-rw" ~txns:50 ~expect:G.Crash "";
        clazz "wedge" "blindw-rw" ~txns:50 ~expect:G.Stall "";
        clazz "honest" "blindw-rw" ~txns:40 ~expect:G.Pass "";
      ]
  in
  let o = sweep ~jobs:2 grid in
  Alcotest.(check bool) "sweep survives crash cells" true o.O.complete;
  Array.iter
    (fun (r : Runner.result) ->
      let kind = Runner.kind_to_string (Runner.kind_of r.Runner.outcome) in
      let expected =
        match r.Runner.cell.G.clazz.G.expect with
        | G.Crash -> "crashed"
        | G.Stall -> "timeout"
        | G.Pass | G.Fail | G.Any -> "verified"
      in
      Alcotest.(check string)
        (Printf.sprintf "cell %d kind" r.Runner.cell.G.index)
        expected kind;
      Alcotest.(check bool)
        (Printf.sprintf "cell %d expected" r.Runner.cell.G.index)
        true (Runner.is_expected r))
    o.O.results;
  (* the crash record keeps the exception text for the repro report *)
  let crashed =
    Array.to_list o.O.results
    |> List.filter_map (fun (r : Runner.result) ->
           match r.Runner.outcome with
           | Runner.Crashed { exn_text; _ } -> Some exn_text
           | Runner.Completed _ | Runner.Timeout _ -> None)
  in
  Alcotest.(check int) "three crash records" 3 (List.length crashed);
  List.iter
    (fun text ->
      Alcotest.(check bool) "exception text non-empty" true (text <> ""))
    crashed

(* --- checkpoint: resume runs only incomplete cells ----------------- *)

let test_checkpoint_resume () =
  let grid = G.make ~campaign_seed:11 ~seeds_per_class:3 six_planes in
  let n = G.cell_count grid in
  let reference = json_of (sweep ~jobs:1 grid) in
  let path = Filename.temp_file "leopard_campaign" ".ckpt" in
  (* interrupted sweep: stop after 7 cells *)
  let part = sweep ~jobs:2 ~checkpoint:path ~limit:7 grid in
  Alcotest.(check bool) "partial sweep incomplete" true (not part.O.complete);
  Alcotest.(check int) "partial ran exactly the limit" 7 part.O.fresh;
  Alcotest.(check int) "nothing resumed the first time" 0 part.O.resumed;
  (* resume: only the remaining cells run *)
  let rest = sweep ~jobs:2 ~checkpoint:path grid in
  Alcotest.(check bool) "resumed sweep complete" true rest.O.complete;
  Alcotest.(check int) "resumed the checkpointed cells" 7 rest.O.resumed;
  Alcotest.(check int) "ran only the incomplete cells" (n - 7) rest.O.fresh;
  Alcotest.(check string)
    "resumed results DB byte-identical to uninterrupted run" reference
    (json_of rest);
  Sys.remove path

(* --- workers never evaluate cmdliner -------------------------------- *)

(* A line parsed on a pool worker would leave cmdliner's text in the
   main domain's [Format.str_formatter] (or, now, crash the cell). *)
let test_parallel_sweep_parses_on_main () =
  ignore (Format.flush_str_formatter ());
  let grid =
    G.make ~campaign_seed:5 ~seeds_per_class:8
      [ clazz "honest" "blindw-rw" ~txns:400 "" ]
  in
  let o = sweep ~jobs:4 grid in
  Alcotest.(check bool) "every cell completed" true
    (Array.for_all
       (fun (r : Runner.result) ->
         match r.Runner.outcome with
         | Runner.Completed _ -> true
         | Runner.Crashed _ | Runner.Timeout _ -> false)
       o.O.results);
  Alcotest.(check string) "main domain's str_formatter left empty" ""
    (Format.flush_str_formatter ())

(* --- checkpoint: damage degrades, never crashes -------------------- *)

let test_checkpoint_damage () =
  let grid = G.make ~campaign_seed:13 ~seeds_per_class:2 six_planes in
  let reference = json_of (sweep ~jobs:1 grid) in
  let path = Filename.temp_file "leopard_campaign" ".ckpt" in
  ignore (sweep ~jobs:1 ~checkpoint:path grid);
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
    | 0 ->
      (* truncate mid-file *)
      String.sub pristine 0 (1 + Rng.int rng (len - 1))
    | 1 ->
      (* flip one byte *)
      let pos = Rng.int rng len in
      let b = Bytes.of_string pristine in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x20));
      Bytes.to_string b
    | _ ->
      (* garbage tail *)
      pristine ^ "c\t999\tdeadbeef\tnot a record\n"
  in
  for i = 0 to 17 do
    restore (damage_one i);
    let o = sweep ~jobs:1 ~checkpoint:path grid in
    (* the damaged file may cost re-runs, but never correctness: the
       sweep completes, no cell is silently skipped, and the results DB
       is the same bytes as an undamaged run's *)
    Alcotest.(check bool)
      (Printf.sprintf "damage %d: sweep completes" i)
      true o.O.complete;
    Alcotest.(check int)
      (Printf.sprintf "damage %d: every cell accounted for" i)
      (G.cell_count grid)
      (o.O.resumed + o.O.fresh);
    Alcotest.(check string)
      (Printf.sprintf "damage %d: results DB intact" i)
      reference (json_of o)
  done;
  (* a header-level mismatch (foreign fingerprint) is ignored wholesale,
     with a warning *)
  restore "leopard-check-checkpoint v1 0000000000000000\n";
  let o = sweep ~jobs:1 ~checkpoint:path grid in
  Alcotest.(check bool)
    "foreign checkpoint: warning issued" true
    (Option.is_some o.O.checkpoint_warning);
  Alcotest.(check int) "foreign checkpoint: fresh start" 0 o.O.resumed;
  Alcotest.(check string)
    "foreign checkpoint: results DB intact" reference (json_of o);
  Sys.remove path

(* A sweep against [path], with the checkpoint warnings it logged. *)
let sweep_logged ~path grid =
  let warnings = ref [] in
  let log msg =
    if String.starts_with ~prefix:"checkpoint " msg then
      warnings := msg :: !warnings
  in
  let o = sweep ~jobs:1 ~checkpoint:path ~log grid in
  (o, List.rev !warnings)

let contains = Helpers.contains

(* --- checkpoint: the campaign's own checks reject framed records ---- *)

(* Every frame below is intact, so only the campaign's index and record
   checks can reject it: the frames before it stay, the rest re-run. *)
let test_checkpoint_rejects_records () =
  let grid = G.make ~campaign_seed:13 ~seeds_per_class:2 six_planes in
  let full = sweep ~jobs:1 grid in
  let reference = json_of full in
  let outcome i = full.O.results.(i).Runner.outcome in
  let path = Filename.temp_file "leopard_campaign" ".ckpt" in
  List.iter
    (fun (what, reason, bad_frame) ->
      let w = Checkpoint.writer ~path grid in
      Checkpoint.append w ~index:0 (outcome 0);
      Checkpoint.append w ~index:1 (outcome 1);
      bad_frame w;
      Checkpoint.append w ~index:2 (outcome 2);
      Ckpt.close w;
      let o, warnings = sweep_logged ~path grid in
      Alcotest.(check int) (what ^ ": prefix kept") 2 o.O.resumed;
      (match warnings with
      | [ msg ] ->
        Alcotest.(check bool) (what ^ ": warning names the reason") true
          (contains msg reason)
      | _ ->
        Alcotest.failf "%s: expected one warning, got %d" what
          (List.length warnings));
      Alcotest.(check string) (what ^ ": results DB intact") reference
        (json_of o))
    [
      ( "out-of-range index",
        "outside grid",
        fun w -> Checkpoint.append w ~index:(G.cell_count grid) (outcome 3) );
      ( "duplicate index",
        "duplicate cell 1",
        fun w -> Checkpoint.append w ~index:1 (outcome 1) );
      ( "undecodable outcome",
        "undecodable record for cell 3",
        fun w -> Ckpt.append w [ "3"; "Z"; "not an outcome" ] );
    ];
  Sys.remove path

(* --- checkpoint: the two kinds refuse each other -------------------- *)

let test_checkpoint_kinds_refuse_each_other () =
  let grid = G.make ~campaign_seed:13 ~seeds_per_class:1 six_planes in
  let reference = json_of (sweep ~jobs:1 grid) in
  let il = Leopard.Il_profile.postgresql_si in
  let run =
    H.Run.execute
      (H.Run.config ~clients:4 ~seed:3
         ~spec:(Leopard_workload.Smallbank.spec ())
         ~profile:Minidb.Profile.postgresql ~level:si
         ~stop:(H.Run.Txn_count 300) ())
  in
  (* a checker checkpoint handed to the campaign *)
  let checker_ck = Filename.temp_file "leopard_checker" ".ck" in
  ignore (H.Session.of_outcome ~gc_watermark:100 ~checkpoint:checker_ck il run);
  let o, warnings = sweep_logged ~path:checker_ck grid in
  Alcotest.(check int) "checker checkpoint: nothing resumed" 0 o.O.resumed;
  Alcotest.(check bool) "checker checkpoint: refused at the header" true
    (match warnings with
    | [ msg ] -> contains msg "fingerprint mismatch"
    | _ -> false);
  Alcotest.(check string) "checker checkpoint: results DB intact" reference
    (json_of o);
  (* a campaign checkpoint handed to a resuming session *)
  let campaign_ck = Filename.temp_file "leopard_campaign" ".ckpt" in
  ignore (sweep ~jobs:1 ~checkpoint:campaign_ck grid);
  let trace = Filename.temp_file "leopard_checker" ".trace" in
  H.Marks.record ~path:trace run;
  let v =
    H.Session.verify ~gc_watermark:100 ~checkpoint:campaign_ck ~resume:true
      ~file:trace il (H.Marks.of_outcome run)
      (H.Session.Sorted (H.Session.list_stream (H.Run.all_traces_sorted run)))
  in
  Alcotest.(check bool) "campaign checkpoint: not resumed" true
    (v.H.Session.resumed_at = None);
  Alcotest.(check bool) "campaign checkpoint: refused at the header" true
    (match v.H.Session.warnings with
    | [ msg ] -> contains msg "fingerprint mismatch"
    | _ -> false);
  List.iter Sys.remove [ checker_ck; campaign_ck; trace ]

(* --- shrinker: reproducers replay byte-for-byte, 50 seeds ---------- *)

let test_shrinker_replays () =
  (* a forced-unexpected class: an honest baseline labeled Fail, so
     every seed verifies where a conviction was demanded *)
  let forced = clazz "mislabeled" "blindw-rw" ~txns:40 ~expect:G.Fail "" in
  for campaign_seed = 0 to 49 do
    let grid = G.make ~campaign_seed ~seeds_per_class:1 [ forced ] in
    let cell = (G.cells grid).(0) in
    let r = Runner.run cell in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d is unexpected" campaign_seed)
      false (Runner.is_expected r);
    let run c = (Runner.run c).Runner.outcome in
    let bundle = Shrink.shrink ~max_attempts:12 ~run r in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d shrank" campaign_seed)
      true
      (bundle.Shrink.shrunk.G.clazz.G.txns <= cell.G.clazz.G.txns
      && bundle.Shrink.shrunk.G.clazz.G.clients <= cell.G.clazz.G.clients);
    (* byte-for-byte: two independent replays of the shrunk cell match
       the bundle's recorded verdict and degradation line exactly *)
    Alcotest.(check bool)
      (Printf.sprintf "seed %d replay 1" campaign_seed)
      true
      (Shrink.replay ~run bundle);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d replay 2" campaign_seed)
      true
      (Shrink.same_signature bundle.Shrink.outcome (run bundle.Shrink.shrunk))
  done

(* --- orchestrator shrinks every unexpected cell automatically ------ *)

let test_orchestrator_shrinks_unexpected () =
  let grid =
    G.make ~campaign_seed:17 ~seeds_per_class:2
      [
        clazz "honest" "blindw-rw" ~txns:40 ~expect:G.Pass "";
        clazz "mislabeled" "blindw-rw" ~txns:40 ~expect:G.Fail "";
      ]
  in
  let o =
    O.run
      ~opts:{ O.default_opts with jobs = 2; shrink = true;
              max_shrink_attempts = 12 }
      grid
  in
  Alcotest.(check int) "both unexpected cells shrunk" 2 (List.length o.O.repros);
  List.iter
    (fun (rp : O.repro) ->
      Alcotest.(check string)
        "repro comes from the mislabeled class" "mislabeled"
        rp.O.result.Runner.cell.G.clazz.G.cname;
      let run c = (Runner.run c).Runner.outcome in
      Alcotest.(check bool) "repro replays" true (Shrink.replay ~run rp.O.bundle);
      (* the rendered report cites the derived seed and the CLI line *)
      let report = Shrink.render rp.O.bundle in
      let cites needle =
        let n = String.length needle and h = String.length report in
        let rec go i =
          i + n <= h && (String.sub report i n = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "report cites derived seed" true
        (cites
           (Printf.sprintf "derived seed %d" rp.O.bundle.Shrink.shrunk.G.seed));
      Alcotest.(check bool) "report cites a reproduce line" true
        (cites "reproduce : leopard "))
    o.O.repros

(* --- shrinker: repeated flags shrink to one occurrence -------------- *)

let count_flag flag (c : G.clazz) =
  List.length (List.filter (String.equal flag) c.G.flags)

(* Shrink an unexpected cell; its shrunk line must replay, in process
   and through the built CLI, to the same verdict. *)
let shrink_unexpected cell =
  let r = Runner.run cell in
  Alcotest.(check bool) "cell is unexpected" false (Runner.is_expected r);
  let run c = (Runner.run c).Runner.outcome in
  let bundle = Shrink.shrink ~run r in
  Alcotest.(check bool) "shrunk cell replays" true (Shrink.replay ~run bundle);
  let exit_code =
    match bundle.Shrink.outcome with
    | Runner.Completed { verdict = Leopard.Checker.Verified; _ } -> 0
    | Runner.Completed { verdict = Leopard.Checker.Violation; _ } -> 1
    | Runner.Completed { verdict = Leopard.Checker.Inconclusive _; _ } -> 3
    | Runner.Crashed _ | Runner.Timeout _ -> Alcotest.fail "cell did not complete"
  in
  Alcotest.(check int) "shrunk line's CLI exit" exit_code
    (fst (Helpers.run_cli (G.args bundle.Shrink.shrunk)));
  bundle.Shrink.shrunk

(* ROBUSTNESS §12's walkthrough: planted-stale-read is too small to trip
   at 40 transactions and 4 clients; the shrunk line keeps its fault. *)
let test_shrink_keeps_planted_fault () =
  let clazz =
    match G.find_preset "planted-stale-read" with
    | Some c -> G.scale ~txns:40 ~clients:4 c
    | None -> Alcotest.fail "planted-stale-read preset missing"
  in
  let shrunk = shrink_unexpected (G.cells (G.make [ clazz ])).(0) in
  Alcotest.(check int) "one --fault left" 1 (count_flag "--fault" shrunk.G.clazz);
  Alcotest.(check bool) "line carries --fault stale-read" true
    (Helpers.contains (G.cli_line shrunk) "--fault stale-read")

let test_shrink_drops_repeated_flag () =
  let clazz =
    clazz "mislabeled" "smallbank" ~txns:40 ~expect:G.Fail
      "--max-retries 2 --crash-at 100000 --crash-at 300000"
  in
  let cell = (G.cells (G.make ~campaign_seed:7 [ clazz ])).(0) in
  let shrunk = shrink_unexpected cell in
  Alcotest.(check int) "one --crash-at left" 1
    (count_flag "--crash-at" shrunk.G.clazz);
  Alcotest.(check int) "--max-retries kept" 1
    (count_flag "--max-retries" shrunk.G.clazz)

let suite =
  [
    Alcotest.test_case "derived seeds are positional citations" `Quick
      test_derived_seeds;
    Alcotest.test_case "results DB numbers are valid JSON" `Quick
      test_results_json_numbers;
    Alcotest.test_case "crash and timeout cells recorded, sweep survives"
      `Quick test_crash_and_timeout_recorded;
    Alcotest.test_case "checkpoint resume runs only incomplete cells" `Quick
      test_checkpoint_resume;
    Alcotest.test_case "damaged checkpoint degrades, never crashes" `Quick
      test_checkpoint_damage;
    Alcotest.test_case "checkpoint index checks keep the prefix" `Quick
      test_checkpoint_rejects_records;
    Alcotest.test_case "checkpoint kinds refuse each other" `Quick
      test_checkpoint_kinds_refuse_each_other;
    Alcotest.test_case "parallel sweep parses lines on the main domain"
      `Quick test_parallel_sweep_parses_on_main;
    Alcotest.test_case "orchestrator shrinks unexpected cells" `Quick
      test_orchestrator_shrinks_unexpected;
    Alcotest.test_case "shrunk line keeps the planted fault" `Quick
      test_shrink_keeps_planted_fault;
    Alcotest.test_case "repeated flags shrink to one occurrence" `Quick
      test_shrink_drops_repeated_flag;
    Alcotest.test_case "shrunk reproducers replay byte-for-byte (50 seeds)"
      `Slow test_shrinker_replays;
    Alcotest.test_case "1000-cell six-plane grid: serial = parallel bytes"
      `Slow test_thousand_cell_identity;
  ]
