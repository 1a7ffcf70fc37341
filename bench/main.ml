(* Benchmark harness: regenerates every figure of the paper's evaluation
   (§VI) against the simulated substrate.

     dune exec bench/main.exe              # all experiments
     dune exec bench/main.exe -- fig4      # one experiment
     dune exec bench/main.exe -- fig11 fig14

   Experiments: fig4 fig10 fig11 fig12 fig13 fig14 bugs profiles micro.
   Absolute numbers differ from the paper (simulator vs the authors'
   testbed); the shapes — who wins, by what factor, which direction each
   knob bends a curve — are the reproduction target (see EXPERIMENTS.md). *)

module W = Leopard_workload
module H = Leopard_harness
module B = Leopard_baselines
module Table = Leopard_util.Table

let wall () = Leopard_util.Clock.wall ()

let section title = Printf.printf "\n=== %s ===\n\n%!" title

let fmt_ms s = Table.fmt_float ~decimals:1 (s *. 1e3)

(* ------------------------------------------------------------------ *)
(* Shared plumbing *)

let run_workload ?(seed = 42) ?(faults = Minidb.Fault.Set.empty) ?latency_of
    ~spec ~profile ~level ~clients ~stop () =
  let cfg =
    H.Run.config ~clients ~seed ~faults ?latency_of ~spec ~profile ~level
      ~stop ()
  in
  H.Run.execute cfg

let pipeline_of ?optimized ?batch (outcome : H.Run.outcome) =
  Leopard.Pipeline.of_lists ?optimized ?batch outcome.client_traces

(* Verify a run as the CLI does; returns (report, wall seconds). *)
let verify ?gc_every il outcome =
  let t0 = wall () in
  let r = H.Session.of_outcome ?gc_every il outcome in
  (r.H.Session.report, wall () -. t0)

let pg = Minidb.Profile.postgresql
let sr = Minidb.Isolation.Serializable
let il_sr = Leopard.Il_profile.postgresql_serializable

(* ------------------------------------------------------------------ *)
(* Fig. 4: overlap ratio beta in YCSB-A *)

let fig4 () =
  section
    "Fig. 4 — overlapping ratio beta in YCSB-A (uncertain dependencies)";
  let beta ?(theta = 0.8) ?(clients = 24) ?(read_ratio = 0.5) () =
    let o =
      run_workload ~seed:11
        ~spec:(W.Ycsb.spec ~rows:100_000 ~theta ~read_ratio ())
        ~profile:pg ~level:sr ~clients ~stop:(H.Run.Txn_count 4_000) ()
    in
    let b = H.Overlap.compute o in
    (H.Overlap.ratio b, b.H.Overlap.total)
  in
  print_endline "(a) varying skew theta (24 threads, 50% reads):";
  Table.print
    ~header:[ "theta"; "beta"; "deps" ]
    (List.map
       (fun theta ->
         let r, total = beta ~theta () in
         [ Printf.sprintf "%.2f" theta; Printf.sprintf "%.4f" r;
           Table.fmt_int total ])
       [ 0.0; 0.4; 0.8; 0.99 ]);
  print_endline "\n(b) varying thread scale (theta 0.8):";
  Table.print
    ~header:[ "threads"; "beta"; "deps" ]
    (List.map
       (fun clients ->
         let r, total = beta ~clients () in
         [ string_of_int clients; Printf.sprintf "%.4f" r;
           Table.fmt_int total ])
       [ 4; 8; 16; 32; 64 ]);
  print_endline "\n(c) varying read ratio (theta 0.8, 24 threads):";
  Table.print
    ~header:[ "read ratio"; "beta"; "deps" ]
    (List.map
       (fun read_ratio ->
         let r, total = beta ~read_ratio () in
         [ Printf.sprintf "%.2f" read_ratio; Printf.sprintf "%.4f" r;
           Table.fmt_int total ])
       [ 0.25; 0.5; 0.75 ]);
  print_endline
    "\npaper: beta stays small (<6%) and grows with skew and thread scale."

(* ------------------------------------------------------------------ *)
(* Fig. 10: two-level pipeline vs naive sort (memory & dispatch time) *)

let fig10 () =
  section "Fig. 10 — two-level pipeline performance (trace dispatching)";
  (* The straggler variant reproduces the paper's uneven-timestamp
     scenario: a few clients run 20x slower, which is exactly what makes
     the unoptimized global buffer accumulate other clients' traces. *)
  let straggler_latency client =
    if client < 3 then
      {
        H.Run.default_latency with
        H.Run.net_mean_ns = 1_000_000.0;
        think_mean_ns = 2_000_000.0;
      }
    else H.Run.default_latency
  in
  let workloads =
    [
      ("tpcc", None, fun () -> W.Tpcc.spec ());
      ("smallbank", None, fun () -> W.Smallbank.spec ());
      ("blindw-rw+", None, fun () -> W.Blindw.spec W.Blindw.RW_plus);
      ( "blindw-rw+ stragglers",
        Some straggler_latency,
        fun () -> W.Blindw.spec W.Blindw.RW_plus );
    ]
  in
  let scales = [ 2_000; 5_000; 10_000; 20_000 ] in
  let rows = ref [] in
  List.iter
    (fun (name, latency_of, mk_spec) ->
      List.iter
        (fun txns ->
          let outcome =
            run_workload ~seed:3 ?latency_of ~spec:(mk_spec ()) ~profile:pg
              ~level:sr ~clients:24 ~stop:(H.Run.Txn_count txns) ()
          in
          let time_pipeline ~optimized =
            let pipe = pipeline_of ~optimized outcome in
            let t0 = wall () in
            let first = Leopard.Pipeline.next pipe in
            let t_first = wall () -. t0 in
            ignore first;
            let n = 1 + Leopard.Pipeline.drain pipe ~f:(fun _ -> ()) in
            (n, wall () -. t0, t_first, Leopard.Pipeline.peak_memory pipe)
          in
          let n_opt, t_opt, f_opt, m_opt = time_pipeline ~optimized:true in
          let _, t_wo, _, m_wo = time_pipeline ~optimized:false in
          let naive =
            B.Naive_sorter.create
              ~sources:
                (Array.map
                   (fun traces ->
                     let rest = ref traces in
                     fun () ->
                       match !rest with
                       | [] -> None
                       | t :: tl ->
                         rest := tl;
                         Some t)
                   outcome.H.Run.client_traces)
              ()
          in
          let t0 = wall () in
          let _first = B.Naive_sorter.next naive in
          let f_naive = wall () -. t0 in
          ignore (B.Naive_sorter.drain naive ~f:(fun _ -> ()));
          let t_naive = wall () -. t0 in
          let m_naive = B.Naive_sorter.peak_memory naive in
          rows :=
            [
              name;
              Table.fmt_int txns;
              Table.fmt_int n_opt;
              fmt_ms t_opt;
              fmt_ms t_wo;
              fmt_ms t_naive;
              Printf.sprintf "%.3f" (f_opt *. 1e3);
              Printf.sprintf "%.3f" (f_naive *. 1e3);
              Table.fmt_int m_opt;
              Table.fmt_int m_wo;
              Table.fmt_int m_naive;
            ]
            :: !rows)
        scales)
    workloads;
  Table.print
    ~aligns:Table.[ Left ]
    ~header:
      [ "workload"; "txns"; "traces"; "t(ms) 2level"; "t(ms) w/o-opt";
        "t(ms) naive"; "first(ms) 2lvl"; "first(ms) naive"; "mem 2level";
        "mem w/o-opt"; "mem naive" ]
    (List.rev !rows);
  print_endline
    "\npaper: the two-level pipeline dispatches with a small stable buffer\n\
     and starts dispatching immediately; the naive approach must ingest and\n\
     sort the whole run before the first trace leaves (its first-dispatch\n\
     latency IS its sort time), with the whole run resident in memory."

(* ------------------------------------------------------------------ *)
(* Fig. 11: mechanism-mirrored verification time *)

let fig11 () =
  section "Fig. 11 — verification time (BlindW-RW+, postgresql/SR)";
  let naive_cap = 4_000 in
  let measure ~txns ~clients ~txn_len =
    let spec = W.Blindw.spec ~txn_len W.Blindw.RW_plus in
    let t0 = wall () in
    let outcome =
      run_workload ~seed:13 ~spec ~profile:pg ~level:sr ~clients
        ~stop:(H.Run.Txn_count txns) ()
    in
    let dbms_wall = wall () -. t0 in
    let _, t_leopard = verify il_sr outcome in
    let t_naive =
      if txns > naive_cap then None
      else begin
        let cs = B.Cycle_search.create ~search_every:1 il_sr in
        let t0 = wall () in
        List.iter (B.Cycle_search.feed cs) (H.Run.all_traces_sorted outcome);
        B.Cycle_search.finalize cs;
        Some (wall () -. t0)
      end
    in
    (outcome, dbms_wall, t_leopard, t_naive)
  in
  print_endline "(a) varying transaction scale (24 threads, length 8):";
  Table.print
    ~header:
      [ "txns"; "leopard(ms)"; "cycle-search(ms)"; "dbms-run(ms)";
        "naive/leopard" ]
    (List.map
       (fun txns ->
         let _, dbms, tl, tn = measure ~txns ~clients:24 ~txn_len:8 in
         [
           Table.fmt_int txns;
           fmt_ms tl;
           (match tn with Some t -> fmt_ms t | None -> "-");
           fmt_ms dbms;
           (match tn with
           | Some t when tl > 0.0 -> Printf.sprintf "%.0fx" (t /. tl)
           | _ -> "-");
         ])
       [ 1_000; 2_000; 4_000; 6_000; 10_000; 16_000; 20_000 ]);
  print_endline "\n(b) varying thread scale (20k txns, length 8):";
  Table.print
    ~header:[ "threads"; "leopard(ms)"; "aborted"; "commit rate" ]
    (List.map
       (fun clients ->
         let o, _, tl, _ = measure ~txns:20_000 ~clients ~txn_len:8 in
         [
           string_of_int clients;
           fmt_ms tl;
           Table.fmt_int o.H.Run.aborts;
           Printf.sprintf "%.2f"
             (float_of_int o.H.Run.commits
             /. float_of_int (o.H.Run.commits + o.H.Run.aborts));
         ])
       [ 8; 16; 24; 32; 48; 64 ]);
  print_endline "\n(c) varying transaction length (24 threads, 10k txns):";
  Table.print
    ~header:[ "txn length"; "leopard(ms)"; "traces" ]
    (List.map
       (fun txn_len ->
         let o, _, tl, _ = measure ~txns:10_000 ~clients:24 ~txn_len in
         let traces =
           Array.fold_left
             (fun acc l -> acc + List.length l)
             0 o.H.Run.client_traces
         in
         [ string_of_int txn_len; fmt_ms tl; Table.fmt_int traces ])
       [ 2; 4; 8; 12; 16 ]);
  print_endline
    "\npaper: Leopard's time is linear in transaction scale and length,\n\
     decreases as aborts rise with thread scale, and is orders of magnitude\n\
     below naive cycle searching."

(* ------------------------------------------------------------------ *)
(* Fig. 12: DBMS throughput vs Leopard throughput *)

let fig12 () =
  section "Fig. 12 — workload throughput vs verification throughput";
  let run_one name spec =
    let t0 = wall () in
    let outcome =
      run_workload ~seed:17 ~spec ~profile:pg ~level:sr ~clients:24
        ~stop:(H.Run.Sim_time_ns 300_000_000) ()
    in
    let sim_wall = wall () -. t0 in
    let report, t_leopard = verify il_sr outcome in
    let finished = outcome.commits + outcome.aborts in
    let dbms_tps =
      float_of_int finished /. (float_of_int outcome.sim_duration_ns /. 1e9)
    in
    let leopard_tps = float_of_int finished /. t_leopard in
    [
      name;
      Table.fmt_int finished;
      Table.fmt_float ~decimals:0 dbms_tps;
      Table.fmt_float ~decimals:0 leopard_tps;
      Printf.sprintf "%.1fx" (leopard_tps /. dbms_tps);
      fmt_ms sim_wall;
      Table.fmt_int report.Leopard.Checker.peak_live;
    ]
  in
  let rows =
    List.concat
      [
        List.map
          (fun sf ->
            run_one
              (Printf.sprintf "smallbank sf=%d" sf)
              (W.Smallbank.spec ~scale_factor:sf ()))
          [ 1; 2; 4 ];
        List.map
          (fun sf ->
            run_one
              (Printf.sprintf "tpcc sf=%d" sf)
              (W.Tpcc.spec ~scale_factor:sf ()))
          [ 1; 2; 4 ];
      ]
  in
  Table.print
    ~aligns:Table.[ Left ]
    ~header:
      [ "workload"; "txns"; "dbms tps (sim)"; "leopard tps (wall)"; "ratio";
        "sim wall(ms)"; "peak mem" ]
    rows;
  print_endline
    "\npaper: Leopard's verification throughput keeps up with (and on\n\
     complex workloads exceeds) the DBMS's transaction throughput."

(* ------------------------------------------------------------------ *)
(* Fig. 13: effectiveness of deducing dependencies *)

let fig13 () =
  section "Fig. 13 — deducing uncertain dependencies (postgresql/SR)";
  let dep_kind_map = function
    | Minidb.Ground_truth.Ww -> Leopard.Dep.Ww
    | Minidb.Ground_truth.Wr -> Leopard.Dep.Wr
    | Minidb.Ground_truth.Rw -> Leopard.Dep.Rw
  in
  let rows =
    List.map
      (fun (name, spec) ->
        let outcome =
          run_workload ~seed:23 ~spec ~profile:pg ~level:sr ~clients:32
            ~stop:(H.Run.Txn_count 16_000) ()
        in
        (* deduction effectiveness is measured with GC off, so no edge is
           lost to pruning *)
        let checker = Leopard.Checker.create ~gc_every:0 il_sr in
        List.iter
          (Leopard.Checker.feed checker)
          (H.Run.all_traces_sorted outcome);
        Leopard.Checker.finalize checker;
        let classified =
          H.Overlap.classify outcome ~deduced:(fun kind from_txn to_txn ->
              Leopard.Checker.deduced checker (dep_kind_map kind) from_txn
                to_txn)
        in
        let beta = classified.H.Overlap.beta in
        [
          name;
          Table.fmt_int beta.H.Overlap.total;
          Table.fmt_int beta.H.Overlap.overlapping;
          Printf.sprintf "%.5f" (H.Overlap.ratio beta);
          Table.fmt_int classified.H.Overlap.deduced;
          Table.fmt_int classified.H.Overlap.uncertain;
          (if beta.H.Overlap.overlapping = 0 then "-"
           else
             Printf.sprintf "%.0f%%"
               (100.0
               *. float_of_int classified.H.Overlap.deduced
               /. float_of_int beta.H.Overlap.overlapping));
        ])
      [
        ("smallbank", W.Smallbank.spec ~hotspot:0.8 ());
        ("tpcc", W.Tpcc.spec ());
        ("blindw-w", W.Blindw.spec W.Blindw.W);
        ("blindw-rw", W.Blindw.spec W.Blindw.RW);
      ]
  in
  Table.print
    ~aligns:Table.[ Left ]
    ~header:
      [ "workload"; "deps"; "overlapping"; "beta"; "deduced"; "uncertain";
        "recovered" ]
    rows;
  print_endline
    "\npaper: BlindW's uniquely-written values let every overlapped\n\
     dependency be deduced; SmallBank (duplicate amalgamate values) and\n\
     TPC-C (partial-attribute access) leave a residue of uncertain ones."

(* ------------------------------------------------------------------ *)
(* Fig. 14: comparison with Cobra *)

let fig14 () =
  section "Fig. 14 — comparison with Cobra (BlindW-RW, serializability)";
  (* Cobra's cost explodes superlinearly; past this scale we only run
     Leopard (the paper similarly stops plotting the losing curves). *)
  let cobra_cap = 2_000 in
  let measure ~txns ~clients =
    let outcome =
      run_workload ~seed:29 ~spec:(W.Blindw.spec W.Blindw.RW) ~profile:pg
        ~level:sr ~clients ~stop:(H.Run.Txn_count txns) ()
    in
    let traces = H.Run.all_traces_sorted outcome in
    let report, t_leopard = verify il_sr outcome in
    let cobra gc =
      if txns > cobra_cap then None
      else begin
        let c = B.Cobra.create ~gc () in
        let t0 = wall () in
        List.iter (B.Cobra.feed c) traces;
        let r = B.Cobra.finalize c in
        Some (r, wall () -. t0)
      end
    in
    ( t_leopard,
      report.Leopard.Checker.peak_live,
      cobra (B.Cobra.Fence 20),
      cobra B.Cobra.No_gc )
  in
  let opt_ms = function Some (_, t) -> fmt_ms t | None -> "-" in
  let opt_mem = function
    | Some (r, _) -> Table.fmt_int r.B.Cobra.peak_live
    | None -> "-"
  in
  let speedup tl = function
    | Some (_, t) when tl > 0.0 -> Printf.sprintf "%.0fx" (t /. tl)
    | _ -> "-"
  in
  print_endline "(a,b) varying transaction scale (24 threads):";
  Table.print
    ~header:
      [ "txns"; "leopard(ms)"; "cobra(ms)"; "cobra-noGC(ms)"; "cobra/leopard";
        "mem L"; "mem C"; "mem C-noGC" ]
    (List.map
       (fun txns ->
         let tl, ml, fence, nogc = measure ~txns ~clients:24 in
         [
           Table.fmt_int txns;
           fmt_ms tl;
           opt_ms fence;
           opt_ms nogc;
           speedup tl fence;
           Table.fmt_int ml;
           opt_mem fence;
           opt_mem nogc;
         ])
       [ 500; 1_000; 2_000; 5_000; 10_000; 20_000 ]);
  print_endline "\n(c,d) varying thread scale (1.5k txns):";
  Table.print
    ~header:
      [ "threads"; "leopard(ms)"; "cobra(ms)"; "cobra/leopard"; "mem L";
        "mem C" ]
    (List.map
       (fun clients ->
         let tl, ml, fence, _ = measure ~txns:1_500 ~clients in
         [
           string_of_int clients;
           fmt_ms tl;
           opt_ms fence;
           speedup tl fence;
           Table.fmt_int ml;
           opt_mem fence;
         ])
       [ 8; 16; 24; 32 ]);
  print_endline
    "\npaper: Leopard scales linearly where Cobra's constraint pruning and\n\
     fence traversals grow superlinearly (114x at 20k txns, 271x at 32\n\
     threads); Cobra with fence GC is the worst, spending its time\n\
     identifying garbage on the polygraph.  Past the cap only Leopard is\n\
     run — Cobra's curve has already left the chart."

(* ------------------------------------------------------------------ *)
(* Bug study (§VI-F) *)

let bugs () =
  section "Bug study (par. VI-F) — 17 injected faults, Leopard vs Elle-style";
  let rows =
    List.map
      (fun (p : W.Probes.probe) ->
        let run inject =
          run_workload ~seed:5
            ~faults:
              (if inject then Minidb.Fault.Set.singleton p.fault
               else Minidb.Fault.Set.empty)
            ~spec:p.spec ~profile:p.db_profile ~level:p.level
            ~clients:p.clients ~stop:(H.Run.Txn_count p.txns) ()
        in
        let clean = run false and faulted = run true in
        let il = Option.get (Leopard.Il_profile.find p.verifier_profile) in
        let r_clean, _ = verify il clean in
        let r_fault, _ = verify il faulted in
        let elle = B.Elle.check (H.Run.all_traces_sorted faulted) in
        let mechanisms =
          String.concat "+"
            (List.sort_uniq compare
               (List.map
                  (fun (b : Leopard.Bug.t) ->
                    Leopard.Bug.mechanism_to_string b.mechanism)
                  r_fault.Leopard.Checker.bugs))
        in
        let anomaly =
          let tally = Hashtbl.create 8 in
          List.iter
            (fun (b : Leopard.Bug.t) ->
              match b.anomaly with
              | Some a ->
                Hashtbl.replace tally a
                  (1 + Option.value ~default:0 (Hashtbl.find_opt tally a))
              | None -> ())
            r_fault.Leopard.Checker.bugs;
          Hashtbl.fold
            (fun a n best ->
              match best with
              | Some (_, m) when m >= n -> best
              | _ -> Some (a, n))
            tally None
          |> function
          | Some (a, _) -> Leopard.Anomaly.to_string a
          | None -> "-"
        in
        [
          Minidb.Fault.to_string p.fault;
          p.verifier_profile;
          string_of_int r_clean.Leopard.Checker.bugs_total;
          string_of_int r_fault.Leopard.Checker.bugs_total;
          mechanisms;
          anomaly;
          (if elle.B.Elle.anomalies = [] then "silent"
           else string_of_int (List.length elle.B.Elle.anomalies));
        ])
      (W.Probes.all ())
  in
  Table.print
    ~aligns:Table.[ Left; Left ]
    ~header:
      [ "fault"; "profile"; "clean"; "faulted"; "leopard"; "anomaly"; "elle" ]
    rows;
  print_endline
    "\npaper: Leopard found 17 bugs other checkers missed; cycle-only\n\
     checkers are structurally blind to non-cyclic anomalies (Bugs 1-4)."

(* ------------------------------------------------------------------ *)
(* Fig. 1 profile matrix *)

let profiles () =
  section "Fig. 1 — isolation level implementations (mechanism matrix)";
  print_string (Minidb.Profile.fig1_matrix ());
  print_endline "\nVerifier-side profiles (what Leopard checks per claim):";
  Table.print
    ~aligns:Table.[ Left; Left; Left; Left; Left ]
    ~header:[ "profile"; "ME"; "CR"; "FUW"; "SC" ]
    (List.map
       (fun (p : Leopard.Il_profile.t) ->
         [
           p.name;
           (if p.check_me then "yes" else "");
           (match p.check_cr with
           | Some Leopard.Il_profile.Txn_snapshot -> "txn"
           | Some Leopard.Il_profile.Stmt_snapshot -> "stmt"
           | None -> "");
           (if p.check_fuw then "yes" else "");
           (match p.check_sc with
           | Some c -> Leopard.Il_profile.certifier_to_string c
           | None -> "");
         ])
       Leopard.Il_profile.all)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks *)

let micro () =
  section "Micro-benchmarks (Bechamel): core verifier operations";
  let open Bechamel in
  (* Pre-build inputs outside the timed staged functions. *)
  let outcome =
    run_workload ~seed:31 ~spec:(W.Blindw.spec W.Blindw.RW_plus) ~profile:pg
      ~level:sr ~clients:24 ~stop:(H.Run.Txn_count 1_000) ()
  in
  let traces = Array.of_list (H.Run.all_traces_sorted outcome) in
  let n_traces = Array.length traces in
  let test_checker =
    Test.make
      ~name:(Printf.sprintf "checker feed+finalize (%d traces)" n_traces)
      (Staged.stage (fun () ->
           let checker = Leopard.Checker.create il_sr in
           Array.iter (Leopard.Checker.feed checker) traces;
           Leopard.Checker.finalize checker))
  in
  let heap = Leopard_util.Min_heap.create ~compare in
  let test_heap =
    Test.make ~name:"min-heap push+pop x1000"
      (Staged.stage (fun () ->
           for i = 0 to 999 do
             Leopard_util.Min_heap.push heap ((i * 7919) mod 1000)
           done;
           for _ = 0 to 999 do
             ignore (Leopard_util.Min_heap.pop heap)
           done))
  in
  let iv = Leopard_util.Interval.make in
  let e0 =
    {
      Leopard.Me_verifier.etxn = 0;
      mode = Leopard.Me_verifier.X;
      acquire_iv = iv ~bef:0 ~aft:10;
      release_iv = Some (iv ~bef:20 ~aft:35);
    }
  in
  let e1 =
    {
      Leopard.Me_verifier.etxn = 1;
      mode = Leopard.Me_verifier.X;
      acquire_iv = iv ~bef:30 ~aft:40;
      release_iv = Some (iv ~bef:50 ~aft:60);
    }
  in
  let test_me_judge =
    Test.make ~name:"ME order enumeration (judge)"
      (Staged.stage (fun () ->
           ignore (Leopard.Me_verifier.judge ~mine:e0 ~other:e1)))
  in
  let chain =
    List.init 16 (fun i ->
        {
          Leopard.Version_order.value = i;
          vtxn = i;
          write_iv = iv ~bef:((i * 100) + 1) ~aft:((i * 100) + 10);
          commit_iv = iv ~bef:((i * 100) + 20) ~aft:((i * 100) + 30);
          readers = [];
        })
  in
  let snapshot = iv ~bef:820 ~aft:840 in
  let test_candidates =
    Test.make ~name:"CR candidate set (16 versions)"
      (Staged.stage (fun () ->
           ignore (Leopard.Candidate.candidates ~snapshot chain)))
  in
  let tests = [ test_heap; test_me_judge; test_candidates; test_checker ] in
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    let results = Benchmark.all cfg instances test in
    let ols =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        Toolkit.Instance.monotonic_clock results
    in
    Hashtbl.fold
      (fun name result acc ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> (name, est) :: acc
        | _ -> acc)
      ols []
  in
  List.iter
    (fun test ->
      List.iter
        (fun (name, ns) -> Printf.printf "  %-44s %14.1f ns/run\n" name ns)
        (benchmark test))
    tests;
  Printf.printf
    "\n(the checker entry covers %d traces per run: divide for per-trace \
     cost)\n"
    n_traces

(* ------------------------------------------------------------------ *)
(* Online mode: live verification attached to the running workload *)

let emit_json = ref false

(* Bounded-memory streamed soak: a synthetic, provably serializable
   workload generated on the fly (nothing materialized), pushed through
   the two-level pipeline into a truncating checker.  Transaction i
   reads the previous value of cell (i mod cells), overwrites it with
   the unique value i+1 and commits, all in disjoint intervals — every
   dependency is Direct and the verdict must be Verified at any scale.
   The point of the experiment is the memory column: peak live state is
   a function of the truncation window, not of history length. *)
let online_soak ~clients ~cells ~window ~txns =
  let next = Array.make clients 0 in
  let queues = Array.init clients (fun _ -> Queue.create ()) in
  let cell i = Leopard_trace.Cell.make ~table:0 ~row:(i mod cells) ~col:0 in
  let gen c =
    let i = (next.(c) * clients) + c in
    if i >= txns then false
    else begin
      next.(c) <- next.(c) + 1;
      let t = i * 8 in
      let mk ts_bef ts_aft payload =
        { Leopard_trace.Trace.ts_bef; ts_aft; txn = i; client = c; payload }
      in
      if i >= cells then
        Queue.push
          (mk t (t + 1)
             (Leopard_trace.Trace.Read
                {
                  items =
                    [
                      {
                        Leopard_trace.Trace.cell = cell i;
                        value = i - cells + 1;
                      };
                    ];
                  locking = false;
                }))
          queues.(c);
      Queue.push
        (mk (t + 2) (t + 3)
           (Leopard_trace.Trace.Write
              [ { Leopard_trace.Trace.cell = cell i; value = i + 1 } ]))
        queues.(c);
      Queue.push (mk (t + 4) (t + 5) Leopard_trace.Trace.Commit) queues.(c);
      true
    end
  in
  let sources =
    Array.init clients (fun c () ->
        match Queue.take_opt queues.(c) with
        | Some tr -> Leopard.Pipeline.Item tr
        | None ->
          if gen c then (
            match Queue.take_opt queues.(c) with
            | Some tr -> Leopard.Pipeline.Item tr
            | None -> Leopard.Pipeline.Closed)
          else Leopard.Pipeline.Closed)
  in
  let t0 = wall () in
  let r =
    H.Session.verify ~gc_watermark:window il_sr H.Marks.empty
      (H.Session.Pipeline (Leopard.Pipeline.create ~sources ()))
  in
  (r.H.Session.report, r.H.Session.pipeline_peak, wall () -. t0)

let online () =
  section
    "Online verification — Leopard attached live (SVI-C deployment mode)";
  let live =
    List.map
      (fun (name, spec) ->
        let cfg =
          H.Run.config ~clients:24 ~seed:41 ~spec ~profile:pg ~level:sr
            ~stop:(H.Run.Sim_time_ns 200_000_000) ()
        in
        let r = H.Online.run ~il:il_sr cfg in
        (name, r))
      [
        ("smallbank", W.Smallbank.spec ());
        ("tpcc", W.Tpcc.spec ());
        ("blindw-rw+", W.Blindw.spec W.Blindw.RW_plus);
      ]
  in
  Table.print
    ~aligns:Table.[ Left ]
    ~header:
      [ "workload"; "traces"; "batches"; "max lag"; "final lag"; "stranded";
        "verify wall(ms)"; "bugs" ]
    (List.map
       (fun (name, r) ->
         [
           name;
           Table.fmt_int r.H.Online.report.Leopard.Checker.traces;
           Table.fmt_int r.H.Online.rounds;
           Table.fmt_int r.H.Online.max_lag;
           Table.fmt_int r.H.Online.final_lag;
           Table.fmt_int r.H.Online.stranded;
           fmt_ms r.H.Online.verify_wall_s;
           string_of_int r.H.Online.report.Leopard.Checker.bugs_total;
         ])
       live);
  print_endline
    "\npaper: the Verifier keeps pace with the running DBMS — the backlog\n\
     of produced-but-unverified traces stays bounded by one batch window.";
  let clients = 8 and cells = 64 and window = 20_000 in
  let scales = [ 100_000; 300_000; 1_000_000 ] in
  Printf.printf
    "\nbounded-memory streamed soak (%d clients, truncate every %d traces):\n"
    clients window;
  let soak =
    List.map
      (fun txns ->
        let report, pipeline_peak, dt =
          online_soak ~clients ~cells ~window ~txns
        in
        (txns, report, pipeline_peak, dt))
      scales
  in
  Table.print
    ~header:
      [ "txns"; "traces"; "peak live"; "pipe peak"; "cuts"; "deps folded";
        "wall(s)"; "traces/s"; "bugs" ]
    (List.map
       (fun (txns, (r : Leopard.Checker.report), pipeline_peak, dt) ->
         [
           Table.fmt_int txns;
           Table.fmt_int r.Leopard.Checker.traces;
           Table.fmt_int r.Leopard.Checker.peak_live;
           Table.fmt_int pipeline_peak;
           Table.fmt_int r.Leopard.Checker.truncations;
           Table.fmt_int r.Leopard.Checker.truncated_deps;
           Table.fmt_float ~decimals:2 dt;
           Table.fmt_int
             (int_of_float (float_of_int r.Leopard.Checker.traces /. dt));
           string_of_int r.Leopard.Checker.bugs_total;
         ])
       soak);
  print_endline
    "\nthe memory claim: 10x the history, same peak live state — the\n\
     truncating checker holds a window, not a history.";
  if !emit_json then begin
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n  \"live\": [\n";
    List.iteri
      (fun i (name, (r : H.Online.result)) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"workload\": \"%s\", \"traces\": %d, \"rounds\": %d, \
              \"max_lag\": %d, \"final_lag\": %d, \"stranded\": %d, \
              \"verify_wall_s\": %.4f, \"bugs\": %d}%s\n"
             name r.H.Online.report.Leopard.Checker.traces r.H.Online.rounds
             r.H.Online.max_lag r.H.Online.final_lag r.H.Online.stranded
             r.H.Online.verify_wall_s
             r.H.Online.report.Leopard.Checker.bugs_total
             (if i = List.length live - 1 then "" else ",")))
      live;
    Buffer.add_string buf "  ],\n";
    Buffer.add_string buf
      (Printf.sprintf
         "  \"soak\": {\n    \"clients\": %d, \"cells\": %d, \"window\": \
          %d,\n    \"scales\": [\n"
         clients cells window);
    List.iteri
      (fun i (txns, (r : Leopard.Checker.report), pipeline_peak, dt) ->
        let verdict =
          match Leopard.Checker.verdict r with
          | Leopard.Checker.Verified -> "verified"
          | Leopard.Checker.Violation -> "violation"
          | Leopard.Checker.Inconclusive _ -> "inconclusive"
        in
        Buffer.add_string buf
          (Printf.sprintf
             "      {\"txns\": %d, \"traces\": %d, \"peak_live\": %d, \
              \"pipeline_peak\": %d, \"truncations\": %d, \
              \"truncated_deps\": %d, \"wall_s\": %.3f, \"traces_per_s\": \
              %.0f, \"verdict\": \"%s\", \"bugs\": %d}%s\n"
             txns r.Leopard.Checker.traces r.Leopard.Checker.peak_live
             pipeline_peak r.Leopard.Checker.truncations
             r.Leopard.Checker.truncated_deps dt
             (float_of_int r.Leopard.Checker.traces /. dt)
             verdict r.Leopard.Checker.bugs_total
             (if i = List.length soak - 1 then "" else ",")))
      soak;
    Buffer.add_string buf "    ]\n  }\n}\n";
    let oc = open_out "BENCH_online.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    print_endline "\nwrote BENCH_online.json"
  end

(* ------------------------------------------------------------------ *)
(* Ablations of DESIGN.md's design choices *)

let ablation () =
  section "Ablations — GC cadence, candidate narrowing, pipeline batch";
  (* (a) verifier GC cadence: memory vs time, identical verdicts *)
  let outcome =
    run_workload ~seed:37 ~spec:(W.Blindw.spec W.Blindw.RW_plus) ~profile:pg
      ~level:sr ~clients:24 ~stop:(H.Run.Txn_count 8_000) ()
  in
  print_endline "(a) garbage-collection cadence (BlindW-RW+, 8k txns):";
  Table.print
    ~header:
      [ "gc every"; "time(ms)"; "peak live"; "final live"; "pruned"; "bugs" ]
    (List.map
       (fun gc_every ->
         let r, dt = verify ~gc_every il_sr outcome in
         [
           (if gc_every = 0 then "off" else Table.fmt_int gc_every);
           fmt_ms dt;
           Table.fmt_int r.Leopard.Checker.peak_live;
           Table.fmt_int r.Leopard.Checker.final_live;
           Table.fmt_int
             (r.Leopard.Checker.pruned_versions
             + r.Leopard.Checker.pruned_locks + r.Leopard.Checker.pruned_fuw
             + r.Leopard.Checker.pruned_graph);
           string_of_int r.Leopard.Checker.bugs_total;
         ])
       [ 0; 64; 512; 4096 ]);
  (* (b) candidate narrowing: detection strength on a stale-read engine *)
  print_endline
    "\n(b) SV-A cooperation (ww-narrowed candidate sets) on a stale-read \
     engine:";
  let p = W.Probes.for_fault Minidb.Fault.Stale_read in
  let faulted =
    run_workload ~seed:5 ~faults:(Minidb.Fault.Set.singleton p.fault)
      ~spec:p.spec ~profile:p.db_profile ~level:p.level ~clients:p.clients
      ~stop:(H.Run.Txn_count p.txns) ()
  in
  let il = Option.get (Leopard.Il_profile.find p.verifier_profile) in
  let ftraces = H.Run.all_traces_sorted faulted in
  Table.print
    ~aligns:Table.[ Left ]
    ~header:[ "candidate narrowing"; "violations found" ]
    (List.map
       (fun narrow_candidates ->
         let checker = Leopard.Checker.create ~narrow_candidates il in
         List.iter (Leopard.Checker.feed checker) ftraces;
         Leopard.Checker.finalize checker;
         [
           (if narrow_candidates then "on (deduced ww order)" else "off");
           string_of_int (Leopard.Checker.report checker).bugs_total;
         ])
       [ true; false ]);
  (* (c) pipeline local-buffer batch size *)
  print_endline "\n(c) pipeline batch size (BlindW-RW+ traces):";
  Table.print
    ~header:[ "batch"; "time(ms)"; "peak buffered" ]
    (List.map
       (fun batch ->
         let pipe = pipeline_of ~batch outcome in
         let t0 = wall () in
         ignore (Leopard.Pipeline.drain pipe ~f:(fun _ -> ()));
         [
           Table.fmt_int batch;
           fmt_ms (wall () -. t0);
           Table.fmt_int (Leopard.Pipeline.peak_memory pipe);
         ])
       [ 8; 64; 256; 1024 ])

(* ------------------------------------------------------------------ *)
(* Recovery: WAL overhead and replay speed *)

let recovery () =
  section "Recovery — WAL write overhead and replay speed";
  let clients = 24 and txns = 8_000 in
  let spec = W.Smallbank.spec () in
  let timed_run ~wal =
    let cfg =
      H.Run.config ~clients ~seed:43 ~wal ~spec ~profile:pg ~level:sr
        ~stop:(H.Run.Txn_count txns) ()
    in
    let t0 = wall () in
    let o = H.Run.execute cfg in
    (o, wall () -. t0)
  in
  let ops_per_s (o : H.Run.outcome) t =
    if t <= 0.0 then 0.0
    else float_of_int (o.H.Run.commits + o.H.Run.aborts) /. t
  in
  ignore (timed_run ~wal:false) (* warm-up: exclude cold-start noise *);
  let o_off, t_off = timed_run ~wal:false in
  let o_on, t_on = timed_run ~wal:true in
  let tput_off = ops_per_s o_off t_off and tput_on = ops_per_s o_on t_on in
  let overhead_pct =
    if tput_off <= 0.0 then 0.0
    else 100.0 *. (1.0 -. (tput_on /. tput_off))
  in
  print_endline "(a) engine throughput, WAL off vs on (smallbank, 8k txns):";
  Table.print
    ~aligns:Table.[ Left ]
    ~header:[ "wal"; "txns"; "wall(ms)"; "ops/s"; "records" ]
    [
      [
        "off";
        Table.fmt_int (o_off.H.Run.commits + o_off.H.Run.aborts);
        fmt_ms t_off;
        Table.fmt_float ~decimals:0 tput_off;
        "-";
      ];
      [
        "on";
        Table.fmt_int (o_on.H.Run.commits + o_on.H.Run.aborts);
        fmt_ms t_on;
        Table.fmt_float ~decimals:0 tput_on;
        Table.fmt_int o_on.H.Run.wal_appended;
      ];
    ];
  Printf.printf "\nwal overhead: %.1f%% of wal-off throughput\n" overhead_pct;
  (* (b) replay speed: append n commit records to a fault-free WAL, crash,
     and time the Version_store rebuild *)
  let replay_point n =
    let wal = Minidb.Wal.create () in
    for i = 0 to n - 1 do
      Minidb.Wal.append wal
        {
          Minidb.Wal.txn = i;
          client = i mod clients;
          start_ts = (i * 100) + 1;
          commit_ts = (i * 100) + 50;
          writes =
            List.init 4 (fun j ->
                {
                  Minidb.Wal.cell =
                    Leopard_trace.Cell.make ~table:0
                      ~row:(((i * 7) + j) mod 1024)
                      ~col:0;
                  value = (i * 4) + j;
                  write_op = j;
                  commit_ts = (i * 100) + 50 + j;
                });
        }
    done;
    let records, damage = Minidb.Wal.crash wal in
    let t0 = wall () in
    let _store, summary =
      Minidb.Recovery.replay ~initial:[] ~records
        ~fresh_ts:(fun () -> (n * 100) + 1)
        ~damage
    in
    let dt = wall () -. t0 in
    (summary, dt)
  in
  let replay_sizes = [ 2_000; 10_000; 50_000 ] in
  let replay_rows =
    List.map
      (fun n ->
        let summary, dt = replay_point n in
        let per_s =
          if dt <= 0.0 then 0.0 else float_of_int summary.replayed /. dt
        in
        (n, summary, dt, per_s))
      replay_sizes
  in
  print_endline "\n(b) recovery replay (fault-free crash, 4 writes/record):";
  Table.print
    ~header:[ "records"; "versions"; "replay(ms)"; "records/s" ]
    (List.map
       (fun (n, (s : Minidb.Recovery.summary), dt, per_s) ->
         [
           Table.fmt_int n;
           Table.fmt_int s.versions_installed;
           fmt_ms dt;
           Table.fmt_float ~decimals:0 per_s;
         ])
       replay_rows);
  if !emit_json then begin
    let buf = Buffer.create 512 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf
      (Printf.sprintf
         "  \"workload\": \"smallbank\",\n  \"txns\": %d,\n  \"clients\": \
          %d,\n"
         txns clients);
    Buffer.add_string buf
      (Printf.sprintf "  \"wal_off_ops_per_s\": %.1f,\n" tput_off);
    Buffer.add_string buf
      (Printf.sprintf "  \"wal_on_ops_per_s\": %.1f,\n" tput_on);
    Buffer.add_string buf
      (Printf.sprintf "  \"wal_overhead_pct\": %.2f,\n" overhead_pct);
    Buffer.add_string buf
      (Printf.sprintf "  \"wal_records\": %d,\n" o_on.H.Run.wal_appended);
    Buffer.add_string buf "  \"replay\": [\n";
    List.iteri
      (fun i (n, (s : Minidb.Recovery.summary), dt, per_s) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"records\": %d, \"versions\": %d, \"wall_ms\": %.3f, \
              \"records_per_s\": %.1f}%s\n"
             n s.versions_installed (dt *. 1e3) per_s
             (if i = List.length replay_rows - 1 then "" else ",")))
      replay_rows;
    Buffer.add_string buf "  ]\n}\n";
    let oc = open_out "BENCH_recovery.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    print_endline "\nwrote BENCH_recovery.json"
  end

(* ------------------------------------------------------------------ *)
(* Net: wire-layer overhead and per-fault-class latency *)

let net_bench () =
  section "Net — wire overhead vs in-process, per fault class";
  let clients = 16 and txns = 3_000 in
  let spec = W.Smallbank.spec () in
  let si = Minidb.Isolation.Snapshot_isolation in
  let run ?net () =
    let cfg =
      H.Run.config ~clients ~seed:43 ?net ~spec ~profile:pg ~level:si
        ~stop:(H.Run.Txn_count txns) ()
    in
    let t0 = wall () in
    let o = H.Run.execute cfg in
    (o, wall () -. t0)
  in
  (* op latency = the client-observed interval of every trace *)
  let latencies (o : H.Run.outcome) =
    List.map
      (fun t ->
        float_of_int
          (t.Leopard_trace.Trace.ts_aft - t.Leopard_trace.Trace.ts_bef))
      (H.Run.all_traces_sorted o)
  in
  let pct = Leopard_util.Stats.percentile in
  let fault_link f = H.Run.net_config ~fault:f () in
  let classes =
    [
      ("in-process", None);
      ("wire/clean", Some (H.Run.net_config ()));
      ( "wire/delay",
        Some (fault_link (Leopard_net.Faulty_link.config ~delay_prob:0.10 ()))
      );
      ( "wire/drop",
        Some (fault_link (Leopard_net.Faulty_link.config ~drop_prob:0.05 ()))
      );
      ( "wire/dup",
        Some (fault_link (Leopard_net.Faulty_link.config ~dup_prob:0.05 ())) );
      ( "wire/reorder",
        Some
          (fault_link (Leopard_net.Faulty_link.config ~reorder_prob:0.05 ()))
      );
      ( "wire/reset",
        Some (fault_link (Leopard_net.Faulty_link.config ~reset_prob:0.05 ()))
      );
    ]
  in
  ignore (run ()) (* warm-up: exclude cold-start noise *);
  let rows =
    List.map
      (fun (name, net) ->
        let o, t = run ?net () in
        let ls = latencies o in
        let tput =
          if t <= 0.0 then 0.0
          else float_of_int (o.H.Run.commits + o.H.Run.aborts) /. t
        in
        let resends, give_ups, ambiguous =
          match o.H.Run.net with
          | Some ns ->
            (ns.H.Run.resends, ns.H.Run.give_ups, List.length ns.H.Run.ambiguous)
          | None -> (0, 0, 0)
        in
        (name, o, t, tput, pct ls 50.0, pct ls 99.0, resends, give_ups,
         ambiguous))
      classes
  in
  Table.print
    ~aligns:Table.[ Left ]
    ~header:
      [
        "path"; "txns/s"; "wall(ms)"; "p50(us)"; "p99(us)"; "resends";
        "give-ups"; "ambiguous";
      ]
    (List.map
       (fun (name, _o, t, tput, p50, p99, resends, give_ups, ambiguous) ->
         [
           name;
           Table.fmt_float ~decimals:0 tput;
           fmt_ms t;
           Table.fmt_float ~decimals:1 (p50 /. 1e3);
           Table.fmt_float ~decimals:1 (p99 /. 1e3);
           Table.fmt_int resends;
           Table.fmt_int give_ups;
           Table.fmt_int ambiguous;
         ])
       rows);
  print_endline
    "\nwire/clean is byte-identical to in-process on the simulated clock \
     (same traces, same p50/p99); its cost is host wall time only.";
  if !emit_json then begin
    let buf = Buffer.create 512 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf
      (Printf.sprintf
         "  \"workload\": \"smallbank\",\n  \"txns\": %d,\n  \"clients\": \
          %d,\n"
         txns clients);
    Buffer.add_string buf "  \"paths\": [\n";
    let n = List.length rows in
    List.iteri
      (fun i (name, o, t, tput, p50, p99, resends, give_ups, ambiguous) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"path\": %S, \"commits\": %d, \"aborts\": %d, \
              \"wall_ms\": %.3f, \"txns_per_s\": %.1f, \"p50_ns\": %.0f, \
              \"p99_ns\": %.0f, \"resends\": %d, \"give_ups\": %d, \
              \"ambiguous_commits\": %d}%s\n"
             name o.H.Run.commits o.H.Run.aborts (t *. 1e3) tput p50 p99
             resends give_ups ambiguous
             (if i = n - 1 then "" else ",")))
      rows;
    Buffer.add_string buf "  ]\n}\n";
    let oc = open_out "BENCH_net.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    print_endline "\nwrote BENCH_net.json"
  end

(* ------------------------------------------------------------------ *)
(* Replication: ack mode x fault class — txn latency and verdict mix *)

let replication_bench () =
  let module Cluster = Leopard_replication.Cluster in
  let module Repl_fault = Leopard_replication.Repl_fault in
  let module Link = Leopard_net.Faulty_link in
  section "Replication — ack mode x fault class: latency and verdict mix";
  let clients = 16 and txns = 800 and nseeds = 5 and seed0 = 211 in
  let si = Minidb.Isolation.Snapshot_isolation in
  (* Four-cell read-modify-write: dense enough conflicts that a stale
     replica snapshot or a second unfenced timeline leaves an observable
     contradiction.  Smallbank's 1000 uniform accounts rarely collide,
     so the stale-read and split-brain cells would report Inconclusive
     not because the checker is weak but because nobody looked at the
     damaged cells. *)
  let hot_rmw () =
    let next = W.Spec.fresh_value_counter () in
    let cells =
      Array.init 4 (fun row -> Leopard_trace.Cell.make ~table:0 ~row ~col:0)
    in
    W.Spec.make ~name:"hot-rmw"
      ~initial:(Array.to_list (Array.map (fun c -> (c, 0)) cells))
      ~next_txn:(fun rng ->
        let c = cells.(Leopard_util.Rng.int rng 4) in
        W.Program.read [ c ] (fun _ ->
            W.Program.write_then [ (c, next ()) ] W.Program.finish))
  in
  let spec_of = function `Bank -> W.Smallbank.spec () | `Hot -> hot_rmw () in
  let run ?repl ~kind ~seed () =
    let cfg =
      H.Run.config ~clients ~seed ?repl ~spec:(spec_of kind) ~profile:pg
        ~level:si ~stop:(H.Run.Txn_count txns) ()
    in
    let t0 = wall () in
    let o = H.Run.execute cfg in
    (o, wall () -. t0)
  in
  (* Fault instants scale with an unreplicated probe of the same shape,
     so partition windows and failovers land mid-run regardless of the
     workload's absolute latency. *)
  let probe kind =
    let o, _ = run ~kind ~seed:seed0 () in
    o.H.Run.sim_duration_ns
  in
  let d_bank = probe `Bank and d_hot = probe `Hot in
  let classes =
    [
      ( "clean", `Bank,
        fun ~ack ~d:_ -> H.Run.repl_config (Cluster.config ~ack_mode:ack ())
      );
      ( "hop", `Bank,
        fun ~ack ~d:_ ->
          H.Run.repl_config (Cluster.config ~ack_mode:ack ~hop_ns:20_000 ())
      );
      ( "lossy-link", `Bank,
        fun ~ack ~d:_ ->
          H.Run.repl_config
            (Cluster.config ~ack_mode:ack ~hop_ns:20_000
               ~link:(Link.config ~drop_prob:0.05 ~dup_prob:0.05 ())
               ()) );
      ( "failover", `Bank,
        fun ~ack ~d ->
          H.Run.repl_config ~promote_on_partition:true
            ~election_timeout_ns:(max 1 (d / 20))
            (Cluster.config ~ack_mode:ack ~hop_ns:(max 1 (d / 100))
               ~gate_timeout_ns:(max 1 (d / 10))
               ~partitions:
                 [
                   {
                     Cluster.follower = -1;
                     from_ns = d / 3;
                     until_ns = 2 * d / 3;
                   };
                 ]
               ()) );
      ( "promote-lagging", `Bank,
        fun ~ack ~d ->
          H.Run.repl_config
            ~failover_at:[ max 1 (d / 2) ]
            (Cluster.config ~ack_mode:ack ~followers:2
               ~hop_ns:(max 1 (d / 100))
               ~partitions:
                 [ { Cluster.follower = 1; from_ns = 1; until_ns = d } ]
               ~faults:[ Repl_fault.Promote_lagging ] ()) );
      ( "lose-acked", `Bank,
        fun ~ack ~d ->
          H.Run.repl_config
            ~failover_at:[ max 1 (d / 2) ]
            (Cluster.config ~ack_mode:ack ~hop_ns:(max 1 (d / 4))
               ~faults:[ Repl_fault.Lose_acked_window ] ()) );
      ( "stale-read", `Hot,
        fun ~ack ~d ->
          H.Run.repl_config
            (Cluster.config ~ack_mode:ack ~hop_ns:(max 1 (d / 10))
               ~follower_read_prob:0.8 ~staleness_bound_ns:(max 1 d)
               ~faults:[ Repl_fault.Stale_follower_read ] ()) );
      ( "split-brain", `Hot,
        fun ~ack ~d ->
          H.Run.repl_config
            ~failover_at:[ max 1 (d / 2) ]
            ~split_brain_ns:(max 1 (d / 3))
            (Cluster.config ~ack_mode:ack ~followers:2
               ~faults:[ Repl_fault.Split_brain ] ()) );
    ]
  in
  let latencies (o : H.Run.outcome) =
    List.map
      (fun t ->
        float_of_int
          (t.Leopard_trace.Trace.ts_aft - t.Leopard_trace.Trace.ts_bef))
      (H.Run.all_traces_sorted o)
  in
  let pct = Leopard_util.Stats.percentile in
  let cell ~label ~kind ~repl_of =
    let acc_ls = ref [] in
    let commits = ref 0 and aborts = ref 0 and t_total = ref 0.0 in
    let failovers = ref 0 and gate_timeouts = ref 0 and stale = ref 0 in
    let resends = ref 0 and ambiguous = ref 0 and bugs = ref 0 in
    let verified = ref 0 and violation = ref 0 and inconclusive = ref 0 in
    for i = 0 to nseeds - 1 do
      let o, t = run ?repl:(repl_of ()) ~kind ~seed:(seed0 + i) () in
      acc_ls := latencies o :: !acc_ls;
      commits := !commits + o.H.Run.commits;
      aborts := !aborts + o.H.Run.aborts;
      t_total := !t_total +. t;
      ambiguous := !ambiguous + List.length o.H.Run.repl_ambiguous;
      (match o.H.Run.repl with
      | Some s ->
        failovers := !failovers + s.Cluster.failovers;
        gate_timeouts := !gate_timeouts + s.Cluster.gate_timeouts;
        stale := !stale + s.Cluster.stale_serves;
        resends := !resends + s.Cluster.resends
      | None -> ());
      let report, _ = verify Leopard.Il_profile.postgresql_si o in
      bugs := !bugs + report.Leopard.Checker.bugs_total;
      match Leopard.Checker.verdict report with
      | Leopard.Checker.Verified -> incr verified
      | Leopard.Checker.Violation -> incr violation
      | Leopard.Checker.Inconclusive _ -> incr inconclusive
    done;
    let ls = List.concat !acc_ls in
    let tput =
      if !t_total <= 0.0 then 0.0
      else float_of_int (!commits + !aborts) /. !t_total
    in
    ( label, !commits, !aborts, !t_total, tput, pct ls 50.0, pct ls 99.0,
      !failovers, !gate_timeouts, !ambiguous, !stale, !resends, !verified,
      !violation, !inconclusive, !bugs )
  in
  ignore (run ~kind:`Bank ~seed:seed0 ()) (* warm-up *);
  let baseline =
    cell ~label:"single-node" ~kind:`Bank ~repl_of:(fun () -> None)
  in
  let rows =
    baseline
    :: List.concat_map
         (fun (ack, ack_name) ->
           List.map
             (fun (cls, kind, build) ->
               let d = match kind with `Bank -> d_bank | `Hot -> d_hot in
               cell
                 ~label:(Printf.sprintf "%s/%s" ack_name cls)
                 ~kind
                 ~repl_of:(fun () -> Some (build ~ack ~d)))
             classes)
         [ (Cluster.Sync, "sync"); (Cluster.Async, "async") ]
  in
  let verdict_mix v x i =
    String.concat " "
      (List.filter
         (fun s -> s <> "")
         [
           (if v > 0 then Printf.sprintf "%dV" v else "");
           (if x > 0 then Printf.sprintf "%dX" x else "");
           (if i > 0 then Printf.sprintf "%dI" i else "");
         ])
  in
  Table.print
    ~aligns:Table.[ Left ]
    ~header:
      [
        "cell"; "txns/s"; "wall(ms)"; "p50(us)"; "p99(us)"; "failovers";
        "gate-to"; "ambig"; "stale"; "resends"; "verdicts"; "bugs";
      ]
    (List.map
       (fun ( label, _c, _a, t, tput, p50, p99, fo, gt, amb, st, rs, v, x, i,
              bugs ) ->
         [
           label;
           Table.fmt_float ~decimals:0 tput;
           fmt_ms t;
           Table.fmt_float ~decimals:1 (p50 /. 1e3);
           Table.fmt_float ~decimals:1 (p99 /. 1e3);
           Table.fmt_int fo;
           Table.fmt_int gt;
           Table.fmt_int amb;
           Table.fmt_int st;
           Table.fmt_int rs;
           verdict_mix v x i;
           Table.fmt_int bugs;
         ])
       rows);
  print_endline
    "\nverdicts over 5 seeds: V = Verified, X = Violation, I = \
     Inconclusive.  Honest faults (partitions, failovers, gate \
     timeouts) only ever degrade to I; the planted faults \
     (promote-lagging, lose-acked, stale-read, split-brain) surface as \
     X wherever the workload leaves an observable contradiction.  Sync \
     ack under long hops trades planted-fault detection for ambiguity: \
     gates time out before the lie becomes provable.";
  if !emit_json then begin
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf
      (Printf.sprintf
         "  \"txns\": %d,\n  \"clients\": %d,\n  \"seeds\": %d,\n" txns
         clients nseeds);
    Buffer.add_string buf "  \"cells\": [\n";
    let n = List.length rows in
    List.iteri
      (fun idx
           ( label, commits, aborts, t, tput, p50, p99, fo, gt, amb, st, rs,
             v, x, i, bugs ) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"cell\": %S, \"commits\": %d, \"aborts\": %d, \
              \"wall_ms\": %.3f, \"txns_per_s\": %.1f, \"p50_ns\": %.0f, \
              \"p99_ns\": %.0f, \"failovers\": %d, \"gate_timeouts\": %d, \
              \"ambiguous_commits\": %d, \"stale_serves\": %d, \"resends\": \
              %d, \"verified\": %d, \"violation\": %d, \"inconclusive\": \
              %d, \"bugs\": %d}%s\n"
             label commits aborts (t *. 1e3) tput p50 p99 fo gt amb st rs v x
             i bugs
             (if idx = n - 1 then "" else ",")))
      rows;
    Buffer.add_string buf "  ]\n}\n";
    let oc = open_out "BENCH_replication.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    print_endline "\nwrote BENCH_replication.json"
  end

(* ------------------------------------------------------------------ *)

let shard_bench () =
  let module Group = Leopard_shard.Group in
  let module Shard_fault = Leopard_shard.Shard_fault in
  let module Link = Leopard_net.Faulty_link in
  let module Codec = Leopard_trace.Codec in
  section "Sharding — fault class: fast path vs 2PC, latency and verdict mix";
  let clients = 16 and txns = 800 and nseeds = 5 and seed0 = 307 in
  let si = Minidb.Isolation.Snapshot_isolation in
  (* One hot row per shard of a 2-shard ring plus a cross-shard
     read-modify-write share: collisions are dense enough that a lying
     shard leaves an observable contradiction, and the cross-shard share
     keeps the 2PC path busy.  Smallbank's uniform accounts exercise the
     environmental cells but would leave the planted-lie cells
     Inconclusive for lack of witnesses, not strength of checker. *)
  let row_on shard =
    let rec go r =
      if r > 10_000 then failwith "no row found for shard"
      else if Group.shard_of_row ~shards:2 (0, r) = shard then r
      else go (r + 1)
    in
    go 0
  in
  let cross_rmw () =
    let next = W.Spec.fresh_value_counter () in
    let a = Leopard_trace.Cell.make ~table:0 ~row:(row_on 0) ~col:0 in
    let b = Leopard_trace.Cell.make ~table:0 ~row:(row_on 1) ~col:0 in
    W.Spec.make ~name:"cross-rmw"
      ~initial:[ (a, 0); (b, 0) ]
      ~next_txn:(fun rng ->
        match Leopard_util.Rng.int rng 4 with
        | 0 ->
          W.Program.read [ a ] (fun _ ->
              W.Program.write_then [ (a, next ()) ] W.Program.finish)
        | 1 ->
          W.Program.read [ b ] (fun _ ->
              W.Program.write_then [ (b, next ()) ] W.Program.finish)
        | _ ->
          W.Program.read [ a; b ] (fun _ ->
              W.Program.write_then
                [ (a, next ()); (b, next ()) ]
                W.Program.finish))
  in
  let spec_of = function `Bank -> W.Smallbank.spec () | `Cross -> cross_rmw () in
  let run ?shard ~kind ~seed () =
    let cfg =
      H.Run.config ~clients ~seed ?shard ~spec:(spec_of kind) ~profile:pg
        ~level:si ~stop:(H.Run.Txn_count txns) ()
    in
    let t0 = wall () in
    let o = H.Run.execute cfg in
    (o, wall () -. t0)
  in
  (* Fault instants and protocol timeouts scale with an unsharded probe
     of the same shape, so crashes and partition windows land mid-run
     regardless of the workload's absolute latency. *)
  let probe kind =
    let o, _ = run ~kind ~seed:seed0 () in
    o.H.Run.sim_duration_ns
  in
  let d_bank = probe `Bank and d_cross = probe `Cross in
  let classes =
    [
      ( "clean", `Bank,
        fun ~d:_ -> H.Run.shard_config (Group.config ~shards:3 ()) );
      ( "hop", `Bank,
        fun ~d:_ ->
          H.Run.shard_config (Group.config ~shards:3 ~hop_ns:20_000 ()) );
      ( "lossy-link", `Bank,
        fun ~d:_ ->
          H.Run.shard_config
            (Group.config ~shards:3 ~hop_ns:20_000
               ~link:(Link.config ~drop_prob:0.05 ~dup_prob:0.05 ())
               ()) );
      ( "partition", `Bank,
        fun ~d ->
          H.Run.shard_config
            (Group.config ~shards:3
               ~hop_ns:(max 1 (d / 100))
               ~prepare_timeout_ns:(max 1 (d / 10))
               ~retransmit_ns:(max 1 (d / 50))
               ~partitions:
                 [
                   { Group.shard = 1; from_ns = d / 3; until_ns = 2 * d / 3 };
                 ]
               ()) );
      ( "coord-crash", `Bank,
        fun ~d ->
          H.Run.shard_config
            ~coord_crash_at:[ max 1 (d / 2) ]
            (Group.config ~shards:2
               ~hop_ns:(max 1 (d / 100))
               ~prepare_timeout_ns:(max 1 (d / 20))
               ~retransmit_ns:(max 1 (d / 50))
               ~link:(Link.config ~drop_prob:0.1 ())
               ()) );
      ( "fractured-commit", `Cross,
        fun ~d ->
          H.Run.shard_config
            ~coord_crash_at:[ max 1 (d / 4); max 1 (d / 2); max 1 (3 * d / 4) ]
            (Group.config ~shards:2
               ~hop_ns:(max 1 (d / 100))
               ~prepare_timeout_ns:(max 1 (d / 10))
               ~retransmit_ns:(max 1 (d / 50))
               ~link:(Link.config ~seed:9 ~drop_prob:0.05 ())
               ~faults:[ Shard_fault.Fractured_commit ] ()) );
      ( "commit-after-abort", `Cross,
        fun ~d ->
          H.Run.shard_config
            (Group.config ~shards:2
               ~hop_ns:(max 1 (d / 2000))
               ~prepare_timeout_ns:(max 1 (d / 50))
               ~retransmit_ns:(max 1 (d / 200))
               ~link:(Link.config ~seed:5 ~drop_prob:0.3 ())
               ~faults:[ Shard_fault.Commit_after_abort ] ()) );
      ( "snapshot-skew", `Cross,
        fun ~d ->
          H.Run.shard_config
            (Group.config ~shards:2
               ~hop_ns:(max 1 (d / 20))
               ~skew_bound_ns:(max 1 d)
               ~prepare_timeout_ns:(max 1 (d / 5))
               ~retransmit_ns:(max 1 (d / 20))
               ~faults:[ Shard_fault.Snapshot_skew ] ()) );
      ( "stale-prepared-read", `Cross,
        fun ~d ->
          H.Run.shard_config
            ~coord_crash_at:[ max 1 (d / 3) ]
            (Group.config ~shards:2
               ~hop_ns:(max 1 (d / 20))
               ~skew_bound_ns:(max 1 d)
               ~prepare_timeout_ns:(max 1 (d / 5))
               ~retransmit_ns:(max 1 (d / 20))
               ~faults:[ Shard_fault.Stale_prepared_read ] ()) );
    ]
  in
  let latencies (o : H.Run.outcome) =
    List.map
      (fun t ->
        float_of_int
          (t.Leopard_trace.Trace.ts_aft - t.Leopard_trace.Trace.ts_bef))
      (H.Run.all_traces_sorted o)
  in
  let pct = Leopard_util.Stats.percentile in
  let cell ~label ~kind ~shard_of =
    let acc_ls = ref [] in
    let commits = ref 0 and aborts = ref 0 and t_total = ref 0.0 in
    let fast = ref 0 and tpc_c = ref 0 and tpc_a = ref 0 in
    let orphans = ref 0 and resends = ref 0 and routed = ref 0 in
    let bugs = ref 0 in
    let verified = ref 0 and violation = ref 0 and inconclusive = ref 0 in
    for i = 0 to nseeds - 1 do
      let o, t = run ?shard:(shard_of ()) ~kind ~seed:(seed0 + i) () in
      acc_ls := latencies o :: !acc_ls;
      commits := !commits + o.H.Run.commits;
      aborts := !aborts + o.H.Run.aborts;
      t_total := !t_total +. t;
      orphans := !orphans + List.length o.H.Run.coord_ambiguous;
      (match o.H.Run.shard with
      | Some s ->
        fast := !fast + s.Group.fast_path_commits;
        tpc_c := !tpc_c + s.Group.tpc_commits;
        tpc_a := !tpc_a + s.Group.tpc_aborts;
        resends := !resends + s.Group.resends;
        routed := !routed + s.Group.routed_reads
      | None -> ());
      let report, _ = verify Leopard.Il_profile.postgresql_si o in
      bugs := !bugs + report.Leopard.Checker.bugs_total;
      match Leopard.Checker.verdict report with
      | Leopard.Checker.Verified -> incr verified
      | Leopard.Checker.Violation -> incr violation
      | Leopard.Checker.Inconclusive _ -> incr inconclusive
    done;
    let ls = List.concat !acc_ls in
    let tput =
      if !t_total <= 0.0 then 0.0
      else float_of_int (!commits + !aborts) /. !t_total
    in
    ( label, !commits, !aborts, !t_total, tput, pct ls 50.0, pct ls 99.0,
      !fast, !tpc_c, !tpc_a, !orphans, !resends, !routed, !verified,
      !violation, !inconclusive, !bugs )
  in
  ignore (run ~kind:`Bank ~seed:seed0 ()) (* warm-up *);
  (* The zero-fault sharded run is byte-identical to the unsharded one:
     same traces, line for line. *)
  let identity =
    let plain, _ = run ~kind:`Bank ~seed:seed0 () in
    let sharded, _ =
      run ~shard:(H.Run.shard_config (Group.config ~shards:3 ())) ~kind:`Bank
        ~seed:seed0 ()
    in
    List.map Codec.to_line (H.Run.all_traces_sorted plain)
    = List.map Codec.to_line (H.Run.all_traces_sorted sharded)
  in
  Printf.printf "byte-identity, clean 3-shard vs unsharded (seed %d): %b\n\n"
    seed0 identity;
  let baseline =
    cell ~label:"unsharded" ~kind:`Bank ~shard_of:(fun () -> None)
  in
  let rows =
    baseline
    :: List.map
         (fun (cls, kind, build) ->
           let d = match kind with `Bank -> d_bank | `Cross -> d_cross in
           cell ~label:cls ~kind ~shard_of:(fun () -> Some (build ~d)))
         classes
  in
  let verdict_mix v x i =
    String.concat " "
      (List.filter
         (fun s -> s <> "")
         [
           (if v > 0 then Printf.sprintf "%dV" v else "");
           (if x > 0 then Printf.sprintf "%dX" x else "");
           (if i > 0 then Printf.sprintf "%dI" i else "");
         ])
  in
  Table.print
    ~aligns:Table.[ Left ]
    ~header:
      [
        "cell"; "txns/s"; "wall(ms)"; "p50(us)"; "p99(us)"; "fast"; "2pc-c";
        "2pc-a"; "orphans"; "resends"; "routed"; "verdicts"; "bugs";
      ]
    (List.map
       (fun ( label, _c, _a, t, tput, p50, p99, fast, tc, ta, orph, rs, rt, v,
              x, i, bugs ) ->
         [
           label;
           Table.fmt_float ~decimals:0 tput;
           fmt_ms t;
           Table.fmt_float ~decimals:1 (p50 /. 1e3);
           Table.fmt_float ~decimals:1 (p99 /. 1e3);
           Table.fmt_int fast;
           Table.fmt_int tc;
           Table.fmt_int ta;
           Table.fmt_int orph;
           Table.fmt_int rs;
           Table.fmt_int rt;
           verdict_mix v x i;
           Table.fmt_int bugs;
         ])
       rows);
  print_endline
    "\nverdicts over 5 seeds: V = Verified, X = Violation, I = \
     Inconclusive.  Environmental cells (hop, lossy-link, partition, \
     coord-crash) only ever degrade to I — an honest coordinator crash \
     orphans its undecided rounds into the coordinator-ambiguity \
     channel.  The planted lies (fractured-commit, commit-after-abort, \
     snapshot-skew, stale-prepared-read) surface as X wherever the \
     workload leaves an observable contradiction.";
  if !emit_json then begin
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf
      (Printf.sprintf
         "  \"txns\": %d,\n  \"clients\": %d,\n  \"seeds\": %d,\n  \
          \"byte_identical_clean\": %b,\n" txns clients nseeds identity);
    Buffer.add_string buf "  \"cells\": [\n";
    let n = List.length rows in
    List.iteri
      (fun idx
           ( label, commits, aborts, t, tput, p50, p99, fast, tc, ta, orph,
             rs, rt, v, x, i, bugs ) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"cell\": %S, \"commits\": %d, \"aborts\": %d, \
              \"wall_ms\": %.3f, \"txns_per_s\": %.1f, \"p50_ns\": %.0f, \
              \"p99_ns\": %.0f, \"fast_path_commits\": %d, \"tpc_commits\": \
              %d, \"tpc_aborts\": %d, \"coord_ambiguous\": %d, \"resends\": \
              %d, \"routed_reads\": %d, \"verified\": %d, \"violation\": \
              %d, \"inconclusive\": %d, \"bugs\": %d}%s\n"
             label commits aborts (t *. 1e3) tput p50 p99 fast tc ta orph rs
             rt v x i bugs
             (if idx = n - 1 then "" else ",")))
      rows;
    Buffer.add_string buf "  ]\n}\n";
    let oc = open_out "BENCH_shard.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    print_endline "\nwrote BENCH_shard.json"
  end

let shard_repl_bench () =
  let module Group = Leopard_shard.Group in
  let module Shard_fault = Leopard_shard.Shard_fault in
  let module Repl_fault = Leopard_replication.Repl_fault in
  let module Stack = Leopard_compose.Stack in
  let module Link = Leopard_net.Faulty_link in
  let module Wal = Minidb.Wal in
  let module Codec = Leopard_trace.Codec in
  section
    "Stacked planes — every shard a full minidb (WAL + replica set), \
     composed crash/failover";
  let clients = 16 and txns = 600 and nseeds = 5 and seed0 = 413 in
  let si = Minidb.Isolation.Snapshot_isolation in
  let row_on shard =
    let rec go r =
      if r > 10_000 then failwith "no row found for shard"
      else if Group.shard_of_row ~shards:2 (0, r) = shard then r
      else go (r + 1)
    in
    go 0
  in
  (* The shard bench's dense cross-shard read-modify-write: a shard
     that silently loses a committed record under a stacked fault
     leaves witnesses on the global trace. *)
  let cross_rmw () =
    let next = W.Spec.fresh_value_counter () in
    let a = Leopard_trace.Cell.make ~table:0 ~row:(row_on 0) ~col:0 in
    let b = Leopard_trace.Cell.make ~table:0 ~row:(row_on 1) ~col:0 in
    W.Spec.make ~name:"cross-rmw"
      ~initial:[ (a, 0); (b, 0) ]
      ~next_txn:(fun rng ->
        match Leopard_util.Rng.int rng 4 with
        | 0 ->
          W.Program.read [ a ] (fun _ ->
              W.Program.write_then [ (a, next ()) ] W.Program.finish)
        | 1 ->
          W.Program.read [ b ] (fun _ ->
              W.Program.write_then [ (b, next ()) ] W.Program.finish)
        | _ ->
          W.Program.read [ a; b ] (fun _ ->
              W.Program.write_then
                [ (a, next ()); (b, next ()) ]
                W.Program.finish))
  in
  let run ?shard ?(shape = `Dense) ~seed () =
    let cl, tx = match shape with `Dense -> (clients, txns) | `Sparse -> (4, 80) in
    let cfg =
      H.Run.config ~clients:cl ~seed ?shard ~spec:(cross_rmw ()) ~profile:pg
        ~level:si ~stop:(H.Run.Txn_count tx) ()
    in
    let t0 = wall () in
    let o = H.Run.execute cfg in
    (o, wall () -. t0)
  in
  let d = (fst (run ~seed:seed0 ())).H.Run.sim_duration_ns in
  let d_sparse =
    (fst (run ~shape:`Sparse ~seed:seed0 ())).H.Run.sim_duration_ns
  in
  let wal_chaos =
    Wal.fault_cfg ~seed:11 ~torn_tail_prob:0.4 ~lost_fsync_prob:0.3
      ~lost_fsync_window:3 ~dup_replay_prob:0.2 ()
  in
  (* Honest cells only ever degrade (at worst to Inconclusive); the two
     planted lies — a lagging promotion claiming a clean rebuild inside
     one shard's replica set, and a fractured decision log on a
     just-failed-over primary — must surface as Violation. *)
  let classes =
    [
      ( "clean-stack", `Dense,
        fun ~d:_ ~seed:_ ->
          H.Run.shard_config
            ~stack:(Stack.config ~followers:2 ())
            (Group.config ~shards:3 ~wal_faults:(Wal.fault_cfg ()) ()) );
      ( "repl-hop", `Dense,
        fun ~d:_ ~seed:_ ->
          H.Run.shard_config
            ~stack:(Stack.config ~followers:2 ~hop_ns:20_000 ())
            (Group.config ~shards:3 ()) );
      ( "lagging-replicas", `Dense,
        fun ~d:_ ~seed:_ ->
          H.Run.shard_config
            ~stack:
              (Stack.config ~followers:2 ~hop_ns:20_000
                 ~link:(Link.config ~seed:3 ~drop_prob:0.5 ())
                 ())
            (Group.config ~shards:2 ()) );
      ( "honest-failover", `Dense,
        fun ~d ~seed:_ ->
          H.Run.shard_config
            ~stack:
              (Stack.config ~followers:2
                 ~hop_ns:(max 1 (d / 200))
                 ~link:(Link.config ~seed:5 ~drop_prob:0.3 ())
                 ())
            ~shard_failover_at:[ (max 1 (d / 2), 0); (max 1 (3 * d / 4), 1) ]
            (Group.config ~shards:2 ()) );
      ( "stacked-chaos", `Dense,
        fun ~d ~seed:_ ->
          H.Run.shard_config
            ~coord_crash_at:[ max 1 (d / 3) ]
            ~part_crash_at:[ (max 1 (d / 4), 1) ]
            ~stack:
              (Stack.config ~followers:2
                 ~hop_ns:(max 1 (d / 200))
                 ~link:(Link.config ~seed:7 ~drop_prob:0.3 ())
                 ())
            ~shard_failover_at:[ (max 1 (d / 2), 0); (max 1 (3 * d / 4), 1) ]
            (Group.config ~shards:2
               ~hop_ns:(max 1 (d / 100))
               ~prepare_timeout_ns:(max 1 (d / 10))
               ~retransmit_ns:(max 1 (d / 50))
               ~wal_faults:wal_chaos ()) );
      ( "promote-lagging", `Dense,
        fun ~d ~seed:_ ->
          H.Run.shard_config
            ~stack:
              (Stack.config ~followers:2
                 ~link:(Link.config ~seed:9 ~drop_prob:1.0 ())
                 ~faults:[ Repl_fault.Promote_lagging ] ())
            ~shard_failover_at:[ (max 1 (d / 2), 0) ]
            (Group.config ~shards:2 ()) );
      ( "fractured-on-failover", `Sparse,
        fun ~d ~seed ->
          H.Run.shard_config
            ~stack:
              (Stack.config ~followers:2
                 ~hop_ns:(max 1 (d / 100))
                 ~link:(Link.config ~seed:13 ~drop_prob:0.3 ())
                 ~retransmit_ns:(max 1 (d / 50))
                 ~seed ())
            ~shard_failover_at:[ (max 1 (d / 2), 0); (max 1 (2 * d / 3), 1) ]
            (Group.config ~shards:2 ~faults:[ Shard_fault.Fractured_commit ]
               ()) );
    ]
  in
  let latencies (o : H.Run.outcome) =
    List.map
      (fun t ->
        float_of_int
          (t.Leopard_trace.Trace.ts_aft - t.Leopard_trace.Trace.ts_bef))
      (H.Run.all_traces_sorted o)
  in
  let pct = Leopard_util.Stats.percentile in
  let cell ~label ~shape ~shard_of =
    let acc_ls = ref [] in
    let commits = ref 0 and aborts = ref 0 and t_total = ref 0.0 in
    let fwd = ref 0 and appends = ref 0 in
    let fo = ref 0 and claimed = ref 0 and lost = ref 0 in
    let orphans = ref 0 and bugs = ref 0 in
    let verified = ref 0 and violation = ref 0 and inconclusive = ref 0 in
    for i = 0 to nseeds - 1 do
      let o, t = run ?shard:(shard_of (seed0 + i)) ~shape ~seed:(seed0 + i) () in
      acc_ls := latencies o :: !acc_ls;
      commits := !commits + o.H.Run.commits;
      aborts := !aborts + o.H.Run.aborts;
      t_total := !t_total +. t;
      orphans := !orphans + List.length o.H.Run.coord_ambiguous;
      (match o.H.Run.shard_repl with
      | Some s ->
        fwd := !fwd + s.Stack.forwarded;
        appends := !appends + s.Stack.appends_sent;
        fo := !fo + s.Stack.failovers;
        claimed := !claimed + s.Stack.claimed_clean;
        lost := !lost + s.Stack.lost_records
      | None -> ());
      let report, _ = verify Leopard.Il_profile.postgresql_si o in
      bugs := !bugs + report.Leopard.Checker.bugs_total;
      match Leopard.Checker.verdict report with
      | Leopard.Checker.Verified -> incr verified
      | Leopard.Checker.Violation -> incr violation
      | Leopard.Checker.Inconclusive _ -> incr inconclusive
    done;
    let ls = List.concat !acc_ls in
    let tput =
      if !t_total <= 0.0 then 0.0
      else float_of_int (!commits + !aborts) /. !t_total
    in
    ( label, !commits, !aborts, !t_total, tput, pct ls 50.0, pct ls 99.0,
      !fwd, !appends, !fo, !claimed, !lost, !orphans, !verified, !violation,
      !inconclusive, !bugs )
  in
  ignore (run ~seed:seed0 ()) (* warm-up *);
  (* The zero-fault stacked run — 3 shards, 2 replicas each, per-shard
     WALs, nothing faulty — is byte-identical to the unsharded,
     unreplicated one: same traces, line for line. *)
  let identity =
    let plain, _ = run ~seed:seed0 () in
    let stacked, _ =
      run
        ~shard:
          (H.Run.shard_config
             ~stack:(Stack.config ~followers:2 ())
             (Group.config ~shards:3 ~wal_faults:(Wal.fault_cfg ()) ()))
        ~seed:seed0 ()
    in
    List.map Codec.to_line (H.Run.all_traces_sorted plain)
    = List.map Codec.to_line (H.Run.all_traces_sorted stacked)
  in
  Printf.printf
    "byte-identity, clean stacked 3-shard x 2-replica vs plain (seed %d): \
     %b\n\n"
    seed0 identity;
  let baseline =
    cell ~label:"unstacked" ~shape:`Dense ~shard_of:(fun _seed -> None)
  in
  let rows =
    baseline
    :: List.map
         (fun (cls, shape, build) ->
           let d = match shape with `Dense -> d | `Sparse -> d_sparse in
           cell ~label:cls ~shape ~shard_of:(fun seed -> Some (build ~d ~seed)))
         classes
  in
  let verdict_mix v x i =
    String.concat " "
      (List.filter
         (fun s -> s <> "")
         [
           (if v > 0 then Printf.sprintf "%dV" v else "");
           (if x > 0 then Printf.sprintf "%dX" x else "");
           (if i > 0 then Printf.sprintf "%dI" i else "");
         ])
  in
  Table.print
    ~aligns:Table.[ Left ]
    ~header:
      [
        "cell"; "txns/s"; "wall(ms)"; "p50(us)"; "p99(us)"; "fwd"; "appends";
        "fo"; "claimed"; "lost"; "orphans"; "verdicts"; "bugs";
      ]
    (List.map
       (fun ( label, _c, _a, t, tput, p50, p99, fwd, ap, fo, cl, lo, orph, v,
              x, i, bugs ) ->
         [
           label;
           Table.fmt_float ~decimals:0 tput;
           fmt_ms t;
           Table.fmt_float ~decimals:1 (p50 /. 1e3);
           Table.fmt_float ~decimals:1 (p99 /. 1e3);
           Table.fmt_int fwd;
           Table.fmt_int ap;
           Table.fmt_int fo;
           Table.fmt_int cl;
           Table.fmt_int lo;
           Table.fmt_int orph;
           verdict_mix v x i;
           Table.fmt_int bugs;
         ])
       rows);
  print_endline
    "\nverdicts over 5 seeds: V = Verified, X = Violation, I = \
     Inconclusive.  Honest stacked cells (replication hops, lagging \
     replicas, lossless failovers, coordinator + participant crashes \
     with WAL damage) at worst degrade to I — an honest failover \
     re-acks the survivor prefix and the coordinator backfills the \
     rest.  The planted lies (promote-lagging inside one shard's \
     replica set, fractured-commit on a just-failed-over primary) \
     surface as X wherever the workload leaves a witness; the \
     fractured cell runs the sparse shape (4 clients, 80 txns) \
     because at full density the spliced slice is overwritten before \
     any read can observe the hole.";
  if !emit_json then begin
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf
      (Printf.sprintf
         "  \"txns\": %d,\n  \"clients\": %d,\n  \"seeds\": %d,\n  \
          \"byte_identical_clean\": %b,\n" txns clients nseeds identity);
    Buffer.add_string buf "  \"cells\": [\n";
    let n = List.length rows in
    List.iteri
      (fun idx
           ( label, commits, aborts, t, tput, p50, p99, fwd, ap, fo, cl, lo,
             orph, v, x, i, bugs ) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"cell\": %S, \"commits\": %d, \"aborts\": %d, \
              \"wall_ms\": %.3f, \"txns_per_s\": %.1f, \"p50_ns\": %.0f, \
              \"p99_ns\": %.0f, \"forwarded\": %d, \"appends_sent\": %d, \
              \"failovers\": %d, \"claimed_clean\": %d, \"lost_records\": \
              %d, \"coord_ambiguous\": %d, \"verified\": %d, \"violation\": \
              %d, \"inconclusive\": %d, \"bugs\": %d}%s\n"
             label commits aborts (t *. 1e3) tput p50 p99 fwd ap fo cl lo
             orph v x i bugs
             (if idx = n - 1 then "" else ",")))
      rows;
    Buffer.add_string buf "  ]\n}\n";
    let oc = open_out "BENCH_shard_repl.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    print_endline "\nwrote BENCH_shard_repl.json"
  end

(* ------------------------------------------------------------------ *)
(* Campaign: grid sweep throughput, serial vs domain pool *)

let campaign_bench () =
  let module G = Leopard_campaign.Grid in
  let module O = Leopard_campaign.Orchestrator in
  section "Campaign — grid sweep cells/s, serial vs domain pool";
  (* A miniature of the full preset grid: one class per fault plane,
     scaled down so the bench leg stays fast.  Byte-identity of the
     serial and parallel results DB is asserted, not just reported. *)
  let classes =
    List.filter_map
      (fun name ->
        Option.map
          (fun c -> G.scale ~txns:200 ~clients:4 c)
          (G.find_preset name))
      [
        "honest-baseline"; "honest-chaos"; "honest-recovery"; "honest-net";
        "honest-repl"; "honest-shard"; "honest-stacked";
      ]
  in
  let grid = G.make ~campaign_seed:42 ~seeds_per_class:4 classes in
  let cells = G.cell_count grid in
  let sweep jobs =
    let t0 = wall () in
    let o = O.run ~opts:{ O.default_opts with jobs; shrink = false } grid in
    (o, wall () -. t0)
  in
  ignore (sweep 1) (* warm-up: exclude cold-start noise *);
  let o_serial, t_serial = sweep 1 in
  let jobs_n = Domain.recommended_domain_count () in
  let o_par, t_par = sweep jobs_n in
  let identical =
    match (o_serial.O.json, o_par.O.json) with
    | Some a, Some b -> String.equal a b
    | (Some _ | None), _ -> false
  in
  assert identical;
  let rate t = if t <= 0.0 then 0.0 else float_of_int cells /. t in
  Table.print
    ~aligns:Table.[ Left ]
    ~header:[ "sweep"; "jobs"; "cells"; "wall(ms)"; "cells/s" ]
    [
      [
        "serial"; "1"; Table.fmt_int cells; fmt_ms t_serial;
        Table.fmt_float ~decimals:1 (rate t_serial);
      ];
      [
        "parallel"; string_of_int jobs_n; Table.fmt_int cells; fmt_ms t_par;
        Table.fmt_float ~decimals:1 (rate t_par);
      ];
    ];
  Printf.printf
    "\nspeedup %.2fx over %d job(s); serial and parallel results DB are \
     byte-identical\n"
    (if t_par <= 0.0 then 0.0 else t_serial /. t_par)
    jobs_n;
  if !emit_json then begin
    let buf = Buffer.create 256 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf
      (Printf.sprintf "  \"cells\": %d,\n  \"classes\": %d,\n" cells
         (List.length classes));
    Buffer.add_string buf
      (Printf.sprintf
         "  \"serial_wall_ms\": %.3f,\n  \"serial_cells_per_s\": %.2f,\n"
         (t_serial *. 1e3) (rate t_serial));
    Buffer.add_string buf
      (Printf.sprintf
         "  \"parallel_jobs\": %d,\n  \"parallel_wall_ms\": %.3f,\n  \
          \"parallel_cells_per_s\": %.2f,\n"
         jobs_n (t_par *. 1e3) (rate t_par));
    Buffer.add_string buf
      (Printf.sprintf "  \"byte_identical\": %b\n" identical);
    Buffer.add_string buf "}\n";
    let oc = open_out "BENCH_campaign.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    print_endline "\nwrote BENCH_campaign.json"
  end

(* ------------------------------------------------------------------ *)

let lint_bench () =
  let module D = Leopard_analysis.Driver in
  section "Lint — interprocedural analysis wall, cold vs warm summary cache";
  let roots =
    List.filter Sys.file_exists [ "lib"; "bin"; "bench"; "examples" ]
  in
  let cache_file = Filename.temp_file "leopard_lint_bench" ".cache" in
  Sys.remove cache_file (* the cold run must start without a cache *);
  let run () =
    let t0 = wall () in
    let s = D.lint_paths ~cache_file ~clock:wall roots in
    (s, wall () -. t0)
  in
  let s_cold, t_cold = run () in
  let s_warm, t_warm = run () in
  if Sys.file_exists cache_file then Sys.remove cache_file;
  let row name (s : D.summary) t =
    let tm = s.D.timings in
    [
      name; fmt_ms t; fmt_ms tm.D.t_parse; fmt_ms tm.D.t_syntactic;
      fmt_ms tm.D.t_extract; fmt_ms tm.D.t_graph; fmt_ms tm.D.t_race;
      fmt_ms tm.D.t_taint; fmt_ms tm.D.t_stale;
      Table.fmt_int (List.length s.D.reanalyzed);
      Table.fmt_int (List.length s.D.cached);
    ]
  in
  Table.print
    ~aligns:Table.[ Left ]
    ~header:
      [
        "run"; "wall(ms)"; "parse"; "syn(D/F/E)"; "extract"; "graph";
        "race(P1/2)"; "taint(P3)"; "stale(S1)"; "reanalyzed"; "cached";
      ]
    [ row "cold" s_cold t_cold; row "warm" s_warm t_warm ];
  let ratio = if t_cold <= 0.0 then 0.0 else t_warm /. t_cold in
  Printf.printf "\n%d files, %d active, %d suppressed; warm/cold = %.2f (%s)\n"
    s_cold.D.files s_cold.D.active s_cold.D.suppressed_total ratio
    (if ratio < 0.5 then "warm < 50% of cold: PASS"
     else "warm >= 50% of cold");
  if !emit_json then begin
    let stage (s : D.summary) t =
      let tm = s.D.timings in
      Printf.sprintf
        "{ \"wall_ms\": %.3f, \"parse_ms\": %.3f, \"syntactic_ms\": %.3f, \
         \"extract_ms\": %.3f, \"graph_ms\": %.3f, \"race_ms\": %.3f, \
         \"taint_ms\": %.3f, \"stale_ms\": %.3f, \"reanalyzed\": %d, \
         \"cached\": %d }"
        (t *. 1e3) (tm.D.t_parse *. 1e3) (tm.D.t_syntactic *. 1e3)
        (tm.D.t_extract *. 1e3) (tm.D.t_graph *. 1e3) (tm.D.t_race *. 1e3)
        (tm.D.t_taint *. 1e3) (tm.D.t_stale *. 1e3)
        (List.length s.D.reanalyzed)
        (List.length s.D.cached)
    in
    let buf = Buffer.create 512 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf
      (Printf.sprintf
         "  \"files\": %d,\n  \"active\": %d,\n  \"suppressed\": %d,\n"
         s_cold.D.files s_cold.D.active s_cold.D.suppressed_total);
    Buffer.add_string buf
      (Printf.sprintf "  \"cold\": %s,\n" (stage s_cold t_cold));
    Buffer.add_string buf
      (Printf.sprintf "  \"warm\": %s,\n" (stage s_warm t_warm));
    Buffer.add_string buf
      (Printf.sprintf "  \"warm_over_cold\": %.4f\n" ratio);
    Buffer.add_string buf "}\n";
    let oc = open_out "BENCH_lint.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    print_endline "\nwrote BENCH_lint.json"
  end

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig4", fig4);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("bugs", bugs);
    ("profiles", profiles);
    ("online", online);
    ("ablation", ablation);
    ("recovery", recovery);
    ("net", net_bench);
    ("replication", replication_bench);
    ("shard", shard_bench);
    ("shard-repl", shard_repl_bench);
    ("campaign", campaign_bench);
    ("lint", lint_bench);
    ("micro", micro);
  ]

let () =
  let argv =
    List.filter
      (fun a ->
        if a = "--json" then begin
          emit_json := true;
          false
        end
        else true)
      (Array.to_list Sys.argv)
  in
  let requested =
    match argv with
    | _ :: ([ arg ] as args) ->
      if List.mem arg [ "-h"; "--help" ] then begin
        Printf.printf "usage: main.exe [%s]\n"
          (String.concat "|" (List.map fst experiments));
        exit 0
      end
      else args
    | _ :: (_ :: _ as args) -> args
    | _ -> List.map fst experiments
  in
  let t0 = wall () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown experiment %s (have: %s)\n" name
          (String.concat ", " (List.map fst experiments));
        exit 2)
    requested;
  Printf.printf "\nall experiments done in %.1f s (cpu)\n" (wall () -. t0)
