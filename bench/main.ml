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

let cpu () = Leopard_util.Clock.cpu ()

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

(* Verify a run as the CLI does; returns (report, cpu seconds). *)
let verify ?gc_every il outcome =
  let t0 = cpu () in
  let r = H.Session.of_outcome ?gc_every il outcome in
  (r.H.Session.report, cpu () -. t0)

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
            let t0 = cpu () in
            let first = Leopard.Pipeline.next pipe in
            let t_first = cpu () -. t0 in
            ignore first;
            let n = 1 + Leopard.Pipeline.drain pipe ~f:(fun _ -> ()) in
            (n, cpu () -. t0, t_first, Leopard.Pipeline.peak_memory pipe)
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
          let t0 = cpu () in
          let _first = B.Naive_sorter.next naive in
          let f_naive = cpu () -. t0 in
          ignore (B.Naive_sorter.drain naive ~f:(fun _ -> ()));
          let t_naive = cpu () -. t0 in
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
    let t0 = cpu () in
    let outcome =
      run_workload ~seed:13 ~spec ~profile:pg ~level:sr ~clients
        ~stop:(H.Run.Txn_count txns) ()
    in
    let dbms_cpu = cpu () -. t0 in
    let _, t_leopard = verify il_sr outcome in
    let t_naive =
      if txns > naive_cap then None
      else begin
        let cs = B.Cycle_search.create ~search_every:1 il_sr in
        let t0 = cpu () in
        List.iter (B.Cycle_search.feed cs) (H.Run.all_traces_sorted outcome);
        B.Cycle_search.finalize cs;
        Some (cpu () -. t0)
      end
    in
    (outcome, dbms_cpu, t_leopard, t_naive)
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
    let t0 = cpu () in
    let outcome =
      run_workload ~seed:17 ~spec ~profile:pg ~level:sr ~clients:24
        ~stop:(H.Run.Sim_time_ns 300_000_000) ()
    in
    let sim_cpu = cpu () -. t0 in
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
      fmt_ms sim_cpu;
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
      [ "workload"; "txns"; "dbms tps (sim)"; "leopard tps (cpu)"; "ratio";
        "sim cpu(ms)"; "peak mem" ]
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
        let t0 = cpu () in
        List.iter (B.Cobra.feed c) traces;
        let r = B.Cobra.finalize c in
        Some (r, cpu () -. t0)
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
  let t0 = cpu () in
  let r =
    H.Session.verify ~gc_watermark:window il_sr H.Marks.empty
      (H.Session.Pipeline (Leopard.Pipeline.create ~sources ()))
  in
  (r.H.Session.report, r.H.Session.pipeline_peak, cpu () -. t0)

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
        "verify cpu(ms)"; "bugs" ]
    (List.map
       (fun (name, r) ->
         [
           name;
           Table.fmt_int r.H.Online.report.Leopard.Checker.traces;
           Table.fmt_int r.H.Online.rounds;
           Table.fmt_int r.H.Online.max_lag;
           Table.fmt_int r.H.Online.final_lag;
           Table.fmt_int r.H.Online.stranded;
           fmt_ms r.H.Online.verify_cpu_s;
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
        "cpu(s)"; "traces/s"; "bugs" ]
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
  (* The same claim under lossy collection, on the CLI's chaos run
     (leopard -w smallbank -i SR --clients 8 --seed 1 --chaos-seed 3
     --chaos-drop 0.001 --chaos-dup 0.01 --chaos-delay 0.02
     --gc-watermark 5000): a lost terminal trace leaves its transaction
     unterminated, and it must cost that transaction, not all pruning
     after it. *)
  let lossy_window = 5_000 in
  Printf.printf
    "\nlossy collection (SmallBank, 0.1%% dropped, 1%% duplicated, 2%% \
     delayed; truncate every %d traces):\n"
    lossy_window;
  let lossy =
    List.map
      (fun txns ->
        let chaos =
          H.Chaos.config ~seed:3 ~drop_prob:0.001 ~dup_prob:0.01
            ~delay_prob:0.02 ()
        in
        let outcome =
          H.Run.execute
            (H.Run.config ~clients:8 ~seed:1 ~chaos ~spec:(W.Smallbank.spec ())
               ~profile:pg ~level:sr ~stop:(H.Run.Txn_count txns) ())
        in
        let t0 = cpu () in
        let r = H.Session.of_outcome ~gc_watermark:lossy_window il_sr outcome in
        (txns, r.H.Session.report, cpu () -. t0))
      [ 10_000; 40_000 ]
  in
  Table.print
    ~header:
      [ "txns"; "traces"; "peak live"; "cuts"; "deps folded"; "unterminated";
        "cpu(s)"; "bugs" ]
    (List.map
       (fun (txns, (r : Leopard.Checker.report), dt) ->
         [
           Table.fmt_int txns;
           Table.fmt_int r.Leopard.Checker.traces;
           Table.fmt_int r.Leopard.Checker.peak_live;
           Table.fmt_int r.Leopard.Checker.truncations;
           Table.fmt_int r.Leopard.Checker.truncated_deps;
           Table.fmt_int r.Leopard.Checker.degradation.unterminated_txns;
           Table.fmt_float ~decimals:2 dt;
           string_of_int r.Leopard.Checker.bugs_total;
         ])
       lossy);
  if !emit_json then begin
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n  \"live\": [\n";
    List.iteri
      (fun i (name, (r : H.Online.result)) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"workload\": \"%s\", \"traces\": %d, \"rounds\": %d, \
              \"max_lag\": %d, \"final_lag\": %d, \"stranded\": %d, \
              \"verify_cpu_s\": %.4f, \"bugs\": %d}%s\n"
             name r.H.Online.report.Leopard.Checker.traces r.H.Online.rounds
             r.H.Online.max_lag r.H.Online.final_lag r.H.Online.stranded
             r.H.Online.verify_cpu_s
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
              \"truncated_deps\": %d, \"cpu_s\": %.3f, \"traces_per_s\": \
              %.0f, \"verdict\": \"%s\", \"bugs\": %d}%s\n"
             txns r.Leopard.Checker.traces r.Leopard.Checker.peak_live
             pipeline_peak r.Leopard.Checker.truncations
             r.Leopard.Checker.truncated_deps dt
             (float_of_int r.Leopard.Checker.traces /. dt)
             verdict r.Leopard.Checker.bugs_total
             (if i = List.length soak - 1 then "" else ",")))
      soak;
    Buffer.add_string buf "    ]\n  },\n";
    Buffer.add_string buf
      (Printf.sprintf "  \"lossy\": {\n    \"window\": %d,\n    \"scales\": [\n"
         lossy_window);
    List.iteri
      (fun i (txns, (r : Leopard.Checker.report), dt) ->
        Buffer.add_string buf
          (Printf.sprintf
             "      {\"txns\": %d, \"traces\": %d, \"peak_live\": %d, \
              \"truncations\": %d, \"truncated_deps\": %d, \
              \"unterminated_txns\": %d, \"cpu_s\": %.3f, \"bugs\": %d}%s\n"
             txns r.Leopard.Checker.traces r.Leopard.Checker.peak_live
             r.Leopard.Checker.truncations r.Leopard.Checker.truncated_deps
             r.Leopard.Checker.degradation.unterminated_txns dt
             r.Leopard.Checker.bugs_total
             (if i = List.length lossy - 1 then "" else ",")))
      lossy;
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
         let t0 = cpu () in
         ignore (Leopard.Pipeline.drain pipe ~f:(fun _ -> ()));
         [
           Table.fmt_int batch;
           fmt_ms (cpu () -. t0);
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
    let t0 = cpu () in
    let o = H.Run.execute cfg in
    (o, cpu () -. t0)
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
    ~header:[ "wal"; "txns"; "cpu(ms)"; "ops/s"; "records" ]
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
    let t0 = cpu () in
    let _store, summary =
      Minidb.Recovery.replay ~initial:[] ~records
        ~fresh_ts:(fun () -> (n * 100) + 1)
        ~damage
    in
    let dt = cpu () -. t0 in
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
             "    {\"records\": %d, \"versions\": %d, \"cpu_ms\": %.3f, \
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
(* Fault-plane legs: net, replication, shard, shard-repl

   Each leg is a campaign grid — classes x 5 seeds x expected verdict —
   swept by the orchestrator and printed as one table.  Honest classes
   expect pass (never a Violation); planted lies and WAL damage expect
   any, since whether the workload leaves a witness depends on the
   seed.  Under the table each class prints its first cell's verdict
   and [leopard] line: the line is the cell's definition, so it replays
   from the CLI, which also prints the plane's protocol counters.
   Fault instants are literals: fractions (d/3, d/2, ...) of the
   simulated duration d of an unfaulted run of the same shape. *)

module G = Leopard_campaign.Grid
module O = Leopard_campaign.Orchestrator
module Results = Leopard_campaign.Results
module Runner = Leopard_campaign.Runner

let verdict_mix (v : Results.verdicts) =
  String.concat " "
    (List.filter_map
       (fun (n, tag) ->
         if n > 0 then Some (Printf.sprintf "%d%s" n tag) else None)
       [
         (v.Results.verified, "V"); (v.Results.violation, "X");
         (v.Results.inconclusive, "I"); (v.Results.crashed, "C");
         (v.Results.timeout, "T");
       ])

let plane_leg ~title ~file ~campaign_seed ~note classes =
  section title;
  let seeds = 5 in
  let grid = G.make ~campaign_seed ~seeds_per_class:seeds classes in
  let o = O.run ~opts:{ O.default_opts with jobs = 0; shrink = false } grid in
  let summaries = Results.summarize ~grid o.O.results in
  let us f = Table.fmt_float ~decimals:1 (f /. 1e3) in
  Table.print
    ~aligns:Table.[ Left; Left; Right; Right; Right; Right; Right; Right; Left ]
    ~header:
      [
        "class"; "expect"; "verdicts"; "bugs"; "commits"; "aborts";
        "p50(us)"; "p99(us)"; "degradation (sum over seeds)";
      ]
    (List.map
       (fun (s : Results.summary) ->
         let p50, p99 =
           match s.Results.latency with
           | Some (p50, p99) -> (us p50, us p99)
           | None -> ("-", "-")
         in
         [
           s.Results.clazz.G.cname;
           G.expect_to_string s.Results.clazz.G.expect;
           verdict_mix s.Results.verdicts;
           Table.fmt_int s.Results.bugs;
           Table.fmt_int s.Results.commits;
           Table.fmt_int s.Results.aborts;
           p50;
           p99;
           String.concat ", "
             (List.filter_map
                (fun (name, sum, _) ->
                  if sum > 0 then
                    Some (Printf.sprintf "%s %s" name (Table.fmt_int sum))
                  else None)
                s.Results.degradation);
         ])
       summaries);
  Printf.printf
    "\nverdicts over %d seeds: V = Verified, X = Violation, I = \
     Inconclusive; p50 is the median of the cells' p50s, p99 the worst \
     cell's (simulated).  %s\n\n"
    seeds note;
  List.iteri
    (fun i (s : Results.summary) ->
      let r = o.O.results.(i * seeds) in
      Printf.printf "%s: %s\n  %s\n" s.Results.clazz.G.cname
        (Runner.kind_to_string (Runner.kind_of r.Runner.outcome))
        (G.cli_line r.Runner.cell))
    summaries;
  (match o.O.json with
  | Some json when !emit_json ->
    let oc = open_out file in
    output_string oc json;
    close_out oc;
    Printf.printf "\nwrote %s\n" file
  | Some _ | None -> ());
  match Results.unexpected o.O.results with
  | [] -> ()
  | bad ->
    List.iter
      (fun (r : Runner.result) ->
        Printf.printf "UNEXPECTED: %s\n" (G.cli_line r.Runner.cell))
      bad;
    exit 1

(* [(name, workload, expect, flags)] rows of one shape. *)
let plane_classes ~txns ~clients rows =
  List.map
    (fun (name, workload, expect, flags) ->
      G.clazz name ~workload ~txns ~clients ~expect flags)
    rows

let net_bench () =
  plane_leg ~title:"Net — client wire per fault class" ~file:"BENCH_net.json"
    ~campaign_seed:43
    ~note:
      "Each row draws its own derived seeds; at equal seeds wire/clean is \
       byte-identical to in-process (test_net.ml).  The wire's faults \
       only ever degrade the verdict."
    (plane_classes ~txns:3_000 ~clients:16
       (List.map
          (fun (name, flags) -> (name, "smallbank", G.Pass, flags))
          [
            ("in-process", "");
            ("wire/clean", "--net");
            ("wire/delay", "--net-fault-delay 0.1");
            ("wire/drop", "--net-fault-drop 0.05");
            ("wire/dup", "--net-fault-dup 0.05");
            ("wire/reorder", "--net-fault-reorder 0.05");
            ("wire/reset", "--net-fault-reset 0.05");
          ]))

(* d = 23976571 (smallbank) and 19455069 (hot-rmw): 16 clients, 800
   txns, seed 211. *)
let replication_bench () =
  let per_ack =
    [
      ("clean", "smallbank", G.Pass, "--repl 1");
      ("hop", "smallbank", G.Pass, "--repl 1 --repl-hop-ns 20000");
      ( "lossy-link", "smallbank", G.Pass,
        "--repl 1 --repl-hop-ns 20000 --repl-drop 0.05 --repl-dup 0.05" );
      ( "failover", "smallbank", G.Pass,
        "--repl 1 --repl-hop-ns 239765 --repl-gate-timeout-ns 2397657 \
         --repl-partition 7992190:15984380 --repl-promote-on-partition \
         --repl-election-ns 1198828" );
      ( "promote-lagging", "smallbank", G.Any,
        "--repl 2 --repl-hop-ns 239765 --repl-lag 1:1:23976571 \
         --repl-failover-at 11988285 --repl-fault promote-lagging" );
      ( "lose-acked", "smallbank", G.Any,
        "--repl 1 --repl-hop-ns 5994142 --repl-failover-at 11988285 \
         --repl-fault lose-acked-window" );
      ( "stale-read", "hot-rmw", G.Any,
        "--repl 1 --repl-hop-ns 1945506 --repl-read-prob 0.8 \
         --repl-staleness-ns 19455069 --repl-fault stale-follower-read" );
      ( "split-brain", "hot-rmw", G.Any,
        "--repl 2 --repl-failover-at 9727534 --repl-split-brain-ns 6485023 \
         --repl-fault split-brain" );
    ]
  in
  plane_leg
    ~title:"Replication — ack mode x fault class: latency and verdict mix"
    ~file:"BENCH_replication.json" ~campaign_seed:211
    ~note:
      "Honest faults (partitions, failovers, gate timeouts) only ever \
       degrade to I; the planted faults (promote-lagging, lose-acked, \
       stale-read, split-brain) surface as X wherever the workload leaves \
       an observable contradiction.  Sync ack under long hops trades \
       planted-fault detection for ambiguity: gates time out before the \
       lie becomes provable."
    (plane_classes ~txns:800 ~clients:16
       (("single-node", "smallbank", G.Pass, "")
       :: List.concat_map
            (fun ack ->
              List.map
                (fun (name, workload, expect, flags) ->
                  ( ack ^ "/" ^ name, workload, expect,
                    flags ^ " --repl-ack " ^ ack ))
                per_ack)
            [ "sync"; "async" ]))

(* d = 23690996 (smallbank) and 19403012 (cross-rmw): 16 clients, 800
   txns, seed 307. *)
let shard_bench () =
  plane_leg
    ~title:"Sharding — fault class: fast path vs 2PC, latency and verdict mix"
    ~file:"BENCH_shard.json" ~campaign_seed:307
    ~note:
      "Environmental cells (hop, lossy-link, partition, coord-crash) only \
       ever degrade to I — an honest coordinator crash orphans its \
       undecided rounds into the coordinator-ambiguity channel.  The \
       planted lies (fractured-commit, commit-after-abort, snapshot-skew, \
       stale-prepared-read) surface as X wherever the workload leaves an \
       observable contradiction."
    (plane_classes ~txns:800 ~clients:16
       [
         ("unsharded", "smallbank", G.Pass, "");
         ("clean", "smallbank", G.Pass, "--shards 3");
         ("hop", "smallbank", G.Pass, "--shards 3 --shard-hop-ns 20000");
         ( "lossy-link", "smallbank", G.Pass,
           "--shards 3 --shard-hop-ns 20000 --shard-drop 0.05 --shard-dup \
            0.05" );
         ( "partition", "smallbank", G.Pass,
           "--shards 3 --shard-hop-ns 236909 --shard-prepare-timeout-ns \
            2369099 --shard-retransmit-ns 473819 --shard-partition \
            1:7896998:15793997" );
         ( "coord-crash", "smallbank", G.Pass,
           "--shards 2 --shard-hop-ns 236909 --shard-prepare-timeout-ns \
            1184549 --shard-retransmit-ns 473819 --shard-drop 0.1 \
            --shard-coord-crash-at 11845498" );
         ( "fractured-commit", "cross-rmw", G.Any,
           "--shards 2 --shard-hop-ns 194030 --shard-prepare-timeout-ns \
            1940301 --shard-retransmit-ns 388060 --shard-drop 0.05 \
            --shard-coord-crash-at 4850753 --shard-coord-crash-at 9701506 \
            --shard-coord-crash-at 14552259 --shard-fault fractured-commit" );
         ( "commit-after-abort", "cross-rmw", G.Any,
           "--shards 2 --shard-hop-ns 9701 --shard-prepare-timeout-ns 388060 \
            --shard-retransmit-ns 97015 --shard-drop 0.3 --shard-fault \
            commit-after-abort" );
         ( "snapshot-skew", "cross-rmw", G.Any,
           "--shards 2 --shard-hop-ns 970150 --shard-skew-bound-ns 19403012 \
            --shard-prepare-timeout-ns 3880602 --shard-retransmit-ns 970150 \
            --shard-fault snapshot-skew" );
         ( "stale-prepared-read", "cross-rmw", G.Any,
           "--shards 2 --shard-hop-ns 970150 --shard-skew-bound-ns 19403012 \
            --shard-prepare-timeout-ns 3880602 --shard-retransmit-ns 970150 \
            --shard-coord-crash-at 6467670 --shard-fault stale-prepared-read"
         );
       ])

(* d = 14667548 (16 clients, 600 txns) and 7996173 (the sparse shape:
   4 clients, 80 txns), cross-rmw, seed 413. *)
let shard_repl_bench () =
  let dense =
    plane_classes ~txns:600 ~clients:16
      (List.map
         (fun (name, expect, flags) -> (name, "cross-rmw", expect, flags))
         [
           ("unstacked", G.Pass, "");
           ("clean-stack", G.Pass, "--shards 3 --repl-per-shard 2");
           ( "repl-hop", G.Pass,
             "--shards 3 --repl-per-shard 2 --shard-hop-ns 20000" );
           ( "lagging-replicas", G.Pass,
             "--shards 2 --repl-per-shard 2 --shard-hop-ns 20000 \
              --shard-repl-drop 0.5" );
           ( "honest-failover", G.Pass,
             "--shards 2 --repl-per-shard 2 --shard-hop-ns 73337 \
              --shard-repl-drop 0.3 --shard-failover-at 0:7333774 \
              --shard-failover-at 1:11000661" );
           ( "stacked-chaos", G.Any,
             "--shards 2 --repl-per-shard 2 --shard-hop-ns 146675 \
              --shard-prepare-timeout-ns 1466754 --shard-retransmit-ns \
              293350 --shard-repl-drop 0.3 --shard-coord-crash-at 4889182 \
              --shard-crash 1:3666887 --shard-failover-at 0:7333774 \
              --shard-failover-at 1:11000661 --wal-fault-torn 0.4 \
              --wal-fault-lost-fsync 0.3 --wal-fault-window 3 \
              --wal-fault-dup 0.2" );
           ( "promote-lagging", G.Any,
             "--shards 2 --repl-per-shard 2 --shard-repl-drop 1 \
              --shard-failover-at 0:7333774 --shard-repl-fault \
              promote-lagging" );
         ])
  in
  let sparse =
    G.clazz "fractured-on-failover" ~workload:"cross-rmw" ~txns:80 ~clients:4
      ~expect:G.Any
      "--shards 2 --repl-per-shard 2 --shard-hop-ns 79961 \
       --shard-retransmit-ns 159923 --shard-repl-drop 0.3 \
       --shard-failover-at 0:3998086 --shard-failover-at 1:5330782 \
       --shard-fault fractured-commit"
  in
  plane_leg
    ~title:
      "Stacked planes — every shard a full minidb (WAL + replica set), \
       composed crash/failover"
    ~file:"BENCH_shard_repl.json" ~campaign_seed:413
    ~note:
      "Honest stacked cells (replication hops, lagging replicas, lossless \
       failovers) at worst degrade to I — an honest failover re-acks the \
       survivor prefix and the coordinator backfills the rest; \
       stacked-chaos adds WAL damage, which may convict.  The planted lies \
       (promote-lagging inside one shard's replica set, fractured-commit \
       on a just-failed-over primary) surface as X wherever the workload \
       leaves a witness; the fractured cell runs the sparse shape (4 \
       clients, 80 txns) because at full density the spliced slice is \
       overwritten before any read can observe the hole."
    (dense @ [ sparse ])

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
  let t0 = cpu () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown experiment %s (have: %s)\n" name
          (String.concat ", " (List.map fst experiments));
        exit 2)
    requested;
  Printf.printf "\nall experiments done in %.1f s (cpu)\n" (cpu () -. t0)
