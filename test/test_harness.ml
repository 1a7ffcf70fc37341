module H = Leopard_harness
module W = Leopard_workload
module Trace = Leopard_trace.Trace

(* Note: a spec carries the unique-value counter, so runs that must be
   compared bit-for-bit each need a freshly built spec. *)
let run ?(seed = 42) ?(clients = 6) ?(txns = 200) ?chaos () =
  H.Run.execute
    (H.Run.config ~clients ~seed ?chaos ~spec:(W.Blindw.spec W.Blindw.RW)
       ~profile:Minidb.Profile.postgresql ~level:Minidb.Isolation.Serializable
       ~stop:(H.Run.Txn_count txns) ())

let test_counts () =
  let o = run () in
  Alcotest.(check bool) "some commits" true (o.commits > 0);
  Alcotest.(check bool) "requested transactions finished" true
    (o.commits + o.aborts >= 200)

let test_traces_well_formed () =
  let o = run () in
  Array.iter
    (List.iter (fun t ->
         match Trace.well_formed t with
         | Ok () -> ()
         | Error e -> Alcotest.failf "malformed trace: %s" e))
    o.client_traces

let test_per_client_monotone () =
  let o = run () in
  Array.iteri
    (fun c traces ->
      let rec go = function
        | a :: (b : Trace.t) :: rest ->
          if a.Trace.ts_bef > b.ts_bef then
            Alcotest.failf "client %d stream not monotone" c;
          go (b :: rest)
        | [ _ ] | [] -> ()
      in
      go traces)
    o.client_traces

let test_txn_lifecycles () =
  (* every transaction with traces ends with exactly one terminal *)
  let o = run () in
  let terminals = Hashtbl.create 256 in
  Array.iter
    (List.iter (fun t ->
         if Trace.is_terminal t then begin
           if Hashtbl.mem terminals t.Trace.txn then
             Alcotest.failf "txn %d has two terminals" t.Trace.txn;
           Hashtbl.replace terminals t.Trace.txn ()
         end))
    o.client_traces;
  Array.iter
    (List.iter (fun t ->
         if not (Hashtbl.mem terminals t.Trace.txn) then
           Alcotest.failf "txn %d never terminated" t.Trace.txn))
    o.client_traces

let test_determinism () =
  let a = run ~seed:7 () and b = run ~seed:7 () in
  Alcotest.(check int) "same commits" a.commits b.commits;
  Alcotest.(check int) "same sim duration" a.sim_duration_ns b.sim_duration_ns;
  let flat o = List.map Trace.to_string (H.Run.all_traces_sorted o) in
  Alcotest.(check (list string)) "identical traces" (flat a) (flat b);
  let c = run ~seed:8 () in
  Alcotest.(check bool) "different seed differs" true (flat a <> flat c)

let test_sim_time_stop () =
  let cfg =
    H.Run.config ~clients:4 ~seed:3 ~spec:(W.Blindw.spec W.Blindw.RW)
      ~profile:Minidb.Profile.postgresql ~level:Minidb.Isolation.Serializable
      ~stop:(H.Run.Sim_time_ns 20_000_000) ()
  in
  let o = H.Run.execute cfg in
  Alcotest.(check bool) "ran past the deadline only to drain" true
    (o.sim_duration_ns >= 20_000_000);
  Alcotest.(check bool) "made progress" true (o.commits > 0)

let test_ground_truth_sane () =
  let o = run () in
  Alcotest.(check bool) "a run builds no ground truth" false
    (Lazy.is_val o.truth_deps);
  ignore (H.Session.of_outcome Leopard.Il_profile.postgresql_serializable o);
  Alcotest.(check bool) "nor does verifying it" false
    (Lazy.is_val o.truth_deps);
  List.iter
    (fun (d : Minidb.Ground_truth.dep) ->
      Alcotest.(check bool) "no self deps" true (d.from_txn <> d.to_txn);
      Alcotest.(check bool) "committed endpoints" true
        (o.committed d.from_txn && o.committed d.to_txn))
    (Lazy.force o.truth_deps)

(* Every op of a clean in-process run logs exactly one trace, so the
   index holds ids 0 .. traces-1 and their intervals are the traces'. *)
let test_op_interval_index () =
  let o = run () in
  let traces = H.Run.all_traces_sorted o in
  let n = List.length traces in
  let pair iv = Leopard_util.Interval.(bef iv, aft iv) in
  let indexed =
    List.init n (fun op ->
        match o.op_interval op with
        | Some iv -> pair iv
        | None -> Alcotest.failf "op %d has no interval" op)
  in
  Alcotest.(check (list (pair int int)))
    "the traces' intervals"
    (List.sort compare (List.map (fun t -> pair (Trace.interval t)) traces))
    (List.sort compare indexed);
  List.iter
    (fun op ->
      Alcotest.(check bool)
        (Printf.sprintf "no interval for op %d" op)
        true
        (o.op_interval op = None))
    [ -1; n; max_int ]

(* The figures are pinned: under chaos the index holds the logged,
   skewed interval, which moves some dependencies across the overlap
   line without changing the dependencies themselves. *)
let test_overlap_beta_bounds () =
  List.iter
    (fun (name, chaos, (total, overlapping, ww, wr, rw)) ->
      let o = run ~clients:16 ~txns:1000 ?chaos () in
      let beta = H.Overlap.compute o in
      let r = H.Overlap.ratio beta in
      Alcotest.(check bool) "ratio in [0,1]" true (r >= 0.0 && r <= 1.0);
      let (wa, wb) = beta.ww and (ra, rb) = beta.wr and (aa, ab) = beta.rw in
      Alcotest.(check int) "kinds partition total" beta.total (wa + ra + aa);
      Alcotest.(check int) "kinds partition overlapping" beta.overlapping
        (wb + rb + ab);
      let counts = Alcotest.(pair int int) in
      Alcotest.(check int) (name ^ " total") total beta.total;
      Alcotest.(check int) (name ^ " overlapping") overlapping beta.overlapping;
      Alcotest.(check counts) (name ^ " ww") ww beta.ww;
      Alcotest.(check counts) (name ^ " wr") wr beta.wr;
      Alcotest.(check counts) (name ^ " rw") rw beta.rw)
    [
      ("clean", None, (5986, 20, (1886, 0), (1945, 0), (2155, 20)));
      ( "skewed",
        Some (H.Chaos.config ~seed:3 ~clock_skew_ns:200_000 ~dup_prob:0.01 ()),
        (5986, 17, (1886, 1), (1945, 1), (2155, 15)) );
    ]

let test_overlap_classify () =
  let o = run ~clients:16 ~txns:500 () in
  let all = H.Overlap.classify o ~deduced:(fun _ _ _ -> true) in
  let none = H.Overlap.classify o ~deduced:(fun _ _ _ -> false) in
  Alcotest.(check int) "all deduced" all.beta.overlapping all.deduced;
  Alcotest.(check int) "none deduced" none.beta.overlapping none.uncertain;
  Alcotest.(check int) "complementary" all.deduced
    (none.deduced + none.uncertain)

let test_contention_raises_beta () =
  let beta_for theta clients =
    let o =
      Helpers.run_workload ~seed:5 ~clients ~txns:1500
        ~spec:(W.Ycsb.spec ~rows:50_000 ~theta ())
        ~profile:Minidb.Profile.postgresql
        ~level:Minidb.Isolation.Serializable ()
    in
    H.Overlap.ratio (H.Overlap.compute o)
  in
  let low = beta_for 0.0 8 in
  let high = beta_for 0.99 32 in
  Alcotest.(check bool)
    (Printf.sprintf "beta grows with contention (%.4f -> %.4f)" low high)
    true (high > low)

let suite =
  [
    Alcotest.test_case "counts" `Quick test_counts;
    Alcotest.test_case "traces well-formed" `Quick test_traces_well_formed;
    Alcotest.test_case "per-client monotone" `Quick test_per_client_monotone;
    Alcotest.test_case "transaction lifecycles" `Quick test_txn_lifecycles;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "sim-time stop" `Quick test_sim_time_stop;
    Alcotest.test_case "ground truth sane" `Quick test_ground_truth_sane;
    Alcotest.test_case "op interval index" `Quick test_op_interval_index;
    Alcotest.test_case "overlap beta bounds" `Quick test_overlap_beta_bounds;
    Alcotest.test_case "overlap classification" `Quick test_overlap_classify;
    Alcotest.test_case "contention raises beta" `Slow
      test_contention_raises_beta;
  ]
