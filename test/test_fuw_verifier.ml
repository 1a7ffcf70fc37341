module Fuw = Leopard.Fuw_verifier
module Interval = Leopard_util.Interval

let iv = Helpers.iv

let entry ~txn ~snapshot ~commit =
  { Fuw.ftxn = txn; snapshot_iv = snapshot; commit_iv = commit }

(* Fig. 8(a): both snapshots precede both commits -> concurrent updaters
   both committed -> violation. *)
let test_fig8a_violation () =
  let t0 = entry ~txn:0 ~snapshot:(iv 20 30) ~commit:(iv 100 110) in
  let t1 = entry ~txn:1 ~snapshot:(iv 0 10) ~commit:(iv 60 70) in
  Alcotest.(check bool) "violation" true
    (Fuw.judge ~a:t0 ~b:t1 = Fuw.Violation)

(* Fig. 8(b): exactly one serial order feasible -> ww. *)
let test_fig8b_ww () =
  let t0 = entry ~txn:0 ~snapshot:(iv 0 10) ~commit:(iv 20 35) in
  let t1 = entry ~txn:1 ~snapshot:(iv 30 40) ~commit:(iv 50 60) in
  match Fuw.judge ~a:t0 ~b:t1 with
  | Fuw.Ww (0, 1) -> ()
  | _ -> Alcotest.fail "expected ww 0->1"

let test_disjoint_direct () =
  let t0 = entry ~txn:0 ~snapshot:(iv 0 5) ~commit:(iv 10 15) in
  let t1 = entry ~txn:1 ~snapshot:(iv 20 25) ~commit:(iv 30 35) in
  match Fuw.judge ~a:t0 ~b:t1 with
  | Fuw.Ww (0, 1) -> ()
  | _ -> Alcotest.fail "expected direct ww"

let prop_theorem4 =
  let gen =
    QCheck.Gen.(
      let wf =
        map
          (fun (a, b, c, d) ->
            let xs = List.sort compare [ a; b; c; d ] in
            match xs with
            | [ p; q; r; s ] -> (iv p (q + 1), iv (q + 1 + r) (q + 2 + r + s))
            | _ -> assert false)
          (quad (int_bound 100) (int_bound 100) (int_bound 100) (int_bound 100))
      in
      pair wf wf)
  in
  QCheck.Test.make ~name:"theorem 4: never unordered" ~count:1000
    (QCheck.make gen) (fun ((s0, c0), (s1, c1)) ->
      let e0 = entry ~txn:0 ~snapshot:s0 ~commit:c0 in
      let e1 = entry ~txn:1 ~snapshot:s1 ~commit:c1 in
      Fuw.judge ~a:e0 ~b:e1 <> Fuw.Unordered)

let prop_violation_certain =
  QCheck.Test.make ~name:"FUW violation means certain concurrency" ~count:500
    QCheck.(
      quad (int_bound 50) (int_bound 50) (int_bound 50) (int_bound 50))
    (fun (a, b, c, d) ->
      let s0 = iv a (a + b + 1) and c0 = iv (a + b + 1) (a + b + c + 2) in
      let s1 = iv c (c + d + 1) and c1 = iv (c + d + 1) (c + d + a + 2) in
      let e0 = entry ~txn:0 ~snapshot:s0 ~commit:c0 in
      let e1 = entry ~txn:1 ~snapshot:s1 ~commit:c1 in
      match Fuw.judge ~a:e0 ~b:e1 with
      | Fuw.Violation ->
        Interval.bef c0 >= Interval.aft s1 && Interval.bef c1 >= Interval.aft s0
      | Fuw.Ww _ | Fuw.Unordered -> true)

let row = (0, 0)

let test_register_pairs () =
  let t = Fuw.create () in
  let verdicts = ref [] in
  let on_pair ~row:_ ~other:_ v = verdicts := v :: !verdicts in
  Fuw.register t ~row
    (entry ~txn:1 ~snapshot:(iv 0 5) ~commit:(iv 10 15))
    ~on_pair;
  Alcotest.(check int) "first registration silent" 0 (List.length !verdicts);
  Fuw.register t ~row
    (entry ~txn:2 ~snapshot:(iv 20 25) ~commit:(iv 30 35))
    ~on_pair;
  (match !verdicts with
  | [ Fuw.Ww (1, 2) ] -> ()
  | _ -> Alcotest.fail "expected ww 1->2");
  (* a third concurrent updater conflicts with both *)
  Fuw.register t ~row
    (entry ~txn:3 ~snapshot:(iv 1 4) ~commit:(iv 40 45))
    ~on_pair;
  let violations =
    List.filter (fun v -> v = Fuw.Violation) !verdicts
  in
  Alcotest.(check int) "txn3 concurrent with both earlier updaters" 2
    (List.length violations)

let test_prune () =
  let t = Fuw.create () in
  let on_pair ~row:_ ~other:_ _ = () in
  Fuw.register t ~row (entry ~txn:1 ~snapshot:(iv 0 5) ~commit:(iv 10 15)) ~on_pair;
  Fuw.register t ~row (entry ~txn:2 ~snapshot:(iv 20 25) ~commit:(iv 30 35)) ~on_pair;
  Alcotest.(check int) "two entries" 2 (Fuw.live_entries t);
  let dropped = Fuw.prune t ~horizon:20 in
  Alcotest.(check int) "old entry dropped" 1 dropped;
  Alcotest.(check int) "recent kept" 1 (Fuw.live_entries t)

(* Differential prune.  [Fuw.prune] deletes a row once its last entry
   goes; the reference is the full sweep over the registry's own dump:
   drop every entry committed by the horizon (field 6 is the commit
   after-timestamp). *)
let full_sweep_prune ~horizon lines =
  let pruned l =
    match String.split_on_char '\t' l with
    | [ _; _; _; _; _; _; ca ] -> int_of_string ca <= horizon
    | _ -> Alcotest.failf "unexpected dump line %S" l
  in
  let kept = List.filter (fun l -> not (pruned l)) lines in
  (kept, List.length lines - List.length kept)

type op = Register of int * int * int * int | Prune of int | Roundtrip

let op_to_string = function
  | Register (r, snap, gap, w) ->
    Printf.sprintf "register r%d snapshot %d commit +%d (+%d)" r snap gap w
  | Prune step -> Printf.sprintf "prune +%d" step
  | Roundtrip -> "roundtrip"

let prop_prune_is_full_sweep =
  let gen =
    QCheck.Gen.(
      list_size (1 -- 120)
        (frequency
           [
             ( 6,
               map2
                 (fun (row, snap) (gap, width) -> Register (row, snap, gap, width))
                 (pair (int_bound 3) (int_bound 1000))
                 (pair (int_bound 60) (1 -- 40)) );
             (3, map (fun step -> Prune step) (int_bound 80));
             (1, return Roundtrip);
           ]))
  in
  QCheck.Test.make ~name:"FUW prune equals a full sweep" ~count:300
    (QCheck.make gen ~print:(fun ops ->
         String.concat "; " (List.map op_to_string ops)))
    (fun ops ->
      let t = ref (Fuw.create ()) and horizon = ref 0 in
      let on_pair ~row:_ ~other:_ _ = () in
      List.iteri
        (fun i op ->
          match op with
          | Register (r, snap, gap, width) ->
            let commit = snap + 1 + gap in
            Fuw.register !t ~row:(0, r)
              (entry ~txn:i ~snapshot:(iv snap (snap + 1))
                 ~commit:(iv commit (commit + width)))
              ~on_pair
          | Prune step ->
            horizon := !horizon + step;
            let expected, drops =
              full_sweep_prune ~horizon:!horizon (Fuw.dump !t)
            in
            let dropped = Fuw.prune !t ~horizon:!horizon in
            if
              dropped <> drops
              || Fuw.dump !t <> expected
              || Fuw.live_entries !t <> List.length expected
            then
              QCheck.Test.fail_reportf
                "op %d (horizon %d): dropped %d, the full sweep drops %d" i
                !horizon dropped drops
          | Roundtrip -> t := Fuw.restore (Fuw.dump !t))
        ops;
      true)

let suite =
  [
    Alcotest.test_case "Fig.8a violation" `Quick test_fig8a_violation;
    Alcotest.test_case "Fig.8b ww deduction" `Quick test_fig8b_ww;
    Alcotest.test_case "disjoint direct order" `Quick test_disjoint_direct;
    Helpers.qtest prop_theorem4;
    Helpers.qtest prop_violation_certain;
    Alcotest.test_case "register evaluates pairs" `Quick test_register_pairs;
    Alcotest.test_case "prune" `Quick test_prune;
    Helpers.qtest prop_prune_is_full_sweep;
  ]
