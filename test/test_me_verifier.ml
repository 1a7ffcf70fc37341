module Me = Leopard.Me_verifier
module Interval = Leopard_util.Interval

let iv = Helpers.iv

let entry ?(txn = 0) ?(mode = Me.X) ~acquire ?release () =
  { Me.etxn = txn; mode; acquire_iv = acquire; release_iv = release }

(* Fig. 7(a): both lock cycles certainly nested -> violation. *)
let test_fig7a_violation () =
  let t0 =
    entry ~txn:0 ~acquire:(iv 0 10) ~release:(iv 100 110) ()
  in
  let t1 =
    entry ~txn:1 ~acquire:(iv 20 30) ~release:(iv 40 50) ()
  in
  Alcotest.(check bool) "violation" true
    (Me.judge ~mine:t0 ~other:t1 = Me.Violation)

(* Fig. 7(b): exactly one feasible order -> ww deduced. *)
let test_fig7b_ww () =
  let t0 =
    entry ~txn:0 ~acquire:(iv 0 10) ~release:(iv 20 35) ()
  in
  let t1 =
    entry ~txn:1 ~acquire:(iv 30 40) ~release:(iv 50 60) ()
  in
  (match Me.judge ~mine:t0 ~other:t1 with
  | Me.Ww (a, b) ->
    Alcotest.(check (pair int int)) "t0 before t1" (0, 1) (a, b)
  | Me.Violation | Me.Unordered -> Alcotest.fail "expected ww");
  (* symmetric call gives the same order *)
  match Me.judge ~mine:t1 ~other:t0 with
  | Me.Ww (a, b) -> Alcotest.(check (pair int int)) "same order" (0, 1) (a, b)
  | Me.Violation | Me.Unordered -> Alcotest.fail "expected ww"

let test_disjoint_direct () =
  let t0 = entry ~txn:0 ~acquire:(iv 0 10) ~release:(iv 20 30) () in
  let t1 = entry ~txn:1 ~acquire:(iv 40 50) ~release:(iv 60 70) () in
  match Me.judge ~mine:t0 ~other:t1 with
  | Me.Ww (0, 1) -> ()
  | _ -> Alcotest.fail "expected direct ww"

let test_judge_requires_release () =
  let t0 = entry ~txn:0 ~acquire:(iv 0 10) () in
  let t1 = entry ~txn:1 ~acquire:(iv 5 15) ~release:(iv 20 30) () in
  Alcotest.check_raises "unreleased"
    (Invalid_argument "Me_verifier.judge: both entries must be released")
    (fun () -> ignore (Me.judge ~mine:t0 ~other:t1))

(* Theorem 3 property: for well-formed per-transaction intervals
   (acquire.aft <= release.bef), Unordered never occurs. *)
let prop_theorem3 =
  let gen =
    QCheck.Gen.(
      let wf =
        (* acquire interval then release interval, strictly later *)
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
  QCheck.Test.make ~name:"theorem 3: never unordered" ~count:1000
    (QCheck.make gen) (fun ((a0, r0), (a1, r1)) ->
      let e0 = entry ~txn:0 ~acquire:a0 ~release:r0 () in
      let e1 = entry ~txn:1 ~acquire:a1 ~release:r1 () in
      Me.judge ~mine:e0 ~other:e1 <> Me.Unordered)

(* Violation soundness: if there exist instants inside the intervals under
   which the two holds do not overlap, judge must not report Violation. *)
let prop_violation_sound =
  let gen =
    QCheck.Gen.(
      let wf =
        map
          (fun (a, b, c, d) ->
            let xs = List.sort compare [ a; b; c; d ] in
            match xs with
            | [ p; q; r; s ] -> (iv p (q + 1), iv (q + 1 + r) (q + 2 + r + s))
            | _ -> assert false)
          (quad (int_bound 60) (int_bound 60) (int_bound 60) (int_bound 60))
      in
      pair wf wf)
  in
  QCheck.Test.make ~name:"ME violation is certain" ~count:500 (QCheck.make gen)
    (fun ((a0, r0), (a1, r1)) ->
      let e0 = entry ~txn:0 ~acquire:a0 ~release:r0 () in
      let e1 = entry ~txn:1 ~acquire:a1 ~release:r1 () in
      match Me.judge ~mine:e0 ~other:e1 with
      | Me.Violation ->
        (* no serial order possible: r0 cannot precede a1 and r1 cannot
           precede a0 even at the extremes *)
        Interval.bef r0 >= Interval.aft a1
        && Interval.bef r1 >= Interval.aft a0
      | Me.Ww _ | Me.Unordered -> true)

(* Lock-table bookkeeping. *)
let row = (0, 0)

let test_acquire_release_flow () =
  let t = Me.create () in
  Me.acquire t ~row ~txn:1 Me.X ~iv:(iv 0 10);
  Me.acquire t ~row ~txn:2 Me.X ~iv:(iv 20 30);
  Alcotest.(check int) "two entries" 2 (Me.live_entries t);
  let verdicts = ref [] in
  Me.release t ~txn:1 ~iv:(iv 15 18) ~on_pair:(fun ~row:_ ~mine:_ ~other:_ v ->
      verdicts := v :: !verdicts);
  (* partner not yet released: no pair evaluated *)
  Alcotest.(check int) "deferred" 0 (List.length !verdicts);
  Me.release t ~txn:2 ~iv:(iv 40 50) ~on_pair:(fun ~row:_ ~mine:_ ~other:_ v ->
      verdicts := v :: !verdicts);
  Alcotest.(check int) "pair evaluated at second release" 1
    (List.length !verdicts);
  match !verdicts with
  | [ Me.Ww (1, 2) ] -> ()
  | _ -> Alcotest.fail "expected ww 1->2"

let test_upgrade_entries () =
  let t = Me.create () in
  Me.acquire t ~row ~txn:1 Me.S ~iv:(iv 0 10);
  Me.acquire t ~row ~txn:1 Me.X ~iv:(iv 20 30);
  (* separate S and X entries *)
  Alcotest.(check int) "S + X entries" 2 (Me.live_entries t);
  Me.acquire t ~row ~txn:1 Me.S ~iv:(iv 40 50);
  Alcotest.(check int) "S subsumed by X" 2 (Me.live_entries t)

let test_shared_locks_no_pair () =
  let t = Me.create () in
  Me.acquire t ~row ~txn:1 Me.S ~iv:(iv 0 10);
  Me.acquire t ~row ~txn:2 Me.S ~iv:(iv 0 10);
  let calls = ref 0 in
  Me.release t ~txn:1 ~iv:(iv 20 30) ~on_pair:(fun ~row:_ ~mine:_ ~other:_ _ ->
      incr calls);
  Me.release t ~txn:2 ~iv:(iv 20 30) ~on_pair:(fun ~row:_ ~mine:_ ~other:_ _ ->
      incr calls);
  Alcotest.(check int) "S/S compatible" 0 !calls

let test_prune () =
  let t = Me.create () in
  Me.acquire t ~row ~txn:1 Me.X ~iv:(iv 0 10);
  Me.release t ~txn:1 ~iv:(iv 20 30) ~on_pair:(fun ~row:_ ~mine:_ ~other:_ _ ->
      ());
  Me.acquire t ~row ~txn:2 Me.X ~iv:(iv 40 50);
  Alcotest.(check int) "entries before prune" 2 (Me.live_entries t);
  let dropped = Me.prune t ~horizon:35 in
  Alcotest.(check int) "released old entry pruned" 1 dropped;
  Alcotest.(check int) "unreleased kept" 1 (Me.live_entries t)

(* Differential prune.  [Me.prune] deletes a row once its last entry
   goes; the reference is the full sweep over the lock table's own
   dump: drop every [e] line released by the horizon (field 8 is the
   release after-timestamp, "-" while held), keep the [t] lines. *)
let full_sweep_prune ~horizon lines =
  let pruned l =
    match String.split_on_char '\t' l with
    | [ "e"; _; _; _; _; _; _; _; ra ] -> ra <> "-" && int_of_string ra <= horizon
    | _ -> false
  in
  let kept = List.filter (fun l -> not (pruned l)) lines in
  (kept, List.length lines - List.length kept)

type op =
  | Acquire of int * int * bool * int * int  (** row, txn, X?, bef, width *)
  | Release of int * int * int  (** txn, bef, width *)
  | Discard of int
  | Prune of int
  | Roundtrip

let op_to_string = function
  | Acquire (r, txn, x, bef, w) ->
    Printf.sprintf "acquire r%d t%d %s (%d,+%d)" r txn (if x then "X" else "S") bef w
  | Release (txn, bef, w) -> Printf.sprintf "release t%d (%d,+%d)" txn bef w
  | Discard txn -> Printf.sprintf "discard t%d" txn
  | Prune step -> Printf.sprintf "prune +%d" step
  | Roundtrip -> "roundtrip"

let prop_prune_is_full_sweep =
  let gen =
    QCheck.Gen.(
      list_size (1 -- 150)
        (frequency
           [
             ( 5,
               map3
                 (fun (row, txn) x (bef, width) -> Acquire (row, txn, x, bef, width))
                 (pair (int_bound 3) (int_bound 7))
                 bool
                 (pair (int_bound 1000) (1 -- 40)) );
             ( 3,
               map3 (fun txn bef width -> Release (txn, bef, width))
                 (int_bound 7) (int_bound 1000) (1 -- 40) );
             (1, map (fun txn -> Discard txn) (int_bound 7));
             (3, map (fun step -> Prune step) (int_bound 80));
             (1, return Roundtrip);
           ]))
  in
  QCheck.Test.make ~name:"ME prune equals a full sweep" ~count:300
    (QCheck.make gen ~print:(fun ops ->
         String.concat "; " (List.map op_to_string ops)))
    (fun ops ->
      let t = ref (Me.create ()) and horizon = ref 0 in
      let on_pair ~row:_ ~mine:_ ~other:_ _ = () in
      List.iteri
        (fun i op ->
          match op with
          | Acquire (r, txn, x, bef, width) ->
            Me.acquire !t ~row:(0, r) ~txn (if x then Me.X else Me.S)
              ~iv:(iv bef (bef + width))
          | Release (txn, bef, width) ->
            Me.release !t ~txn ~iv:(iv bef (bef + width)) ~on_pair
          | Discard txn -> Me.discard !t ~txn
          | Prune step ->
            horizon := !horizon + step;
            let expected, drops = full_sweep_prune ~horizon:!horizon (Me.dump !t) in
            let dropped = Me.prune !t ~horizon:!horizon in
            let entries = List.filter (fun l -> l.[0] = 'e') expected in
            if
              dropped <> drops
              || Me.dump !t <> expected
              || Me.live_entries !t <> List.length entries
            then
              QCheck.Test.fail_reportf
                "op %d (horizon %d): dropped %d, the full sweep drops %d" i
                !horizon dropped drops
          | Roundtrip -> t := Me.restore (Me.dump !t))
        ops;
      true)

let suite =
  [
    Alcotest.test_case "Fig.7a violation" `Quick test_fig7a_violation;
    Alcotest.test_case "Fig.7b ww deduction" `Quick test_fig7b_ww;
    Alcotest.test_case "disjoint direct order" `Quick test_disjoint_direct;
    Alcotest.test_case "judge requires release" `Quick test_judge_requires_release;
    Helpers.qtest prop_theorem3;
    Helpers.qtest prop_violation_sound;
    Alcotest.test_case "acquire/release flow" `Quick test_acquire_release_flow;
    Alcotest.test_case "upgrade entries" `Quick test_upgrade_entries;
    Alcotest.test_case "shared locks no pair" `Quick test_shared_locks_no_pair;
    Alcotest.test_case "prune" `Quick test_prune;
    Helpers.qtest prop_prune_is_full_sweep;
  ]
