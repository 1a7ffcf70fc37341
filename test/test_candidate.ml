module Candidate = Leopard.Candidate
module Version_order = Leopard.Version_order
module Interval = Leopard_util.Interval

let iv = Helpers.iv

let version ?(txn = 0) ~value ~commit () =
  {
    Version_order.value;
    vtxn = txn;
    write_iv = commit;
    commit_iv = commit;
    readers = [];
  }

(* Fig. 6: five categories around a snapshot at (100, 110). *)
let snapshot = iv 100 110

let garbage = version ~txn:1 ~value:1 ~commit:(iv 10 20) ()
let pivot_overlap = version ~txn:2 ~value:2 ~commit:(iv 35 55) ()
let pivot = version ~txn:3 ~value:3 ~commit:(iv 40 60) ()
let overlap = version ~txn:4 ~value:4 ~commit:(iv 95 105) ()
let future = version ~txn:5 ~value:5 ~commit:(iv 120 130) ()

let chain = [ garbage; pivot_overlap; pivot; overlap; future ]

let classification_of vs target =
  List.assq target
    (List.map (fun (v, c) -> (v, c)) (Candidate.classify ~snapshot vs))

let test_fig6_classification () =
  let cls v = classification_of chain v in
  Alcotest.(check string) "garbage" "garbage"
    (Candidate.classification_to_string (cls garbage));
  Alcotest.(check string) "pivot overlap" "pivot-overlap"
    (Candidate.classification_to_string (cls pivot_overlap));
  Alcotest.(check string) "pivot" "pivot"
    (Candidate.classification_to_string (cls pivot));
  Alcotest.(check string) "overlap" "overlap"
    (Candidate.classification_to_string (cls overlap));
  Alcotest.(check string) "future" "future"
    (Candidate.classification_to_string (cls future))

let test_candidates_minimal () =
  let cands = Candidate.candidates ~snapshot chain in
  Alcotest.(check (list int)) "candidate values" [ 2; 3; 4 ]
    (List.map (fun (v : Version_order.version) -> v.value) cands)

let test_no_pivot () =
  let vs = [ overlap; future ] in
  Alcotest.(check bool) "no pivot" false (Candidate.has_pivot ~snapshot vs);
  Alcotest.(check (list int)) "only overlap candidates" [ 4 ]
    (List.map
       (fun (v : Version_order.version) -> v.value)
       (Candidate.candidates ~snapshot vs))

let test_single_version () =
  let vs = [ pivot ] in
  Alcotest.(check (list int)) "lone pivot is candidate" [ 3 ]
    (List.map
       (fun (v : Version_order.version) -> v.value)
       (Candidate.candidates ~snapshot vs))

let test_empty_chain () =
  Alcotest.(check int) "no candidates" 0
    (List.length (Candidate.candidates ~snapshot []))

(* Theorem 2, soundness half, by monte-carlo: sample exact instants
   consistent with every interval; the version actually visible must be in
   the candidate set. *)
let prop_sampled_visible_is_candidate =
  let gen =
    QCheck.Gen.(
      let interval =
        map2 (fun a b -> iv (min a b) (max a b + 1)) (int_bound 200) (int_bound 200)
      in
      pair (list_size (1 -- 8) interval) interval)
  in
  let arb =
    QCheck.make gen ~print:(fun (vs, s) ->
        Printf.sprintf "versions=[%s] snapshot=%s"
          (String.concat ";" (List.map Interval.to_string vs))
          (Interval.to_string s))
  in
  QCheck.Test.make ~name:"theorem 2: sampled visible version is a candidate"
    ~count:500 arb
    (fun (commit_ivs, snapshot) ->
      let rng = Leopard_util.Rng.create (Hashtbl.hash (commit_ivs, snapshot)) in
      let versions =
        List.mapi
          (fun i commit -> version ~txn:i ~value:i ~commit ())
          commit_ivs
      in
      let sorted =
        List.sort
          (fun (a : Version_order.version) b ->
            Interval.compare_by_aft a.commit_iv b.commit_iv)
          versions
      in
      let candidates = Candidate.candidates ~snapshot sorted in
      (* sample exact instants uniformly inside each open interval *)
      let instant i =
        let lo = Interval.bef i and hi = Interval.aft i in
        float_of_int lo
        +. Leopard_util.Rng.float rng (float_of_int (hi - lo))
        +. 1e-6
      in
      let snap_instant = instant snapshot in
      let visible =
        List.fold_left
          (fun acc (v : Version_order.version) ->
            let t = instant v.commit_iv in
            if t < snap_instant then
              match acc with
              | Some (_, best) when best >= t -> acc
              | _ -> Some (v, t)
            else acc)
          None sorted
      in
      match visible with
      | None -> true (* read would see the initial state *)
      | Some (v, _) -> List.memq v candidates)

(* Differential prune.  [Version_order.prune] visits only the chains
   its index lists; the reference is the full sweep it replaced,
   applied to every chain of the mirror's own dump (cell-major, chain
   order; fields 7 and 8 hold the commit interval).  Each cell is
   pruned by the Fig. 6 rule: the newest version committed by the
   horizon is the pivot, and a version goes when it is certainly
   installed before the pivot and every newer version. *)
let full_sweep_prune ~horizon lines =
  let fields l = Array.of_list (String.split_on_char '\t' l) in
  let cell l = Array.sub (fields l) 0 3 in
  let commit l =
    let f = fields l in
    (int_of_string f.(7), int_of_string f.(8))
  in
  let rec chains = function
    | [] -> []
    | l :: _ as ls ->
      let same, rest = List.partition (fun l' -> cell l' = cell l) ls in
      same :: chains rest
  in
  let sweep chain =
    let vs = List.mapi (fun i l -> (i, commit l)) chain in
    let pivot =
      List.fold_left
        (fun acc (i, (_, aft)) -> if aft <= horizon then Some (i, aft) else acc)
        None vs
    in
    match pivot with
    | None -> chain
    | Some (p, pivot_aft) ->
      let boundary =
        List.fold_left
          (fun acc (_, (bef, aft)) -> if aft >= pivot_aft then min acc bef else acc)
          max_int vs
      in
      List.filteri (fun i l -> i = p || snd (commit l) > boundary) chain
  in
  let kept = List.concat_map sweep (chains lines) in
  (kept, List.length lines - List.length kept)

type vo_op = Install of int * int * int | Prune of int | Roundtrip

let vo_op_to_string = function
  | Install (row, bef, width) -> Printf.sprintf "install r%d (%d,+%d)" row bef width
  | Prune step -> Printf.sprintf "prune +%d" step
  | Roundtrip -> "roundtrip"

let prop_indexed_prune_is_full_sweep =
  let gen =
    QCheck.Gen.(
      list_size (1 -- 120)
        (frequency
           [
             ( 6,
               map3
                 (fun row bef width -> Install (row, bef, width))
                 (int_bound 3) (int_bound 1000) (1 -- 60) );
             (3, map (fun step -> Prune step) (int_bound 80));
             (1, return Roundtrip);
           ]))
  in
  QCheck.Test.make ~name:"indexed version prune equals a full sweep"
    ~count:300
    (QCheck.make gen ~print:(fun ops ->
         String.concat "; " (List.map vo_op_to_string ops)))
    (fun ops ->
      let t = ref (Version_order.create ()) and horizon = ref 0 in
      List.iteri
        (fun i op ->
          match op with
          | Install (row, bef, width) ->
            Version_order.install !t (Helpers.cell row)
              {
                (version ~txn:i ~value:(i mod 5) ~commit:(iv bef (bef + width)) ())
                with
                readers = List.init (i mod 3) (fun k -> i + k + 1);
              }
              ~predecessor:ignore ~successor:ignore
          | Prune step ->
            horizon := !horizon + step;
            let expected, drops =
              full_sweep_prune ~horizon:!horizon (Version_order.dump !t)
            in
            let dropped = Version_order.prune !t ~horizon:!horizon in
            if
              dropped <> drops
              || Version_order.dump !t <> expected
              || Version_order.live_versions !t <> List.length expected
            then
              QCheck.Test.fail_reportf
                "op %d (horizon %d): dropped %d, the full sweep drops %d" i
                !horizon dropped drops
          | Roundtrip -> t := Version_order.restore (Version_order.dump !t))
        ops;
      true)

let suite =
  [
    Alcotest.test_case "Fig.6 classification" `Quick test_fig6_classification;
    Alcotest.test_case "candidate set minimal" `Quick test_candidates_minimal;
    Alcotest.test_case "no pivot case" `Quick test_no_pivot;
    Alcotest.test_case "single version" `Quick test_single_version;
    Alcotest.test_case "empty chain" `Quick test_empty_chain;
    Helpers.qtest prop_sampled_visible_is_candidate;
    Helpers.qtest prop_indexed_prune_is_full_sweep;
  ]
