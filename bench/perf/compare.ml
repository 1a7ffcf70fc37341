(* [compare A B]: is results file B a regression against results file A?

   For every workload in both files and every end-to-end metric, the
   reported values (the median, or the best repetition for per-repetition
   times) are compared against the metric's bound in BENCHMARK.json.
   Deterministic metrics (and the deterministic per-layer counts) must
   match exactly.  A metric whose quartile spread on either side exceeds
   its bound is unresolved, unless every run on one side beats every run
   on the other.  Files generated from different inputs (different seed
   or generator) are not compared at all. *)

type verdict = Same | Better | Worse_within | Regression | Unresolved | Changed

let verdict_to_string = function
  | Same -> "same"
  | Better -> "better"
  | Worse_within -> "worse, within bound"
  | Regression -> "REGRESSION"
  | Unresolved -> "unresolved"
  | Changed -> "changed (better; re-baseline)"

let samples metric workload =
  Option.map
    (fun m -> List.filter_map Json.to_num (Json.items "samples" m))
    (Option.bind (Json.member "metrics" workload) (Json.member metric))

(* Positive when [b] is worse than [a], as a share of [a]. *)
let worsening (m : Metric.t) a b =
  match m.better with
  | Metric.Lower -> (b -. a) /. a
  | Metric.Higher -> (a -. b) /. a

let beats (m : Metric.t) x y =
  match m.better with Metric.Lower -> x < y | Metric.Higher -> x > y

let spread xs =
  let q1, med, q3 = Metric.quartiles xs in
  (q3 -. q1) /. med

let judge (m : Metric.t) ~bound a b =
  let ma = Metric.value m a and mb = Metric.value m b in
  let w = worsening m ma mb in
  let all_beat xs ys = List.for_all (fun x -> List.for_all (beats m x) ys) xs in
  if m.deterministic then
    if List.for_all (Float.equal ma) (a @ b) then Same
    else if w > 0. then Regression
    else Changed
  else if spread a > bound || spread b > bound then
    if all_beat b a then Better
    else if all_beat a b && w > bound then Regression
    else Unresolved
  else if w > bound then Regression
  else if w < -.bound then Better
  else if w > 0. then Worse_within
  else Same

let bounds spec =
  List.filter_map
    (fun e ->
      match (Json.field "name" Json.to_str e, Json.field "bound" Json.to_num e) with
      | Some n, Some b -> Some (n, b)
      | _ -> None)
    (Json.items "end_to_end" spec)

let run ~a ~b =
  let load path =
    match Json.of_file path with
    | Ok j -> j
    | Error e ->
      Printf.eprintf "compare: cannot read %s: %s\n" path e;
      exit 2
  in
  let spec = load "BENCHMARK.json" and ja = load a and jb = load b in
  let bounds = bounds spec in
  let by_name j =
    List.filter_map
      (fun w -> Option.map (fun n -> (n, w)) (Json.field "name" Json.to_str w))
      (Json.items "workloads" j)
  in
  let wa = by_name ja and wb = by_name jb in
  let digest = Json.field "input_digest" Json.to_str in
  let regressions = ref 0 and unresolved = ref 0 and compared = ref 0 in
  List.iter
    (fun (name, a) ->
      match List.assoc_opt name wb with
      | None -> Printf.printf "%-18s only in the first file\n" name
      | Some b ->
        if not (Option.equal String.equal (digest a) (digest b)) then begin
          Printf.eprintf
            "compare: %s was generated from different inputs (input_digest \
             differs); refusing to compare\n"
            name;
          exit 2
        end;
        List.iter
          (fun (m : Metric.t) ->
            match (samples m.name a, samples m.name b) with
            | Some (_ :: _ as xa), Some (_ :: _ as xb) ->
              let bound =
                if m.deterministic then 0.
                else Option.value ~default:0. (List.assoc_opt m.name bounds)
              in
              let v = judge m ~bound xa xb in
              incr compared;
              (match v with
              | Regression -> incr regressions
              | Unresolved -> incr unresolved
              | Same | Better | Worse_within | Changed -> ());
              let ma = Metric.value m xa and mb = Metric.value m xb in
              let pct x =
                if Float.is_finite x then Printf.sprintf "%+.2f%%" (100. *. x)
                else "-"
              in
              Printf.printf
                "%-18s %-26s %14.6g -> %14.6g %-11s %8s (bound %g%%, spread \
                 %s / %s)  %s\n"
                name m.name ma mb m.unit_
                (if Float.equal ma mb then pct 0. else pct ((mb -. ma) /. ma))
                (100. *. bound) (pct (spread xa)) (pct (spread xb))
                (verdict_to_string v)
            | None, None -> ()
            | _ ->
              (* a metric that stopped being produced is a regression *)
              incr regressions;
              Printf.printf "%-18s %-26s missing on one side  REGRESSION\n"
                name m.name)
          (Metric.end_to_end
          @ List.filter (fun (m : Metric.t) -> m.deterministic) Metric.per_layer))
    wa;
  Printf.printf "compare: %d metric(s), %d regression(s), %d unresolved\n"
    !compared !regressions !unresolved;
  exit (if !regressions > 0 then 1 else 0)
